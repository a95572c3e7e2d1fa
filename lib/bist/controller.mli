(** The microprogrammed test-and-repair controller.

    The FSM is compiled from a march test: per pass (test pass and
    verify pass) it chains one setup state per march element, one state
    per operation, one wait state per retention delay and a
    per-background loop state; global states handle idle, the TLB
    overflow check, pass-2 setup and the two terminal statuses.  The
    state graph is exported as TRPLA plane images.  {!run} executes a
    dense tabulation of the graph — per state a work-action mask and a
    successor table indexed by the conditions the state samples — built
    once per controller, on its first run; {!run_via_pla} evaluates the
    TRPLA planes instead and is the slow reference the test suite holds
    {!run} against.

    Pass semantics follow the paper: in the first pass every failing
    row address is recorded in the TLB (mapped to the predetermined,
    strictly increasing spare sequence); in the second pass the remap
    is active, the array and the mapped spares are retested, and any
    mismatch raises "Repair Unsuccessful". *)

type hooks = {
  record_fault : row:int -> [ `Ok | `Full ];
      (** record a failing logical row; [`Full] = would overflow *)
  would_overflow : row:int -> bool;
      (** true when recording this (new) row would overflow the TLB *)
  enable_remap : unit -> unit;  (** install the TLB translation *)
  faults_recorded : unit -> int;
}

(** Hooks for a RAM with no repair logic at all (pure BIST): recording
    always overflows, so the first fault fails the run. *)
val no_repair_hooks : hooks

type outcome = Passed_clean | Repaired | Repair_unsuccessful

type t

(** Compile the controller for a march test over a given number of
    words and list of backgrounds. *)
val compile :
  March.t -> words:int -> backgrounds:Bisram_sram.Word.t list -> t

(** Like {!compile} but with only the background {e count}: the FSM
    layout, PLA image and reports never consult the background values.
    For wide-word organizations ([bpw > Word.max_width]) whose
    backgrounds cannot be represented as packed words — layout/area
    flows only.  {!run}/{!run_via_pla} raise [Invalid_argument] on the
    result. *)
val compile_layout : March.t -> words:int -> n_backgrounds:int -> t

(** The march test, word count and background list the controller was
    compiled for (the list is empty for {!compile_layout}). *)
val test : t -> March.t

val words : t -> int

val backgrounds : t -> Bisram_sram.Word.t list

val state_count : t -> int
val flipflop_count : t -> int

(** Names of the FSM states in id order (for reports). *)
val state_names : t -> string array

type report = {
  outcome : outcome;
  cycles : int;  (** controller clock cycles consumed *)
  faults_recorded : int;
}

(** Execute the two-pass self-test/self-repair against the RAM model,
    from the dense PLA image.  Exit actions of a transition fire in one
    fixed order ([Record_row] samples the address before [Addr_step]
    moves it).  A cycle allocates nothing beyond what the hooks do.
    @raise Invalid_argument if a background's width differs from the
    model's [bpw], or on a layout-only controller. *)
val run : t -> Bisram_sram.Model.t -> hooks -> report

(** Export the control program as TRPLA planes. *)
val to_pla : t -> Trpla.t

(** Execute by evaluating the TRPLA image each cycle instead of the
    symbolic graph (slower; used to validate the PLA compilation). *)
val run_via_pla : t -> Bisram_sram.Model.t -> hooks -> report

(** {2 The transition function, for the table-vs-graph test}

    [conds] assigns all six conditions — bit [i] is, in order,
    test-enable, comparator-fail, element-done, background-done,
    TLB-full, retention-acknowledge — and both functions return
    [(next_state, exit_mask)], the mask over the control outputs'
    PLA output lines (after the state bits).  {!symbolic_step} asks the
    symbolic graph; {!table_step} reads the dense image, which keeps
    only the conditions each state declares it uses — the two agree on
    all 64 assignments iff those declarations are complete. *)

val symbolic_step : t -> state:int -> conds:int -> int * int
val table_step : t -> state:int -> conds:int -> int * int

val pp_outcome : Format.formatter -> outcome -> unit
