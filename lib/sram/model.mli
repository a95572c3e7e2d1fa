(** Fault-aware behavioural model of the BISRAMGEN RAM array.

    The model covers the regular rows plus the spare rows, a per-I/O
    sense-amplifier residue (needed for the stuck-open read model), an
    optional row remap installed by the BISR logic, and a retention
    "wait" operation for IFA-9 data-retention testing.

    One packed store holds every cell: one native int per (row,
    column-mux) word of the regular grid, plus one int per row for the
    spare columns.  Fault arming is word-granular: a word holding no
    armed cell (no fault site, coupling endpoint or state-coupling
    victim) is accessed with a single array load/store of
    {!Word.to_int}/{!Word.of_int} — its read sets the sense residue to
    the word read — while a word holding one runs the per-bit fault
    machinery of {!Armed} on the bits of that same store. *)

type t

(** @raise Invalid_argument when the organization is not
    {!Org.simulable} (bpw > [Word.max_width]). *)
val create : Org.t -> t
val org : t -> Org.t

(** Install functional faults (replaces any previous set), then
    {!clear}.  Fault cells may lie in spare rows and spare columns.
    @raise Invalid_argument on a fault cell outside the array. *)
val set_faults : t -> Bisram_faults.Fault.t list -> unit

(** [set_remap t f] installs a logical-row to physical-row translation
    (the TLB's output); [None] restores identity. *)
val set_remap : t -> (int -> int) option -> unit

(** [set_col_remap t f] installs a physical-column steering map (the 2D
    BIRA allocation's output): a word access to mux position [col]
    resolves bit [b] at physical column [f (b*bpc + col)] instead of
    [b*bpc + col].  Spare columns occupy physical columns
    [cols .. total_cols - 1].  While a map is armed every word access
    takes the per-bit path (the word path assumes identity steering);
    [None] restores identity and re-enables the word path.
    @raise Invalid_argument if the map sends any regular column outside
    [0 .. total_cols - 1]. *)
val set_col_remap : t -> (int -> int) option -> unit

(** Word access through the addressing logic (column mux + remap).
    @raise Invalid_argument if the address is out of range or the word
    width mismatches. *)
val read_word : t -> int -> Word.t

(** [read_int t a] is [Word.to_int (read_word t a)] without building the
    word: the same access (same counters, same sense-residue updates),
    returned as the packed value.  The BIST kernels compare it against a
    precomputed background with an int test, so a read allocates
    nothing. *)
val read_int : t -> int -> int

val write_word : t -> int -> Word.t -> unit

(** Direct physical-row access, bypassing the remap (used to test spare
    rows and by white-box tests). *)
val read_row_word : t -> row:int -> col:int -> Word.t

val write_row_word : t -> row:int -> col:int -> Word.t -> unit

(** Retention wait: every data-retention-faulty cell decays. *)
val retention_wait : t -> unit

type stats = {
  s_reads : int;  (** word reads (the test-length metric) *)
  s_writes : int;  (** word writes *)
  s_fast_reads : int;  (** reads served by the word path *)
  s_fast_writes : int;  (** writes served by the word path *)
  s_rows_cleared : int;  (** dirty rows zeroed by {!clear} *)
}

(** Access-regime counters since creation.  Per-bit traffic (accesses
    to armed words, or under column steering) is
    [s_reads - s_fast_reads] / [s_writes - s_fast_writes].  These are
    plain per-model ints (no global telemetry involved); the campaign
    flushes them into the {!Bisram_obs.Obs} registry per trial. *)
val stats : t -> stats

(** Zero every access-regime counter (as at {!create}).  With
    [set_faults t []] before and [set_faults t faults] after, a reused
    model then reports exactly the counters of a fresh
    [create] + [set_faults t faults]: the campaign re-arms its per-domain
    flow models this way. *)
val reset_stats : t -> unit

(** Forget all stored data (power-up state: zeros, pinned cells at their
    stuck value); counters and faults are preserved.  Only rows written
    since the previous clear (plus fault-armed rows) are touched. *)
val clear : t -> unit
