(** The fault semantics of armed cells, shared by {!Model} and
    {!Lanes}.

    Every armed fault is held as a lane mask per physical cell: bit
    [l] of an entry is lane [l]'s share of it.  {!Lanes} arms up to
    {!Word.max_width} lanes (one campaign trial each); {!Model} is the
    one-lane case, lane bit [1].  A cell's value is a lane mask of the
    same shape, reached through the one {!store} variant:

    - stuck-at: [pin_mask]/[pin_val], re-asserted by {!reassert_pins};
    - transition: [no_rise]/[no_fall] block the faulted edge;
    - stuck-open: [opens] keeps the value on writes and returns the
      sense residue on reads;
    - data retention: [ret_mask]/[ret_val], applied by {!decay};
    - coupling (inversion/idempotent): [effects] of the aggressor,
      fired by the lanes whose aggressor value changed;
    - state coupling: [state_cpl] read overrides of the victim.

    The semantics (DESIGN.md §7.2) are those of the test-owned
    per-cell reference model: both stores are checked against it. *)

(** A coupling effect of an aggressor cell on one lane. *)
type effect

(** A state-coupling read override of a victim cell on one lane. *)
type coupling

(** Where cell values live.  [Words] is {!Model}'s packed store: bit
    [b] of [packed.(row * bpc + col)] is regular cell
    [(row, b * bpc + col)], bit [k] of [spare.(row)] is spare-column
    cell [(row, cols + k)], and [word_armed] marks the (row, col-mux)
    words holding an armed cell, which {!arm} sets and {!disarm}
    clears.  [Cells] is {!Lanes}' store: one lane mask per cell. *)
type store =
  | Words of { packed : int array; spare : int array; word_armed : Bytes.t }
  | Cells of int array

(** Fields are read-only outside this module: the stores' fast paths
    test [row_armed] and [nopens] inline.  A cell index is
    [row * tcols + col] over every physical row and column, spares
    included. *)
type t = private {
  store : store;
  nrows : int;
  cols : int;
  tcols : int;
  bpc : int;
  lg_bpc : int;  (** [bpc = 1 lsl lg_bpc] *)
  pin_mask : int array;
  pin_val : int array;
  no_rise : int array;
  no_fall : int array;
  opens : int array;
  ret_mask : int array;
  ret_val : int array;
  state_cpl : coupling list array;
  effects : effect list array;
  row_armed : Bytes.t;  (** rows holding any table entry *)
  mutable marked : int list;  (** cells holding any table entry *)
  mutable pinned : int list;  (** cells with [pin_mask <> 0] *)
  mutable ret_cells : int list;  (** cells with [ret_mask <> 0] *)
  mutable nopens : int;  (** armed stuck-open faults, all lanes *)
}

(** Empty tables over [store], which must be sized for [org]. *)
val create : Org.t -> store -> t

(** [arm t ~lbit faults] adds [faults] on the lanes of [lbit].  A
    state-coupling aggressor is not armed: its victim re-reads it.
    @raise Invalid_argument on a fault cell outside the array. *)
val arm : t -> lbit:int -> Bisram_faults.Fault.t list -> unit

(** Empty every table, walking the [marked] cells only.  Cell values
    are the caller's to reset. *)
val disarm : t -> unit

(** Store each pinned cell's stuck value (after a power-up fill). *)
val reassert_pins : t -> unit

(** Retention wait: every unpinned retention-faulty lane decays. *)
val decay : t -> unit

(** [write t i d] writes lane mask [d] to cell [i]: open and pinned
    lanes keep their value, a transition fault blocks its edge, and
    the lanes whose value changed fire the cell's coupling effects
    (pin-respecting, transition-bypassing, never cascading). *)
val write : t -> int -> int -> unit

(** [read t i ~residue] reads cell [i] through an I/O whose sense
    residue is [residue]: state couplings override the stored value
    (the earliest armed matching one wins per lane), open lanes return
    [residue].  The result is both the value read and the I/O's new
    residue. *)
val read : t -> int -> residue:int -> int

(** [write_cells t ~base ~stride data] is {!write} of [data.(b)] to
    cell [base + b * stride] for every [b], in increasing order. *)
val write_cells : t -> base:int -> stride:int -> int array -> unit

(** [mismatch_cells t ~base ~stride ~residue expected] is {!read} of
    cell [base + b * stride] through I/O [b] (residue [residue.(b)],
    refreshed) for every [b], in increasing order; returns the OR over
    [b] of [value lxor expected.(b)]. *)
val mismatch_cells :
  t -> base:int -> stride:int -> residue:int array -> int array -> int
