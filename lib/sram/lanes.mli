(** Lane-sliced batch simulation store (the PPSFP trick applied to
    Monte Carlo trials).

    Bit position [l] of every packed int is campaign trial [l]'s copy
    of that cell, so one int operation advances up to
    {!Word.max_width} trials at once.  Stimulus is broadcast — all
    lanes see the same march/sweep data — while each lane carries its
    own fault set, armed as per-lane masks in {!Armed} — the same
    tables and per-cell kernel {!Model} runs on its armed words, so
    per lane the semantics are {!Model}'s by construction (the qcheck
    differential property in [test_lanes] also holds every lane
    against the test-owned per-cell reference).  A row holding no
    armed cell on any lane is accessed with plain broadcast loads and
    stores.  There is deliberately no remap, because the
    batched campaign scheduler only resolves lanes whose whole flow is
    clean — their TLB is empty and their remap is the identity. *)

type t

(** [create org ~lanes] builds a zeroed lane store.
    @raise Invalid_argument if [org] is not simulable or [lanes] is
    outside [1 .. Word.max_width]. *)
val create : Org.t -> lanes:int -> t

val org : t -> Org.t
val nlanes : t -> int

(** Mask with one bit per armed lane: [(1 lsl lanes) - 1]. *)
val all_mask : t -> int

(** Arm one lane's fault list, mirroring {!Model.set_faults} for that
    lane.  Call once per lane, then {!clear} (the scalar model's
    [set_faults] ends with a clear).
    @raise Invalid_argument on an out-of-range lane or fault cell. *)
val arm : t -> lane:int -> Bisram_faults.Fault.t list -> unit

(** Disarm every lane: afterwards [t] behaves exactly like
    [create (org t) ~lanes:(nlanes t)], so one store serves batch after
    batch of the same width ({!arm} each lane, then {!clear}).  Only
    rows holding armed faults are walked, plus the cell values. *)
val reset : t -> unit

(** Power-up fill: zero every cell on every lane, re-assert stuck-at
    pins, forget the sense residue. *)
val clear : t -> unit

(** Broadcast a word write to all lanes at a logical address. *)
val write_word : t -> int -> Word.t -> unit

(** [read_mismatch t a expected] reads the word at [a] on every lane
    and returns the mask of lanes whose value differs from [expected]
    — the lane-wise comparator reduction used by the lane engine. *)
val read_mismatch : t -> int -> Word.t -> int

(** Broadcast expansion of a data word: element [b] is the lane mask
    ([all_mask] or [0]) of data bit [b].  The march engine expands
    each background once so the per-address loop touches only int
    arrays. *)
val expand : t -> Word.t -> int array

(** {!write_word} / {!read_mismatch} on a pre-expanded word. *)
val write_exp : t -> int -> int array -> unit

val mismatch_exp : t -> int -> int array -> int

(** Per-I/O lane values of one word read: element [b] is the lane mask
    of data bit [b].  Performs the side effects of exactly one word
    read (used by the differential tests; allocates). *)
val read_bits : t -> int -> int array

(** Retention decay on every armed lane (pin-respecting). *)
val retention_wait : t -> unit
