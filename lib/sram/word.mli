(** Fixed-width bit vectors used as RAM words and test backgrounds.
    Bit 0 is the least significant / leftmost I/O subarray.

    Words are packed into a single native integer, so every operation
    is a mask-and-shift with no per-bit work, and {!equal} is an
    integer compare.  The representation caps the width at
    {!max_width} (62) bits; all simulated organizations satisfy this
    (layout-only configurations with wider words never construct
    words). *)

type t

(** Largest representable width, 62: the packed value must fit OCaml's
    63-bit native int. *)
val max_width : int

val width : t -> int

(** Constructors raise [Invalid_argument] when the width is negative
    or exceeds {!max_width}. *)
val zero : int -> t

val ones : int -> t
val of_bits : bool array -> t

(** [init n f] is the word whose bit [i] is [f i].  [f] is called in
    increasing bit order 0..n-1. *)
val init : int -> (int -> bool) -> t

(** Low [width] bits of an integer, bit 0 = LSB. *)
val of_int : width:int -> int -> t

(** The packed value: bit [i] of the result is bit [i] of the word.
    Always non-negative and below [2^width]. *)
val to_int : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> t
(** functional update *)

val lnot_ : t -> t

(** Value equality.  @raise Invalid_argument on width mismatch — a
    width mismatch is a caller bug (the old implementation silently
    returned [false]). *)
val equal : t -> t -> bool

val to_bits : t -> bool array

(** Positions where the two words differ.
    @raise Invalid_argument on width mismatch. *)
val diff : t -> t -> int list

(** "0101..." with bit 0 printed first. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
