(** RAM organization: the user-visible circuit parameters of BISRAMGEN.

    A wide-word RAM with column-multiplexed addressing stores [words]
    words of [bpw] bits.  Each physical column stores [bpc] bits
    (column multiplexing degree); a row therefore holds [bpc] words and
    the array has [words/bpc] regular rows plus [spares] spare rows.
    An address splits into a row field (high bits) and a column field
    (the low [log2 bpc] bits). *)

type t = private {
  words : int;  (** number of addressable words; multiple of bpc *)
  bpw : int;  (** bits per word; power of two *)
  bpc : int;  (** bits per column; power of two *)
  spares : int;  (** spare rows: 0, 4, 8 or 16 *)
  spare_cols : int;  (** spare columns (2D BIRA): 0 .. 8 *)
}

(** @raise Invalid_argument when constraints are violated.  [spares]
    defaults to 4, [spare_cols] to 0 (the paper's row-only scheme). *)
val make :
  ?spares:int -> ?spare_cols:int -> words:int -> bpw:int -> bpc:int ->
  unit -> t

val rows : t -> int
(** regular rows = words / bpc *)

val total_rows : t -> int
(** regular + spare rows *)

val cols : t -> int
(** regular physical columns per row = bpw * bpc *)

val total_cols : t -> int
(** regular + spare physical columns — the full row stride of the
    simulated array.  Equal to {!cols} when [spare_cols = 0]. *)

val bits : t -> int
(** regular capacity in bits = words * bpw *)

val kilobits : t -> float

val spare_words : t -> int
(** spares * bpc — the redundancy the TLB can deploy *)

(** Address decomposition.  @raise Invalid_argument when out of range. *)
val row_of_addr : t -> int -> int

val col_of_addr : t -> int -> int
val addr_of : t -> row:int -> col:int -> int

(** Physical column of bit [bit] of the word at column-mux position
    [col]: the array interleaves the [bpw] I/O subarrays, so bit [i]
    of mux position [c] sits at column [i*bpc + c]. *)
val cell_col : t -> col:int -> bit:int -> int

(** Whether the behavioural simulator accepts this organization:
    [bpw <= Word.max_width] (62).  Layout/area/timing flows carry no
    such bound — the paper's Fig. 6/7 modules (bpw = 128/256) compile
    but are never word-simulated.  {!Model.create} enforces this. *)
val simulable : t -> bool

(** [log2i n] is floor(log2 n) for [n >= 1] (0 for [n <= 1]). *)
val log2i : int -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
