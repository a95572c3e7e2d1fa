(** March-test notation.

    A march test is a sequence of march elements; each element applies a
    fixed sequence of operations to every address, in ascending ([Up]),
    descending ([Down]) or arbitrary ([Either]) address order.  An
    operation reads or writes the current data background [b] or its
    complement.  [Wait] elements model the data-retention pause of
    IFA-class tests (the embedded processor tristates the RAM for
    ~100 ms).

    ASCII surface syntax (parsed by {!of_string}, printed by
    {!to_string}):
    {v u(w0); u(r0,w1); d(r1,w0); D; u(r1) v}
    where [u]/[d]/[a] select the order, [w0]/[r1] etc. refer to the
    background ([0]) or its complement ([1]) and [D] is a wait. *)

type order = Up | Down | Either

type op =
  | W of bool  (** write background ([false]) or complement ([true]) *)
  | R of bool  (** read and compare against background or complement *)

type element = { order : order; ops : op list }
type item = Elem of element | Wait
type t = { name : string; items : item list }

val make : name:string -> item list -> t

(** Number of operations applied per address over the whole test (the
    "xN" complexity figure; waits count 0). *)
val ops_per_address : t -> int

(** Number of read operations per address. *)
val reads_per_address : t -> int

(** Whether the test contains a retention wait. *)
val has_retention : t -> bool

(** [iter_addresses n order f] applies [f] to addresses [0 .. n-1] in
    [order]; [Either] runs ascending. *)
val iter_addresses : int -> order -> (int -> unit) -> unit

(** [op_table ops ~bg ~bg_compl] resolves an element's ops against one
    background: element [i] of the first array tells whether op [i]
    writes, element [i] of the second is its datum ([bg], or
    [bg_compl] for a complemented op).  The march engines run their
    address loops over these flat arrays. *)
val op_table : op list -> bg:'a -> bg_compl:'a -> bool array * 'a array

val to_string : t -> string

(** Parse the ASCII notation. @raise Invalid_argument on syntax error. *)
val of_string : name:string -> string -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
