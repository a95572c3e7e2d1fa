(** A minimal deterministic JSON representation, shared by the campaign
    reports and the telemetry exporters.

    Serialization is fully deterministic: object fields are emitted in
    the order given, floats through a fixed ["%.9g"] format (integral
    values as ["%.1f"]), so the same value always produces the same
    bytes — the property the campaign's replay discipline and the
    diffable telemetry artifacts both rely on.

    {!of_string} is a strict parser for the same grammar, and the
    decoders below are the one vocabulary every reader of a JSON file
    (checkpoints, cache entries, event logs, bench files, the
    validators) is written in: total functions returning [result],
    never an exception. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact single-line rendering. *)
val to_string : t -> string

(** Two-space-indented rendering, trailing newline (the CLI output). *)
val to_pretty_string : t -> string

(** Strict parse of a complete JSON document.  Numbers without a
    fraction or exponent parse as [Int] (falling back to [Float] when
    they overflow); [\u] escapes are decoded to UTF-8, including
    surrogate pairs.  [Error] carries a message with a byte offset. *)
val of_string : string -> (t, string) result

(** [member k j] is the value of field [k] when [j] is an [Obj] that
    has one, [None] otherwise. *)
val member : string -> t -> t option

(** {1 Decoding} *)

(** A decoder turns a value into an ['a] or a message saying why not. *)
type 'a decoder = t -> ('a, string) result

(** [field k dec] decodes field [k] of an object with [dec] (the first
    occurrence, when a key repeats).  A missing key, a non-object, or a
    [dec] error (prefixed with the key) is an [Error].  [field k
    Result.ok] takes the raw value. *)
val field : string -> 'a decoder -> 'a decoder

val int : int decoder
val string : string decoder
val bool : bool decoder

(** The fields of an [Obj], in order. *)
val obj : (string * t) list decoder

(** An [Int] or a [Float], as a float. *)
val number : float decoder

(** Every element through the decoder, or the first error. *)
val list : 'a decoder -> 'a list decoder

(** [closed keys j] is [Ok ()] when [j] is an object whose every key is
    in [keys] — the check for readers that reject unknown keys. *)
val closed : string list -> unit decoder

(** The whole file's bytes; an unreadable or missing file is [Error]
    with the system's message. *)
val read_file : string -> (string, string) result
