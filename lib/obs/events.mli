(** Structured, leveled run-event stream: the narrative counterpart of
    the {!Obs} registry.  Where counters answer "how many", events
    answer "what happened, when, in what order" — run and phase
    lifecycle, pool retries and deadline kills, chaos injections, cache
    hits/quarantines/reaps, checkpoint writes, estimator adaptive-batch
    decisions — as one JSONL line per event.

    Design invariants (mirroring {!Obs}):

    - {b Off by default, near-free when off.}  {!emit} starts with one
      [Atomic.get] and returns immediately when the stream is disabled
      or the event is below the minimum level.  Hot trial loops are
      never instrumented at trial granularity: emission sites are at
      unit/batch/lifecycle granularity, so the per-trial path is
      untouched whatever the switch says.
    - {b Wait-free when on.}  Each domain buffers into its own
      [Domain.DLS] shard (the registry {!Obs} records into too, with
      its own switch); the only lock is taken once per domain at
      shard registration.  Shards survive their domain, so a drain
      after a pool join sees every worker's events.
    - {b Deterministic payloads, nondeterministic interleaving.}  The
      (domain, name, fields) payload of every event is a pure function
      of the work item that emitted it; only the [ts_ns]/[tid]/[seq]
      envelope depends on scheduling.  Dropping the envelope therefore
      yields a jobs-invariant multiset (gated in [test/test_events.ml]).
    - {b Events never touch reports.}  Nothing here is reachable from
      report serialization; campaign/explore reports are byte-identical
      with events on or off. *)

type level = Shard.level = Debug | Info | Warn

val level_to_string : level -> string
val level_of_string : string -> (level, string) result

(** Per-line schema tag carried by every serialized event. *)
val schema : string

type event = Shard.event = {
  ev_seq : int;  (** per-shard emission sequence number *)
  ev_tid : int;  (** shard id — one per emitting domain *)
  ev_ts_ns : int64;  (** {!Bisram_parallel.Clock.now_ns} at emission *)
  ev_level : level;
  ev_domain : string;  (** subsystem: "campaign", "pool", "cache", ... *)
  ev_name : string;  (** event kind, e.g. "run.start", "pool.retry" *)
  ev_fields : (string * Json.t) list;  (** structured payload, in order *)
}

(** Whether the stream is recording.  Off by default. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Minimum recorded level (default [Info]; set [Debug] to also keep
    per-point cache hit/miss and per-batch lane events). *)
val min_level : unit -> level

val set_min_level : level -> unit

(** [would_log lvl] is true when an {!emit} at [lvl] would record —
    the guard to use before building an expensive field list. *)
val would_log : level -> bool

(** Drop all buffered events in every shard and restart sequence
    numbering (the shards themselves stay registered). *)
val reset : unit -> unit

(** [emit ?level ~domain name fields] buffers one event in the calling
    domain's shard.  No-op when disabled or below {!min_level}.
    [level] defaults to [Info]. *)
val emit : ?level:level -> domain:string -> string -> (string * Json.t) list -> unit

(** Destructively collect every buffered event from every shard, merged
    and sorted by [(ts_ns, tid, seq)].  Take drains only while no
    instrumented code runs concurrently. *)
val drain : unit -> event list

(** One JSONL object: [{"schema":…,"seq":…,"tid":…,"ts_ns":…,
    "level":…,"domain":…,"name":…,"fields":{…}}]. *)
val to_json : event -> Json.t

(** Strict inverse of {!to_json}: every envelope key required with the
    right type, schema tag checked, unknown keys rejected. *)
val of_json : Json.t -> (event, string) result

(** Strict parse of one JSONL line ({!Json.of_string} + {!of_json}). *)
val parse_line : string -> (event, string) result

(** Write events one compact JSON object per line. *)
val write_jsonl : out_channel -> event list -> unit
