(** Telemetry registry: named monotonic counters, log-bucketed
    histograms and lightweight phase spans, sharded per domain.

    Design invariants:

    - {b Off by default, near-free when off.}  Every recording
      entry point starts with an [Atomic.get] on the global switch and
      returns immediately when telemetry is disabled ({!span} and
      {!time} run their thunk directly).  Instrumented hot paths only
      pay that single load.
    - {b Wait-free when on.}  Each domain records into its own shard
      (a [Domain.DLS] slot, shared with {!Events}, which keeps its own
      switch), so workers never contend on counters,
      histograms or span buffers.  The only lock is taken once per
      domain, when its shard registers itself.
    - {b Deterministic merge.}  {!snapshot} sums counters and histogram
      buckets across shards — integer sums, so the result is
      independent of shard registration order and of how work was
      scheduled across domains.  Counters and histograms fed
      deterministic values are therefore byte-identical across [jobs]
      counts; see the jobs-determinism property in [test/test_obs.ml].
    - {b Telemetry never touches reports.}  Nothing in this module is
      reachable from {!Bisram_campaign.Campaign.to_json}; campaign
      reports stay byte-identical with telemetry on or off.

    Shards survive their domain (the global list keeps them alive), so
    a snapshot taken after a {!Bisram_parallel.Pool.map} join sees the
    workers' full contribution.  Take snapshots only while no
    instrumented code is running concurrently. *)

(** Whether telemetry is recording.  Off by default. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Drop all recorded data in every shard (the shards themselves stay
    registered).  Call before a run whose telemetry should stand
    alone. *)
val reset : unit -> unit

(** [add name v] bumps the counter [name] by [v] in the calling
    domain's shard.  No-op when disabled. *)
val add : string -> int -> unit

(** [incr name] = [add name 1]. *)
val incr : string -> unit

(** [observe name v] records [v] into the log-bucketed histogram
    [name]: bucket [k] counts values in [[2^k, 2^(k+1))] (values [<= 1]
    land in bucket 0).  Count, sum, min and max are tracked exactly.
    No-op when disabled. *)
val observe : string -> int -> unit

(** [span ~cat ~arg name f] runs [f] and, when enabled, records a
    timed span (entry stamp and duration from
    {!Bisram_parallel.Clock.now_ns}) in the calling domain's shard —
    also when [f] raises.  [cat] (default ["span"]) and the optional
    integer [arg] annotate the Chrome-trace event.  When disabled this
    is exactly [f ()]. *)
val span : ?cat:string -> ?arg:string * int -> string -> (unit -> 'a) -> 'a

(** [time name f] runs [f] and records its duration in nanoseconds
    into the histogram [name] (also when [f] raises).  When disabled
    this is exactly [f ()]. *)
val time : string -> (unit -> 'a) -> 'a

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
      (** (bucket exponent, count) for non-empty buckets, ascending *)
}

type span_snapshot = {
  name : string;
  cat : string;
  arg : (string * int) option;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;  (** shard id — one per recording domain *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  hists : (string * hist_snapshot) list;  (** sorted by name *)
  spans : span_snapshot list;  (** sorted by (ts, tid, name) *)
}

(** Merge every shard into one deterministic view (stable key order,
    order-independent sums). *)
val snapshot : unit -> snapshot
