(* The per-domain shard registry behind [Obs] and [Events]: one
   [Domain.DLS] key, one mutex, one shard list.  A domain's shard is
   created and registered (the only lock on a recording path) at its
   first use, and outlives its domain, so a snapshot or drain after a
   pool join sees every worker's data.  Each recorder keeps its own
   fields and touches no other; the two enable switches stay separate
   (see Obs and Events). *)

(* Obs: histogram, index k counts values in [2^k, 2^(k+1)) *)
type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

type span_ev = {
  sp_name : string;
  sp_cat : string;
  sp_arg : (string * int) option;
  sp_ts : int64;  (* Clock.now_ns at entry *)
  sp_dur : int64;
  sp_shard : int;
}

(* Events *)
type level = Debug | Info | Warn

type event = {
  ev_seq : int;
  ev_tid : int;
  ev_ts_ns : int64;
  ev_level : level;
  ev_domain : string;
  ev_name : string;
  ev_fields : (string * Json.t) list;
}

type t = {
  sh_id : int;
  sh_counters : (string, int ref) Hashtbl.t;  (* Obs *)
  sh_hists : (string, hist) Hashtbl.t;  (* Obs *)
  mutable sh_spans : span_ev list;  (* Obs *)
  mutable sh_seq : int;  (* Events *)
  mutable sh_events : event list;  (* Events, newest first *)
}

let mu = Mutex.create ()
let all_shards : t list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock mu;
      let s =
        { sh_id = List.length !all_shards
        ; sh_counters = Hashtbl.create 32
        ; sh_hists = Hashtbl.create 16
        ; sh_spans = []
        ; sh_seq = 0
        ; sh_events = []
        }
      in
      all_shards := s :: !all_shards;
      Mutex.unlock mu;
      s)

let get () = Domain.DLS.get key

(* [f] applied to every registered shard, under the registry lock *)
let with_all f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () -> f !all_shards)
