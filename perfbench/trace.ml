(* In-memory span recorder for the traced run.

   A span has a name, start and end stamps (monotonic ns), its parent
   span and a request id (the trial index or lattice point it works
   for, inherited from the parent when not given).  Spans are only
   buffered while recording; [summary] turns them into per-name self
   times once the traced region is over. *)

module Clock = Bisram_parallel.Clock

type span = {
  name : string;
  req : int;
  parent : int;  (** index of the enclosing span; -1 at top level *)
  t0 : int;
  mutable t1 : int;  (** -1 while open *)
}

let now () = Int64.to_int (Clock.now_ns ())
let buf = ref [||]
let len = ref 0
let stack = ref []

let reset () =
  buf := [||];
  len := 0;
  stack := []

let push s =
  if !len = Array.length !buf then begin
    let grown = Array.make (max 1024 (2 * !len)) s in
    Array.blit !buf 0 grown 0 !len;
    buf := grown
  end;
  !buf.(!len) <- s;
  incr len

let span ?req name f =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let req =
    match req with
    | Some r -> r
    | None -> if parent >= 0 then !buf.(parent).req else -1
  in
  let id = !len in
  push { name; req; parent; t0 = now (); t1 = -1 };
  stack := id :: !stack;
  let close () =
    !buf.(id).t1 <- now ();
    stack := List.tl !stack
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

type summary = {
  self_ns : (string * int) list;  (** per span name, sorted by name *)
  top_ns : int;  (** summed duration of the top-level spans *)
  well_formed : bool;
      (** every span closed, inside its parent, with self time >= 0 *)
}

let summary () =
  let n = !len and b = !buf in
  let child = Array.make n 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    let s = b.(i) in
    if s.t1 < s.t0 then ok := false;
    if s.parent >= 0 then begin
      let p = b.(s.parent) in
      if s.t0 < p.t0 || s.t1 > p.t1 then ok := false;
      child.(s.parent) <- child.(s.parent) + (s.t1 - s.t0)
    end
  done;
  let self = Hashtbl.create 32 and top = ref 0 in
  for i = 0 to n - 1 do
    let s = b.(i) in
    let d = s.t1 - s.t0 in
    if s.parent < 0 then top := !top + d;
    let own = d - child.(i) in
    if own < 0 then ok := false;
    Hashtbl.replace self s.name
      (own + Option.value ~default:0 (Hashtbl.find_opt self s.name))
  done;
  { self_ns =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])
  ; top_ns = !top
  ; well_formed = !ok && !stack = []
  }

(* Per-layer self times of the recorded spans, and the rest of [wall]
   (ns): the time outside every top-level span plus the self time of
   the spans not named in [layers] (the benchmark's own glue).  The flag
   holds when the spans are well formed and layers plus rest add up to
   [wall] exactly. *)
let account ~wall ~layers =
  let sm = summary () in
  let self n = Option.value ~default:0 (List.assoc_opt n sm.self_ns) in
  let layer_ns = List.map (fun n -> (n, self n)) layers in
  let glue =
    List.fold_left
      (fun acc (n, ns) -> if List.mem n layers then acc else acc + ns)
      0 sm.self_ns
  in
  let rest = wall - sm.top_ns + glue in
  let total = List.fold_left (fun acc (_, ns) -> acc + ns) rest layer_ns in
  (layer_ns, rest, sm.well_formed && sm.top_ns <= wall && total = wall)
