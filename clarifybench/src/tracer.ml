(* In-memory spans recorded by the benchmark around its calls into the
   program's public functions. Spans carry a parent and a request id;
   [self_times] subtracts the part of a span that its children cover.

   Recording is off by default, so the timed run pays one branch per
   call. Worker domains may record too (the fleet's routers): the store
   is mutex-guarded and a task passes its parent explicitly, since a
   worker domain has no open span of its own. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for a root *)
  request : int;
  start : float;
  stop : float;
}

let on = ref false
let next_id = Atomic.make 0
let store_mu = Mutex.create ()
let store : span list ref = ref []
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let request : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let reset () =
  Mutex.lock store_mu;
  store := [];
  Mutex.unlock store_mu

let enable () = on := true
let disable () = on := false
let current_span () = Domain.DLS.get current

let record s =
  Mutex.lock store_mu;
  store := s :: !store;
  Mutex.unlock store_mu

let span ?parent name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = Domain.DLS.get current in
    let parent = Option.value parent ~default:saved in
    Domain.DLS.set current id;
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      Domain.DLS.set current saved;
      record
        { id; name; parent; request = Domain.DLS.get request; start; stop }
    in
    Fun.protect ~finally:finish f
  end

let with_request id f =
  let saved = Domain.DLS.get request in
  Domain.DLS.set request id;
  Fun.protect ~finally:(fun () -> Domain.DLS.set request saved) f

let spans () =
  Mutex.lock store_mu;
  let l = List.rev !store in
  Mutex.unlock store_mu;
  l

let duration s = s.stop -. s.start

let named name spans =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total +. (cb -. ca), (a, b)) else (total, (ca, Float.max cb b)))
      (0., (lo, lo))
      clipped
  in
  total +. (snd last -. fst last)

(* Self time of every span: its duration minus the union of its
   children's intervals (children of a parallel map overlap). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* The layer of a span is its name up to the first dot. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Each layer's share of the self time in the subtrees rooted at spans
   named [root]. Shares sum to 1; under a parallel map they are shares
   of busy time across domains, not of wall time. *)
let self_by_layer ~root spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec under_root s =
    s.name = root
    ||
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> under_root p
    | None -> false
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if under_root s then
        let l = layer s.name in
        Hashtbl.replace tbl l
          (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.))
    (self_times spans);
  let total = Hashtbl.fold (fun _ t acc -> acc +. t) tbl 0. in
  Hashtbl.fold (fun l t acc -> (l, t /. total) :: acc) tbl [] |> List.sort compare

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"request\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.parent s.request s.start s.stop)
        spans)
