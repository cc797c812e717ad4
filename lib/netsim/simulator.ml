(** Synchronous BGP propagation to fixpoint: eBGP between ASes, iBGP
    full-mesh semantics within an AS.

    Each round every router advertises, for every prefix, its current
    best route to each neighbor through its export chain (prepending its
    ASN and rewriting the next hop); receivers run their import chain,
    drop loops, and re-select best paths. Rounds repeat until no RIB
    changes. Decision order: highest weight, highest local preference,
    shortest AS path, lowest origin (IGP < EGP < incomplete), lowest
    MED, lowest sender name.

    The rounds are computed by delta propagation over an
    array-indexed topology: an offer is a pure function of the sender's
    best route, so a round re-offers only the (router, prefix) pairs
    whose best route changed in the round before, and each receiver
    keeps the latest offer of every incoming session in a slot (DESIGN.md
    §17). *)

type rib_entry = {
  route : Bgp.Route.t;
  learned_from : string option; (* None = locally originated *)
}

module Smap = Map.Make (String)
module Pmap = Map.Make (struct
  type t = Netaddr.Prefix.t

  let compare = Netaddr.Prefix.compare
end)

type state = {
  topology : Topology.t;
  ribs : rib_entry Pmap.t Smap.t; (* router -> prefix -> best *)
  rounds : int; (* rounds to convergence *)
  converged : bool;
}

(* A session as its sender sees it. [slot] is the session's place among
   the receiver's incoming sessions; [import] is the receiver's chain
   for it. *)
type session = { recv : int; slot : int; import : Config.Route_map.t list }

(* A sender's sessions that share an export chain and an iBGP flag:
   the export chain runs once for all of them. *)
type group = {
  export : Config.Route_map.t list;
  ibgp : bool;
  members : session list;
}

(* The empty offer slot and the empty RIB cell, told apart by physical
   equality. *)
let none = Bgp.Route.make Netaddr.Prefix.default

let origin_rank = function
  | Bgp.Route.Igp -> 0
  | Bgp.Route.Egp -> 1
  | Bgp.Route.Incomplete -> 2

(* true when route [ra] from the router ranked [fa] is strictly
   preferred over [rb] from [fb]; routers rank in name order. *)
let better (ra : Bgp.Route.t) fa (rb : Bgp.Route.t) fb =
  if ra.weight <> rb.weight then ra.weight > rb.weight
  else if ra.local_pref <> rb.local_pref then ra.local_pref > rb.local_pref
  else
    let la = List.length ra.as_path and lb = List.length rb.as_path in
    if la <> lb then la < lb
    else
      let oa = origin_rank ra.origin and ob = origin_rank rb.origin in
      if oa <> ob then oa < ob
      else if ra.metric <> rb.metric then ra.metric < rb.metric
      else fa < fb

let default_max_rounds = 64

let run ?(max_rounds = default_max_rounds) (t : Topology.t) =
  (* Index once: routers by position, prefixes by first origination. *)
  let routers = Array.of_list t.routers in
  let n = Array.length routers in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i (r : Topology.router) ->
      if not (Hashtbl.mem index r.name) then Hashtbl.add index r.name i)
    routers;
  let find name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None -> raise (Topology.Invalid_topology ("no router named " ^ name))
  in
  let asn = Array.map (fun (r : Topology.router) -> r.asn) routers in
  let rank = Array.make n 0 in
  List.iteri
    (fun k i -> rank.(i) <- k)
    (List.sort
       (fun i j -> String.compare routers.(i).name routers.(j).name)
       (List.init n Fun.id));
  let pindex, np =
    Array.fold_left
      (fun acc (r : Topology.router) ->
        List.fold_left
          (fun (m, k) p ->
            if Pmap.mem p m then (m, k) else (Pmap.add p k m, k + 1))
          acc r.originated)
      (Pmap.empty, 0) routers
  in
  (* Sessions in (sender, neighbor) order; a receiver's slots follow the
     same order, which is the old fold order of its offers. [senders]
     maps each receiver's slot back to its sender. *)
  let senders = Array.make n [] in
  let groups =
    Array.mapi
      (fun s (sender : Topology.router) ->
        let add gs (out : Topology.neighbor) =
          let recv = find out.peer in
          let receiver = routers.(recv) in
          match
            List.find_opt
              (fun (nb : Topology.neighbor) -> nb.peer = sender.name)
              receiver.neighbors
          with
          | None -> gs
          | Some inb -> (
              let import =
                List.filter_map
                  (Config.Database.route_map receiver.config)
                  inb.import
              in
              let m = { recv; slot = List.length senders.(recv); import } in
              senders.(recv) <- s :: senders.(recv);
              let key = (out.export, asn.(s) = asn.(recv)) in
              match List.assoc_opt key gs with
              | Some members ->
                  members := m :: !members;
                  gs
              | None -> (key, ref [ m ]) :: gs)
        in
        List.map
          (fun ((export, ibgp), members) ->
            {
              export =
                List.filter_map
                  (Config.Database.route_map sender.config)
                  export;
              ibgp;
              members = !members;
            })
          (List.fold_left add [] sender.neighbors))
      routers
  in
  let senders = Array.map (fun l -> Array.of_list (List.rev l)) senders in
  (* Flat (router, prefix) tables, indexed [router * np + prefix]: the
     best route and its sender (-1 when originated), the offer slots,
     and the round in which a slot last changed. *)
  let best = Array.make (n * np) none in
  let from = Array.make (n * np) (-1) in
  let local = Array.make (n * np) false in
  let slots = Array.make (n * np) [||] in
  let mark = Array.make (n * np) 0 in
  let frontier = ref [] in
  Array.iteri
    (fun r (router : Topology.router) ->
      List.iter
        (fun p ->
          let i = (r * np) + Pmap.find p pindex in
          if not local.(i) then frontier := i :: !frontier;
          local.(i) <- true;
          best.(i) <-
            Bgp.Route.make ~as_path:[] ~local_pref:100
              ~next_hop:router.router_ip p)
        router.originated)
    routers;
  (* Advertise best route [i] of sender [s] for prefix [p] over group
     [g]: export chain, AS prepend and next-hop rewrite once, then each
     member's loop check and import chain into its slot.

     A session between routers of the same ASN is iBGP: the AS path is
     not prepended, local preference is propagated, and routes learned
     from an iBGP peer are not re-advertised to other iBGP peers — the
     classic full-mesh requirement. Split horizon: never back to the
     router the route was learned from. *)
  let offer ~round ~dirty s p i g =
    let sender = routers.(s) and e = best.(i) and f = from.(i) in
    let sent =
      if e == none || (g.ibgp && f >= 0 && asn.(f) = asn.(s)) then none
      else
        match Config.Semantics.eval_chain sender.config g.export e with
        | Config.Semantics.Reject -> none
        | Config.Semantics.Accept r when g.ibgp ->
            { r with Bgp.Route.next_hop = sender.router_ip; weight = 0 }
        | Config.Semantics.Accept r ->
            {
              (Bgp.Route.prepend_as_path r [ asn.(s) ]) with
              Bgp.Route.next_hop = sender.router_ip;
              (* local pref and weight are not transitive across eBGP *)
              local_pref = 100;
              weight = 0;
            }
    in
    List.iter
      (fun m ->
        let j = (m.recv * np) + p in
        if not local.(j) then begin
          let o =
            if sent == none || f = m.recv || List.mem asn.(m.recv) sent.as_path
            then none
            else
              match
                Config.Semantics.eval_chain routers.(m.recv).config m.import
                  sent
              with
              | Config.Semantics.Reject -> none
              | Config.Semantics.Accept route -> route
          in
          if o != none && Array.length slots.(j) = 0 then
            slots.(j) <- Array.make (Array.length senders.(m.recv)) none;
          let sl = slots.(j) in
          let old = if Array.length sl = 0 then none else sl.(m.slot) in
          if o != old && (o == none || old == none || o <> old) then begin
            sl.(m.slot) <- o;
            if mark.(j) <> round then (
              mark.(j) <- round;
              dirty := j :: !dirty)
          end
        end)
      g.members
  in
  (* Each round: every offer from the previous round's RIBs first, then
     re-selection where a slot changed, keeping the first strictly best
     offer in slot order. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    incr rounds;
    let round = !rounds and dirty = ref [] in
    List.iter
      (fun i ->
        let s = i / np and p = i mod np in
        List.iter (offer ~round ~dirty s p i) groups.(s))
      !frontier;
    frontier := [];
    List.iter
      (fun j ->
        let sl = slots.(j) and ss = senders.(j / np) in
        let b = ref (-1) in
        Array.iteri
          (fun k o ->
            if
              o != none
              && (!b < 0 || better o rank.(ss.(k)) sl.(!b) rank.(ss.(!b)))
            then b := k)
          sl;
        let route = if !b < 0 then none else sl.(!b)
        and f = if !b < 0 then -1 else ss.(!b) in
        if f <> from.(j) || not (route == best.(j) || route = best.(j))
        then (
          best.(j) <- route;
          from.(j) <- f;
          frontier := j :: !frontier))
      !dirty;
    changed := !frontier <> []
  done;
  let ribs = ref Smap.empty in
  Array.iteri
    (fun r (router : Topology.router) ->
      let entry p =
        let i = (r * np) + p in
        if best.(i) == none then None
        else
          let learned_from =
            if from.(i) < 0 then None else Some routers.(from.(i)).name
          in
          Some { route = best.(i); learned_from }
      in
      let rib = Pmap.filter_map (fun _ -> entry) pindex in
      ribs := Smap.add router.name rib !ribs)
    routers;
  { topology = t; ribs = !ribs; rounds = !rounds; converged = not !changed }

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let rib state router =
  match Smap.find_opt router state.ribs with
  | Some r -> Pmap.bindings r
  | None -> raise (Topology.Invalid_topology ("no router named " ^ router))

let lookup state ~router ~prefix =
  Option.bind (Smap.find_opt router state.ribs) (Pmap.find_opt prefix)

(** Does [router] have any route covering [prefix] (exact entry)? *)
let reaches state ~router ~prefix = lookup state ~router ~prefix <> None

let pp_rib fmt state router =
  List.iter
    (fun (p, e) ->
      Format.fprintf fmt "%-20s via %-8s path [%s] lp %d med %d@."
        (Netaddr.Prefix.to_string p)
        (match e.learned_from with Some n -> n | None -> "local")
        (String.concat " " (List.map string_of_int e.route.Bgp.Route.as_path))
        e.route.Bgp.Route.local_pref e.route.Bgp.Route.metric)
    (rib state router)
