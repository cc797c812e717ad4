(** Network topologies: eBGP routers, sessions, originated prefixes and
    per-neighbor import/export route-map chains. *)

type neighbor = {
  peer : string; (* remote router name *)
  import : string list; (* route-map chain applied to received routes *)
  export : string list; (* route-map chain applied to advertised routes *)
}

type router = {
  name : string;
  asn : int;
  router_ip : Netaddr.Ipv4.t; (* advertised as next-hop *)
  originated : Netaddr.Prefix.t list;
  neighbors : neighbor list;
  config : Config.Database.t; (* this router's lists and route-maps *)
}

type t = { routers : router list }

exception Invalid_topology of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_topology s)) fmt

let router ?(originated = []) ?(neighbors = [])
    ?(config = Config.Database.empty) ~asn ~router_ip name =
  { name; asn; router_ip; originated; neighbors; config }

let neighbor ?(import = []) ?(export = []) peer = { peer; import; export }

(* Linear in the number of sessions: names and sessions are looked up
   in hash tables. *)
let make routers =
  let by_name = Hashtbl.create (List.length routers) in
  List.iter
    (fun r ->
      if Hashtbl.mem by_name r.name then fail "duplicate router name";
      Hashtbl.add by_name r.name ())
    routers;
  (* One session per (router, peer): a peer listed twice would make two. *)
  let sessions = Hashtbl.create (List.length routers) in
  List.iter
    (fun r ->
      List.iter
        (fun nb ->
          if Hashtbl.mem sessions (r.name, nb.peer) then
            fail "router %s lists neighbor %s twice" r.name nb.peer;
          Hashtbl.add sessions (r.name, nb.peer) ())
        r.neighbors)
    routers;
  List.iter
    (fun r ->
      List.iter
        (fun nb ->
          if not (Hashtbl.mem by_name nb.peer) then
            fail "router %s has unknown neighbor %s" r.name nb.peer;
          (* Sessions must be bidirectional. *)
          if not (Hashtbl.mem sessions (nb.peer, r.name)) then
            fail "session %s -> %s is not bidirectional" r.name nb.peer;
          (* Referenced route-maps must exist on this router. *)
          List.iter
            (fun m ->
              if Config.Database.route_map r.config m = None then
                fail "router %s references undefined route-map %s" r.name m)
            (nb.import @ nb.export))
        r.neighbors)
    routers;
  { routers }

let find t name =
  match List.find_opt (fun r -> r.name = name) t.routers with
  | Some r -> r
  | None -> fail "no router named %s" name

let router_names t = List.map (fun r -> r.name) t.routers

(** Replace the configurations of the named routers (e.g. after
    incremental updates synthesized new route-maps), in one pass. *)
let with_configs t configs =
  let table = Hashtbl.create (List.length configs) in
  List.iter (fun (name, config) -> Hashtbl.replace table name config) configs;
  {
    routers =
      List.map
        (fun r ->
          match Hashtbl.find_opt table r.name with
          | Some config -> { r with config }
          | None -> r)
        t.routers;
  }

let with_router t (r : router) =
  { routers = List.map (fun x -> if x.name = r.name then r else x) t.routers }

let pp fmt t =
  List.iter
    (fun r ->
      Format.fprintf fmt "@[<v>router %s (AS %d, %a)@ " r.name r.asn
        Netaddr.Ipv4.pp r.router_ip;
      List.iter
        (fun p -> Format.fprintf fmt " network %a@ " Netaddr.Prefix.pp p)
        r.originated;
      List.iter
        (fun nb ->
          Format.fprintf fmt " neighbor %s import [%s] export [%s]@ " nb.peer
            (String.concat "," nb.import)
            (String.concat "," nb.export))
        r.neighbors;
      Format.fprintf fmt "@]@.")
    t.routers
