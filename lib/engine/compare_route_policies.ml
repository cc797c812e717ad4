(** Behavioural diff of two route-maps — the analogue of Batfish's
    [compareRoutePolicies].

    The two maps may live in different databases (e.g. two candidate
    insertions of a synthesized stanza, each carrying freshly named
    ancillary lists). Differences are reported as concrete input routes
    together with both outcomes. *)

open Symbdd
module Ctx = Symbolic.Route_ctx

type difference = {
  route : Bgp.Route.t;
  result_a : Config.Semantics.route_result;
  result_b : Config.Semantics.route_result;
  stanza_a : int option; (* seq of the handling stanza, None = implicit *)
  stanza_b : int option;
}

(* Apply a canonical community pipeline to a concrete community set. *)
let apply_comm_op db op cs =
  match op with
  | Config.Transform.Comm_id -> List.sort_uniq Bgp.Community.compare cs
  | Config.Transform.Comm_const s -> s
  | Config.Transform.Comm_update { delete; add } ->
      let survives c =
        not
          (List.exists
             (fun name ->
               match Config.Database.community_list db name with
               | Some cl -> Config.Community_list.matches cl [ c ]
               | None -> false)
             delete)
      in
      List.sort_uniq Bgp.Community.compare (add @ List.filter survives cs)

(* Community sets (as subsets of the universe) on which the two
   pipelines produce different outputs: candidates are the empty set,
   every singleton, and the full universe. *)
let separating_sets ctx ~db_a ~db_b op_a op_b =
  let universe = Array.to_list ctx.Ctx.comm_universe in
  let candidates =
    ([] :: List.map (fun u -> [ u ]) universe) @ [ universe ]
  in
  List.filter
    (fun s -> apply_comm_op db_a op_a s <> apply_comm_op db_b op_b s)
    candidates

(* Force a route whose community set is exactly [s]. *)
let route_with_comms ctx region s =
  let cube =
    Bdd.conj_list
      (List.mapi
         (fun i u ->
           if List.exists (Bgp.Community.equal u) s then
             Bdd.var (Ctx.atom_base + i)
           else Bdd.nvar (Ctx.atom_base + i))
         (Array.to_list ctx.Ctx.comm_universe))
  in
  Ctx.to_route ctx (Bdd.conj region cube)

(* Pick an example route from a region, preferring one that exposes
   community-transform differences when the two pipelines differ. *)
let sample_route ctx ~db_a ~db_b op_a op_b region =
  let targeted =
    if Config.Transform.comm_op_equal db_a db_b op_a op_b then None
    else
      List.find_map
        (fun s -> route_with_comms ctx region s)
        (separating_sets ctx ~db_a ~db_b op_a op_b)
  in
  match targeted with Some r -> Some r | None -> Ctx.to_route ctx region

let concrete_results ~db_a ~db_b rm_a rm_b route =
  ( Config.Semantics.eval_route_map db_a rm_a route,
    Config.Semantics.eval_route_map db_b rm_b route )

(* Can two outcomes (action, set clauses) treat some route
   differently? Two denies never can, two permits only through their
   transforms. When they can, the two community pipelines to sample
   against. *)
let may_differ ~db_a ~db_b (action_a, sets_a) (action_b, sets_b) =
  match (action_a, action_b) with
  | Config.Action.Deny, Config.Action.Deny -> None
  | _ ->
      let t_a = Config.Transform.of_sets db_a sets_a
      and t_b = Config.Transform.of_sets db_b sets_b in
      if
        action_a = Config.Action.Permit
        && action_b = Config.Action.Permit
        && Config.Transform.equal ~db1:db_a ~db2:db_b t_a t_b
      then None
      else Some (t_a.communities, t_b.communities)

(* A route of [region ()] on which two outcomes really differ: screened
   by [may_differ], sampled to expose community-transform differences,
   and confirmed by the concrete [replay] of both policies. The region
   is only built once the screen passes. *)
let differing_route ctx ~db_a ~db_b out_a out_b region replay =
  match may_differ ~db_a ~db_b out_a out_b with
  | None -> None
  | Some (op_a, op_b) -> (
      match sample_route ctx ~db_a ~db_b op_a op_b (region ()) with
      | None -> None
      | Some route ->
          let result_a, result_b = replay route in
          if Config.Semantics.route_result_equal result_a result_b then None
          else Some (route, result_a, result_b))

(** All behavioural differences, one example per differing pair of
    execution cells, capped at [limit]. Reaching the cap exits the cell
    product immediately, so [first_difference] stops at the first
    differing pair instead of scanning the remaining O(n²) cells. *)
let compare ?(limit = max_int) ~db_a ~db_b (rm_a : Config.Route_map.t)
    (rm_b : Config.Route_map.t) =
  Obs.Counter.incr Metrics.compare_route_policies_calls;
  let ctx = Ctx.create [ (db_a, [ rm_a ]); (db_b, [ rm_b ]) ] in
  let cells_a = Ctx.exec ctx db_a rm_a in
  let cells_b = Ctx.exec ctx db_b rm_b in
  let differences = ref [] in
  let count = ref 0 in
  (try
     List.iter
       (fun (ca : Ctx.cell) ->
         List.iter
           (fun (cb : Ctx.cell) ->
             if !count >= limit then raise_notrace Exit;
             match
               differing_route ctx ~db_a ~db_b (ca.action, ca.sets)
                 (cb.action, cb.sets)
                 (fun () -> Bdd.conj ca.guard cb.guard)
                 (concrete_results ~db_a ~db_b rm_a rm_b)
             with
             | None -> ()
             | Some (route, result_a, result_b) ->
                 differences :=
                   {
                     route;
                     result_a;
                     result_b;
                     stanza_a = ca.stanza_seq;
                     stanza_b = cb.stanza_seq;
                   }
                   :: !differences;
                 incr count)
           cells_b)
       cells_a
   with Exit -> ());
  List.rev !differences

(** First behavioural difference, if any. *)
let first_difference ~db_a ~db_b rm_a rm_b =
  match compare ~limit:1 ~db_a ~db_b rm_a rm_b with
  | [] -> None
  | d :: _ -> Some d

let equal_behavior ~db_a ~db_b rm_a rm_b =
  first_difference ~db_a ~db_b rm_a rm_b = None

(* ------------------------------------------------------------------ *)
(* The route-map sweep family (DESIGN.md §11–§12).

   Inserting stanza S* at position i vs i+1 only reorders S* against
   stanza s_i, so the two maps can differ exactly on the routes that
   fall through stanzas 0..i-1 and match both S* and s_i: the region
   [cell_i.guard ∧ match(new)] of the target's first-match partition.
   The screening, sampling and concrete replay below mirror [compare],
   so witnesses are byte-identical to a naive per-position sweep of
   [first_difference] (the test suite keeps that sweep as an oracle).

   The symbolic scope is the target plus every candidate of the sweep,
   so the community/as-path universe — and therefore every witness — is
   the same however the work is sharded across a pool. *)

type prepared = {
  ctx : Ctx.t;
  cells : Ctx.cell array;
  stanzas : Config.Route_map.stanza array;
  matches : Bdd.t array;
}

(* The target's name on a one-stanza map. *)
let single (target : Config.Route_map.t) s =
  Config.Route_map.make target.Config.Route_map.name [ s ]

let outcome (s : Config.Route_map.stanza) = (s.action, s.sets)

let cell_boundaries ~db ~(target : Config.Route_map.t) p k (start, len) =
  let stanza = p.stanzas.(k) in
  let map_at i = Config.Route_map.insert_at target i stanza in
  List.filter_map
    (fun i ->
      let (c : Ctx.cell) = p.cells.(i) in
      differing_route p.ctx ~db_a:db ~db_b:db (outcome stanza)
        (c.action, c.sets)
        (fun () -> Bdd.conj c.guard p.matches.(k))
        (fun route ->
          concrete_results ~db_a:db ~db_b:db (map_at i) (map_at (i + 1)) route)
      |> Option.map (fun (route, result_a, result_b) ->
             (* Both maps resequence, putting S* and s_i at seq
                (i+1)*10 in their respective maps. *)
             let seq = Some ((i + 1) * 10) in
             ( i,
               { route; result_a; result_b; stanza_a = seq; stanza_b = seq } )))
    (List.init len (fun d -> start + d))

let classify_pair ~db ~target p i j =
  let si = p.stanzas.(i) and sj = p.stanzas.(j) in
  let region = Bdd.conj p.matches.(i) p.matches.(j) in
  if not (Ctx.is_sat p.ctx region) then Sweep.Disjoint
  else
    match
      differing_route p.ctx ~db_a:db ~db_b:db (outcome si) (outcome sj)
        (fun () -> region)
        (concrete_results ~db_a:db ~db_b:db (single target si)
           (single target sj))
    with
    | None -> Sweep.Overlap
    | Some (route, result_a, result_b) ->
        Sweep.Conflict
          {
            route;
            result_a;
            result_b;
            stanza_a = Some si.Config.Route_map.seq;
            stanza_b = Some sj.Config.Route_map.seq;
          }

let family ~db (target : Config.Route_map.t) =
  let prepare stanzas =
    let scope = target :: Array.to_list (Array.map (single target) stanzas) in
    let ctx = Ctx.create [ (db, scope) ] in
    let cells = Array.of_list (Ctx.exec ctx db target) in
    { ctx; cells; stanzas; matches = Array.map (Ctx.of_stanza ctx db) stanzas }
  in
  Sweep.Family
    {
      width = List.length target.Config.Route_map.stanzas;
      prepare;
      fork = (fun p -> { p with ctx = Ctx.fork p.ctx });
      cell_boundaries = cell_boundaries ~db ~target;
      classify_pair = classify_pair ~db ~target;
    }

let pp_difference fmt d =
  Format.fprintf fmt
    "@[<v>Input route:@ %a@ @ OPTION A:@ %a@ @ OPTION B:@ %a@]" Bgp.Route.pp
    d.route Config.Semantics.pp_route_result d.result_a
    Config.Semantics.pp_route_result d.result_b
