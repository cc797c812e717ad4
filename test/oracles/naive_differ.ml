(* The naive per-position boundary differ, kept as a test and bench
   oracle for the incremental sweeps in lib/. For every insertion
   position i it builds the two placements i and i+1 and diffs them
   whole, so a sweep costs n full comparisons instead of one
   compilation. [Engine.Sweep.boundaries] over
   [Engine.Compare_route_policies.family] and [Engine.Compare_acls.family],
   and [Clarify.Prefix_list_disambiguator.boundaries], must return
   exactly what these functions return. *)

module Metrics = Engine.Metrics

let route_map_chunk ~db ~target stanza (start, len) =
  Obs.Counter.incr ~by:len Metrics.adjacent_contexts;
  let map_at p = Config.Route_map.insert_at target p stanza in
  List.filter_map
    (fun i ->
      match
        Engine.Compare_route_policies.first_difference ~db_a:db ~db_b:db
          (map_at i) (map_at (i + 1))
      with
      | None -> None
      | Some d -> Some (i, d))
    (List.init len (fun k -> start + k))

let acl_chunk ~target rule (start, len) =
  let acl_at p = Config.Acl.insert_at target p rule in
  List.filter_map
    (fun i ->
      match
        Engine.Compare_acls.first_difference (acl_at i) (acl_at (i + 1))
      with
      | None -> None
      | Some d -> Some (i, d))
    (List.init len (fun k -> start + k))

(* Under a pool, one position per task: a pathological insertion point
   gets stolen around instead of serializing a coarse chunk. *)
let sweep ?pool ~n run_chunk =
  Obs.Counter.incr Metrics.adjacent_insertions_calls;
  let t0 = Obs.now () in
  let result =
    match pool with
    | Some pool when Parallel.Pool.domains pool > 1 && n > 1 ->
        List.concat
          (Parallel.Pool.map pool ~f:run_chunk
             (Parallel.Pool.ranges ~grain:1 n))
    | _ -> if n = 0 then [] else run_chunk (0, n)
  in
  Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9);
  result

let route_map_insertions ?pool ~db ~(target : Config.Route_map.t) stanza =
  sweep ?pool
    ~n:(List.length target.Config.Route_map.stanzas)
    (route_map_chunk ~db ~target stanza)

let acl_insertions ?pool ~(target : Config.Acl.t) rule =
  sweep ?pool ~n:(List.length target.Config.Acl.rules) (acl_chunk ~target rule)

let route_map_boundaries ~db ~target stanza =
  Clarify.Disambiguator.of_differences target
    (route_map_insertions ~db ~target stanza)

let acl_boundaries ~target rule =
  Clarify.Acl_disambiguator.of_differences target (acl_insertions ~target rule)

(* First-match evaluation with the implicit deny made explicit. *)
let eval pl p =
  match Config.Prefix_list.eval pl p with
  | Some a -> a
  | None -> Config.Action.Deny

(* Prefix lists: materialise both placements and evaluate them on the
   canonical overlap witness of the new entry and entry i. *)
let prefix_list_boundaries ~(target : Config.Prefix_list.t)
    (entry : Config.Prefix_list.entry) =
  let n = List.length target.Config.Prefix_list.entries in
  let pl_at p = Config.Prefix_list.insert_at target p entry in
  List.filter_map
    (fun i ->
      let a = pl_at i and b = pl_at (i + 1) in
      let existing = List.nth target.Config.Prefix_list.entries i in
      match
        Netaddr.Prefix_range.witness_overlap entry.Config.Prefix_list.range
          existing.Config.Prefix_list.range
      with
      | None -> None
      | Some w ->
          (* The base witness may be shadowed by an earlier entry; a
             boundary exists iff the two placements actually disagree on
             it. (Within one overlap region the disagreement set is a
             sub-window; the canonical witness lies inside it whenever
             it is nonempty because both placements share the earlier
             entries.) *)
          if Config.Action.equal (eval a w) (eval b w) then None
          else
            Some
              {
                Clarify.Prefix_list_disambiguator.position = i;
                boundary_seq = existing.Config.Prefix_list.seq;
                prefix = w;
                if_new_first = eval a w;
                if_old_first = eval b w;
              })
    (List.init n Fun.id)
