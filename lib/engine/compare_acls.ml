(** Behavioural diff of two ACLs, used to generate differential packet
    examples for ACL insertion disambiguation. *)

open Symbdd
module Ps = Symbolic.Packet_space

type difference = {
  packet : Config.Packet.t;
  action_a : Config.Action.t;
  action_b : Config.Action.t;
  rule_a : int option; (* handling rule seq under A; None = implicit deny *)
  rule_b : int option;
}

(** All behavioural differences, one example packet per differing pair
    of execution cells, capped at [limit]. Reaching the cap exits the
    cell product immediately, so [first_difference] stops at the first
    differing pair instead of scanning the remaining O(n²) cells. *)
let compare ?(limit = max_int) (a : Config.Acl.t) (b : Config.Acl.t) =
  Obs.Counter.incr Metrics.compare_acls_calls;
  let cells_a = Ps.exec a and cells_b = Ps.exec b in
  let out = ref [] in
  let count = ref 0 in
  (try
     List.iter
       (fun (ca : Ps.cell) ->
         List.iter
           (fun (cb : Ps.cell) ->
             if !count >= limit then raise_notrace Exit;
             if not (Config.Action.equal ca.action cb.action) then
               match Ps.to_packet (Bdd.conj ca.guard cb.guard) with
               | None -> ()
               | Some packet ->
                   out :=
                     {
                       packet;
                       action_a = ca.action;
                       action_b = cb.action;
                       rule_a = ca.rule_seq;
                       rule_b = cb.rule_seq;
                     }
                     :: !out;
                   incr count)
           cells_b)
       cells_a
   with Exit -> ());
  List.rev !out

let first_difference a b =
  match compare ~limit:1 a b with [] -> None | d :: _ -> Some d

let equal_behavior a b = first_difference a b = None

(* ------------------------------------------------------------------ *)
(* Batch adjacent-insertion analysis — the ACL mirror of
   [Compare_route_policies.adjacent_insertions]; see DESIGN.md §11.
   ACLs carry no transforms, so position [i] is a boundary exactly when
   the new rule's action differs from rule [i]'s and the region
   [cell_i.guard ∧ match(new)] is satisfiable. *)

(* Boundaries of one candidate rule against a pre-executed partition of
   the target: position [i] is a boundary exactly when the actions
   differ and [cell_i.guard ∧ match(rule)] is satisfiable. *)
let cell_boundaries cells rule (start, len) =
  let match_new = Ps.of_rule rule in
  List.filter_map
    (fun i ->
      let (c : Ps.cell) = cells.(i) in
      if Config.Action.equal rule.Config.Acl.action c.action then None
      else
        match Ps.to_packet (Bdd.conj c.guard match_new) with
        | None -> None
        | Some packet ->
            (* Both ACLs resequence, putting the new rule and rule i at
               seq (i+1)*10 in their respective lists. *)
            let seq = Some ((i + 1) * 10) in
            Some
              ( i,
                {
                  packet;
                  action_a = rule.Config.Acl.action;
                  action_b = c.action;
                  rule_a = seq;
                  rule_b = seq;
                } ))
    (List.init len (fun k -> start + k))

let adjacent_insertions ?pool ~(target : Config.Acl.t) (rule : Config.Acl.rule)
    =
  Obs.Counter.incr Metrics.adjacent_insertions_calls;
  let t0 = Obs.now () in
  let n = List.length target.Config.Acl.rules in
  let result =
    match pool with
    | Some pool when Parallel.Pool.domains pool > 1 && n > 1 ->
        (* Execute the target's partition (and compile the new rule's
           match) once into a frozen base; workers walk stealable
           position slices under private deltas instead of re-executing
           per domain. Slices of a few positions keep per-task
           bookkeeping negligible while leaving plenty to steal when
           widths are skewed. *)
        let base = Bdd.Manager.create () in
        let cells =
          Bdd.with_manager base (fun () ->
              Obs.Counter.incr Metrics.adjacent_contexts;
              let cells = Array.of_list (Ps.exec target) in
              ignore (Ps.of_rule rule);
              cells)
        in
        Bdd.Manager.freeze base;
        Obs.Counter.incr ~by:(max 0 (n - 1)) Metrics.adjacent_prefix_reuse;
        List.concat
          (Parallel.Pool.map ~bdd_base:base pool
             ~f:(fun slice -> cell_boundaries cells rule slice)
             (Parallel.Pool.ranges ~grain:8 n))
    | _ when n = 0 -> []
    | _ ->
        Obs.Counter.incr Metrics.adjacent_contexts;
        Obs.Counter.incr ~by:(max 0 (n - 1)) Metrics.adjacent_prefix_reuse;
        cell_boundaries (Array.of_list (Ps.exec target)) rule (0, n)
  in
  Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9);
  result

(* ------------------------------------------------------------------ *)
(* Multi-rule batch sweep — the ACL mirror of
   [Compare_route_policies.batch_insertions]; see DESIGN.md §12. The
   packet space has a fixed variable set, so witnesses are trivially
   independent of how the work is sharded across a pool. *)

type pair_kind = Pair_disjoint | Pair_overlap | Pair_conflict of difference

type batch_sweep = {
  per_candidate : (int * difference) list array;
  overlaps : (int * int) list;
  conflicts : (int * int * difference) list;
}

let batch_insertions ?pool ~(target : Config.Acl.t) rules =
  let candidates = Array.of_list rules in
  let ncand = Array.length candidates in
  if ncand = 0 then { per_candidate = [||]; overlaps = []; conflicts = [] }
  else begin
    Obs.Counter.incr Metrics.adjacent_insertions_calls;
    let t0 = Obs.now () in
    let n = List.length target.Config.Acl.rules in
    let bounds_task ks =
      Obs.Counter.incr Metrics.adjacent_contexts;
      let cells = Array.of_list (Ps.exec target) in
      List.map (fun k -> (k, cell_boundaries cells candidates.(k) (0, n))) ks
    in
    let classify_pair (i, j) =
      let ri = candidates.(i) and rj = candidates.(j) in
      let region = Bdd.conj (Ps.of_rule ri) (Ps.of_rule rj) in
      match Ps.to_packet region with
      | None -> (i, j, Pair_disjoint)
      | Some packet ->
          if Config.Action.equal ri.Config.Acl.action rj.Config.Acl.action
          then (i, j, Pair_overlap)
          else
            ( i,
              j,
              Pair_conflict
                {
                  packet;
                  action_a = ri.Config.Acl.action;
                  action_b = rj.Config.Acl.action;
                  rule_a = Some ri.Config.Acl.seq;
                  rule_b = Some rj.Config.Acl.seq;
                } )
    in
    let all_pairs =
      List.concat
        (List.init ncand (fun i ->
             List.init (ncand - i - 1) (fun d -> (i, i + d + 1))))
    in
    let bounds, pairs =
      match pool with
      | Some pool when Parallel.Pool.domains pool > 1 && ncand > 1 ->
          (* Execute the partition and compile every candidate's match
             once into a frozen base shared by all workers. One task
             per candidate sweep (coarse), pairs a few at a time (each
             is just a conjunction plus a witness extraction). *)
          let base = Bdd.Manager.create () in
          let cells =
            Bdd.with_manager base (fun () ->
                Obs.Counter.incr Metrics.adjacent_contexts;
                let cells = Array.of_list (Ps.exec target) in
                Array.iter (fun r -> ignore (Ps.of_rule r)) candidates;
                cells)
          in
          Bdd.Manager.freeze base;
          let bounds =
            Parallel.Pool.map ~bdd_base:base pool
              ~f:(fun k -> (k, cell_boundaries cells candidates.(k) (0, n)))
              (List.init ncand Fun.id)
          in
          let pairs =
            Parallel.Pool.map ~grain:4 ~bdd_base:base pool ~f:classify_pair
              all_pairs
          in
          (bounds, pairs)
      | _ ->
          (bounds_task (List.init ncand Fun.id), List.map classify_pair all_pairs)
    in
    Obs.Counter.incr
      ~by:(max 0 ((ncand * max 1 n) - 1))
      Metrics.adjacent_prefix_reuse;
    let per_candidate = Array.make ncand [] in
    List.iter (fun (k, bs) -> per_candidate.(k) <- bs) bounds;
    let overlaps =
      List.filter_map
        (function
          | i, j, (Pair_overlap | Pair_conflict _) -> Some (i, j)
          | _, _, Pair_disjoint -> None)
        pairs
    in
    let conflicts =
      List.filter_map
        (function i, j, Pair_conflict d -> Some (i, j, d) | _ -> None)
        pairs
    in
    Obs.Counter.incr ~by:(List.length conflicts) Metrics.batch_conflict_pairs;
    Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9);
    { per_candidate; overlaps; conflicts }
  end

let pp_difference fmt d =
  Format.fprintf fmt
    "@[<v>Input packet: %a@ OPTION A: %a (rule %s)@ OPTION B: %a (rule %s)@]"
    Config.Packet.pp d.packet Config.Action.pp d.action_a
    (match d.rule_a with Some s -> string_of_int s | None -> "implicit deny")
    Config.Action.pp d.action_b
    (match d.rule_b with Some s -> string_of_int s | None -> "implicit deny")
