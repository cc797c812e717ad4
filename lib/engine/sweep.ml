(* The first-match boundary sweep for every policy family; see
   sweep.mli and DESIGN.md §11–§12. *)

open Symbdd

type 'd t = {
  per_candidate : (int * 'd) list array;
  overlaps : (int * int) list;
  conflicts : (int * int * 'd) list;
}

type 'd verdict = Disjoint | Overlap | Conflict of 'd

type ('entry, 'd) family =
  | Family : {
      width : int;
      prepare : 'entry array -> 'ctx;
      fork : 'ctx -> 'ctx;
      cell_boundaries : 'ctx -> int -> int * int -> (int * 'd) list;
      classify_pair : 'ctx -> int -> int -> 'd verdict;
    }
      -> ('entry, 'd) family

type task = Slice of int * (int * int) | Pair of int * int

type 'd outcome =
  | Bounds of int * (int * 'd) list
  | Verdict of int * int * 'd verdict

let run ?pool (Family f) entries =
  let candidates = Array.of_list entries in
  let k = Array.length candidates and n = f.width in
  if k = 0 then { per_candidate = [||]; overlaps = []; conflicts = [] }
  else begin
    Obs.Counter.incr Metrics.adjacent_insertions_calls;
    let t0 = Obs.now () in
    let pool =
      match pool with
      | Some p when Parallel.Pool.domains p > 1 && (n > 1 || k > 1) -> Some p
      | _ -> None
    in
    (* Serially each candidate is one task over every position; pooled,
       slices of a few positions amortize the context fork while
       leaving plenty to steal when entry widths are skewed. *)
    let slices =
      if pool <> None then Parallel.Pool.ranges ~grain:8 n
      else if n = 0 then []
      else [ (0, n) ]
    in
    let tasks =
      List.concat
        (List.init k (fun c -> List.map (fun s -> Slice (c, s)) slices))
      @ List.concat
          (List.init k (fun i ->
               List.init (k - i - 1) (fun d -> Pair (i, i + d + 1))))
    in
    let run_task ctx = function
      | Slice (c, s) -> Bounds (c, f.cell_boundaries ctx c s)
      | Pair (i, j) -> Verdict (i, j, f.classify_pair ctx i j)
    in
    let prepare () =
      Obs.Counter.incr Metrics.adjacent_contexts;
      f.prepare candidates
    in
    let outcomes =
      if tasks = [] then []
      else
        match pool with
        | None -> List.map (run_task (prepare ())) tasks
        | Some pool ->
            (* Compile once into a base that every worker's private
               delta shares read-only: nothing is recompiled per
               domain. *)
            let base = Bdd.Manager.create () in
            let ctx = Bdd.with_manager base prepare in
            Bdd.Manager.freeze base;
            Parallel.Pool.map ~bdd_base:base pool
              ~f:(fun t -> run_task (f.fork ctx) t)
              tasks
    in
    Obs.Counter.incr
      ~by:(max 0 ((k * max 1 n) - 1))
      Metrics.adjacent_prefix_reuse;
    let slices_of = Array.make k [] in
    let overlaps, conflicts =
      List.fold_right
        (fun o (overlaps, conflicts) ->
          match o with
          | Bounds (c, bs) ->
              slices_of.(c) <- bs :: slices_of.(c);
              (overlaps, conflicts)
          | Verdict (_, _, Disjoint) -> (overlaps, conflicts)
          | Verdict (i, j, Overlap) -> ((i, j) :: overlaps, conflicts)
          | Verdict (i, j, Conflict d) ->
              ((i, j) :: overlaps, (i, j, d) :: conflicts))
        outcomes ([], [])
    in
    Obs.Counter.incr ~by:(List.length conflicts) Metrics.batch_conflict_pairs;
    Obs.Histogram.observe_ns Metrics.boundary_ns ((Obs.now () -. t0) *. 1e9);
    { per_candidate = Array.map List.concat slices_of; overlaps; conflicts }
  end

let boundaries ?pool family entry =
  (run ?pool family [ entry ]).per_candidate.(0)
