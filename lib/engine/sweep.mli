(** The first-match boundary sweep, once for every policy family
    (DESIGN.md §11–§12).

    Inserting candidate [c] at position [i] instead of [i + 1] only
    reorders it against entry [i], so the two placements can differ
    exactly on [cell_i.guard ∧ match(c)], where [cell_i] is entry [i]'s
    cell in the first-match partition of the target. A sweep of [k]
    candidates against a target of [n] entries therefore compiles the
    family's shared context, the partition and every candidate's match
    once, and then answers every (candidate, position) boundary and
    every candidate pair with one conjunction each.

    A family ({!Compare_route_policies.family}, {!Compare_acls.family})
    supplies only what differs per policy kind: how to compile, how a
    worker forks the compiled context, how one slice of positions is
    swept and how a candidate pair is classified. Everything else —
    serial or pooled orchestration, the frozen BDD base, result
    assembly and the [engine.adjacent_insertions.*] /
    [engine.batch.conflict_pairs] metrics — lives here. *)

(** What a sweep of [k] candidates found. *)
type 'd t = {
  per_candidate : (int * 'd) list array;
      (** candidate [c]'s boundaries against the target, ascending
          positions, each with a differential witness: the positions of
          its one-candidate sweep, and its witnesses too unless the
          family's scope depends on the other candidates (see
          {!Compare_route_policies.family}) *)
  overlaps : (int * int) list;
      (** candidate pairs [i < j] whose match regions intersect *)
  conflicts : (int * int * 'd) list;
      (** overlapping pairs that behave differently on some shared
          input, with a witness *)
}

(** One candidate pair's relation. *)
type 'd verdict = Disjoint | Overlap | Conflict of 'd

(** A policy family, bound to one target of [width] entries. ['ctx] is
    the family's compiled state: [prepare candidates] builds it (shared
    context, first-match partition, every candidate's match) in the
    current BDD manager; [fork] gives a worker task private mutable
    state over it; [cell_boundaries ctx c (start, len)] sweeps
    candidate [c] over positions [start .. start + len - 1];
    [classify_pair ctx i j] relates candidates [i < j]. Only plain
    data may come out of [cell_boundaries] and [classify_pair]. *)
type ('entry, 'd) family =
  | Family : {
      width : int;
      prepare : 'entry array -> 'ctx;
      fork : 'ctx -> 'ctx;
      cell_boundaries : 'ctx -> int -> int * int -> (int * 'd) list;
      classify_pair : 'ctx -> int -> int -> 'd verdict;
    }
      -> ('entry, 'd) family

val run : ?pool:Parallel.Pool.t -> ('entry, 'd) family -> 'entry list -> 'd t
(** Sweep every candidate against the family's target and classify
    every candidate pair.

    Serially, the family compiles once in the current manager and each
    candidate is swept over all positions in one call. With a [?pool]
    of more than one domain, the compilation goes into a fresh base
    manager that is then frozen, and the work becomes stealable tasks:
    one per (candidate, slice of at most 8 positions) and one per pair,
    each run on a forked context under a worker's private delta over
    the base. Results are reassembled in input order, so serial and
    pooled sweeps are identical.

    Increments {!Metrics.adjacent_insertions_calls} once,
    {!Metrics.adjacent_contexts} once per compilation (none when there
    is nothing to compare), {!Metrics.adjacent_prefix_reuse} by
    [k * max 1 n - 1] and {!Metrics.batch_conflict_pairs} by the number
    of conflicts, and observes {!Metrics.boundary_ns}. An empty
    candidate list returns empty results and records nothing. *)

val boundaries :
  ?pool:Parallel.Pool.t -> ('entry, 'd) family -> 'entry -> (int * 'd) list
(** The one-candidate sweep: every position [i] at which inserting the
    entry at [i] behaves differently from inserting it at [i + 1], with
    one witness each. It equals the naive per-position two-policy
    comparison, which the test suite keeps as an oracle. *)
