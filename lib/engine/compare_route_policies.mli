(** Behavioural diff of two route-maps — the analogue of Batfish's
    [compareRoutePolicies].

    The maps may live in different databases (e.g. two candidate
    insertions of a synthesized stanza, each carrying freshly named
    ancillary lists). Differences are reported as concrete input routes
    together with both outcomes; community-transform differences are
    exposed by targeted sampling of separating community sets. *)

type difference = {
  route : Bgp.Route.t;
  result_a : Config.Semantics.route_result;
  result_b : Config.Semantics.route_result;
  stanza_a : int option; (* seq of the handling stanza; None = implicit *)
  stanza_b : int option;
}

val compare :
  ?limit:int ->
  db_a:Config.Database.t ->
  db_b:Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.t ->
  difference list
(** All behavioural differences, one example per differing pair of
    execution cells, capped at [limit]. *)

val first_difference :
  db_a:Config.Database.t ->
  db_b:Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.t ->
  difference option

val equal_behavior :
  db_a:Config.Database.t ->
  db_b:Config.Database.t ->
  Config.Route_map.t ->
  Config.Route_map.t ->
  bool

val family :
  db:Config.Database.t ->
  Config.Route_map.t ->
  (Config.Route_map.stanza, difference) Sweep.family
(** The route-map family of {!Sweep}, bound to a target map whose
    candidates' ancillary lists all live in [db]. The compiled context
    covers the target plus every candidate of the sweep; each worker
    task forks it for private as-path feasibility state. A boundary is
    screened, sampled and replayed concretely exactly as {!compare}
    would for the two placements, and reports both stanzas at the
    resequenced seq [(i+1)*10]. A conflict is an overlapping pair
    whose outcomes (action or set clauses) differ on a concrete route
    of the shared region.

    A one-candidate sweep's scope is the target plus that candidate, so
    a candidate's boundaries in a multi-candidate sweep have the same
    positions but, when another candidate widens the community universe
    or the as-path lists in scope, may carry a different (equally
    valid) witness route; [test_batch] pins one such case. *)

val pp_difference : Format.formatter -> difference -> unit
(** Rendered in the paper's OPTION 1 / OPTION 2 style. *)
