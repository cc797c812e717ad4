(** The placement core shared by the three insertion disambiguators
    ({!Disambiguator} for route-maps, {!Acl_disambiguator},
    {!Prefix_list_disambiguator}).

    Each family keeps its own question type, boundary sweep and
    oracles; the core works through a {!family} record, so the
    "question"/"probe" telemetry schema, the counters and the three
    search modes exist in exactly one place. *)

type answer = Prefer_new | Prefer_old

val answer_to_string : answer -> string
(** ["new"] / ["old"], as recorded in telemetry and given to
    [clarify replay]. *)

(** A question as the flight recorder sees it: instances render their
    route / packet / prefix example and the two candidate behaviours to
    strings. *)
type view = {
  position : int;
  boundary_seq : int;
  example : string;
  if_new_first : string;
  if_old_first : string;
}

type mode =
  | Binary_search  (** the paper's Section 4 algorithm *)
  | Top_bottom  (** the paper's prototype: only positions 0 and n *)
  | Linear  (** ask every boundary; detects inconsistent intent *)

val mode_to_string : mode -> string
(** ["binary_search"] / ["top_bottom"] / ["linear"], as recorded in
    [session_start] events. *)

val mode_of_string : string -> mode option

(** A family's counters. *)
type counters = {
  questions : Obs.Counter.t;
  boundaries : Obs.Counter.t;
  probes : Obs.Counter.t;
}

val counters : string -> counters
(** [counters prefix] registers [<prefix>.questions],
    [<prefix>.boundaries] and [<prefix>.binary_search.probes]. *)

(** One first-match policy family, as the placement core sees it:
    ['policy] is the ordered list (route-map, ACL, prefix list),
    ['item] the entry being inserted, ['q] the family's question. *)
type ('policy, 'item, 'q) family = {
  subsystem : string;  (** ["route_map"], ["acl"], ["prefix_list"] *)
  counters : counters;
  view : 'q -> view;
  position : 'q -> int;
  relocate : 'q -> position:int -> boundary_seq:int -> 'q;
      (** the same differential example, posed at another boundary *)
  seqs : 'policy -> int array;  (** entry sequence numbers, in order *)
  insert_at : 'policy -> int -> 'item -> 'policy;
}

val sweep : (_, _, 'q) family -> (unit -> 'q list) -> 'q list
(** Run a boundary sweep inside a [find_boundaries] span and add what
    it found to the family's boundaries counter. *)

type ('policy, 'q) outcome = {
  policy : 'policy;  (** the target with the entry inserted *)
  position : int;
  questions : 'q list;  (** in the order asked *)
  boundaries : int;  (** differing boundaries found *)
}

val run :
  ('policy, 'item, 'q) family ->
  ?mode:mode ->
  ?precomputed:'q list ->
  sweep:(unit -> 'q list) ->
  target:'policy ->
  'item ->
  oracle:('q -> answer) ->
  (('policy, 'q) outcome, 'q list) result
(** Place [item] into [target] (DESIGN.md §11). The boundaries are
    [?precomputed] (position order, in [target]'s coordinates) or come
    from [sweep ()]. [Top_bottom] asks at most one question, the first
    boundary's example posed at position 0, and reports one boundary.
    [Error asked] is Linear mode finding non-monotone answers: no single
    insertion point implements them (paper condition 3 fails). *)

val scripted : answer list -> 'q -> answer
(** Answers drawn from a fixed list; raises [Failure] when
    exhausted. *)

(** Shared answer cache for batch runs ({!Batch}). Keys include the
    policy name and the question's (position, boundary_seq) pair in
    addition to the rendered text, so two identical-text questions from
    different intents against different policies or positions are never
    silently merged. *)
module Answer_cache : sig
  type t

  val create : unit -> t

  val find : t -> policy:string -> view -> answer option
  (** Cached answer for an identical earlier question, if any; counts a
      hit. *)

  val add : t -> policy:string -> view -> answer -> unit

  val hits : t -> int
  (** Questions served from the cache so far. *)

  val cached :
    t -> policy:string -> view:('q -> view) -> ('q -> answer) -> 'q -> answer
  (** [cached t ~policy ~view oracle] behaves like [oracle] but serves
      repeated questions from the cache without consulting it again. *)
end
