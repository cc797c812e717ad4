(** Insertion disambiguation for prefix-list entries — the paper's first
    future-work item ("support for inserting entries into other data
    structures that can have conflicts like prefix lists").

    Prefix lists have the same first-match semantics as route-maps, so
    the same algorithm applies, with route prefixes as the inputs:
    adjacent placements of the new entry differ exactly on prefixes that
    match both the new entry and the existing entry at the boundary, and
    the differential example is a concrete prefix. *)

type question = {
  position : int;
  boundary_seq : int;
  prefix : Netaddr.Prefix.t; (* the differential example *)
  if_new_first : Config.Action.t; (* Cisco implicit deny when unmatched *)
  if_old_first : Config.Action.t;
}

type answer = Disambig_common.answer = Prefer_new | Prefer_old
type oracle = question -> answer
type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  prefix_list : Config.Prefix_list.t;
  position : int;
  questions : question list;
  boundaries : int;
}

type error = Inconsistent_intent of question list

let pp_question fmt q =
  Format.fprintf fmt
    "@[<v>Where the new entry is placed changes the treatment of this \
     prefix (boundary: existing entry %d):@ %a@ OPTION 1 (new entry \
     first): %a@ OPTION 2 (existing entry first): %a@]"
    q.boundary_seq Netaddr.Prefix.pp q.prefix Config.Action.pp q.if_new_first
    Config.Action.pp q.if_old_first

let view (q : question) =
  {
    Disambig_common.position = q.position;
    boundary_seq = q.boundary_seq;
    example = Format.asprintf "%a" Netaddr.Prefix.pp q.prefix;
    if_new_first = Format.asprintf "%a" Config.Action.pp q.if_new_first;
    if_old_first = Format.asprintf "%a" Config.Action.pp q.if_old_first;
  }

(* Observability (see DESIGN.md §Observability for the naming scheme). *)
let family =
  {
    Disambig_common.subsystem = "prefix_list";
    counters = Disambig_common.counters "prefix_list_disambiguator";
    view;
    position = (fun q -> q.position);
    relocate =
      (fun q ~position ~boundary_seq -> { q with position; boundary_seq });
    seqs =
      (fun (t : Config.Prefix_list.t) ->
        Array.of_list
          (List.map (fun (e : Config.Prefix_list.entry) -> e.seq) t.entries));
    insert_at = Config.Prefix_list.insert_at;
  }

(* Adjacent placements i and i+1 differ exactly on prefixes matching
   both the new entry and existing entry i, provided no earlier entry
   captures them first and the two entries' actions differ. One scan of
   the target suffices: earlier entries are the same under both
   placements, so comparing the placements reduces to "is the witness
   shadowed, and do the two entries' actions differ". *)
let boundaries ~(target : Config.Prefix_list.t)
    (entry : Config.Prefix_list.entry) =
  Disambig_common.sweep family @@ fun () ->
  let entries = Array.of_list target.Config.Prefix_list.entries in
  let shadowed i w =
    let rec scan j =
      j < i
      && (Netaddr.Prefix_range.matches entries.(j).Config.Prefix_list.range w
          || scan (j + 1))
    in
    scan 0
  in
  List.filter_map
    (fun i ->
      let existing = entries.(i) in
      if Config.Action.equal entry.Config.Prefix_list.action
           existing.Config.Prefix_list.action
      then None
      else
        match
          Netaddr.Prefix_range.witness_overlap entry.Config.Prefix_list.range
            existing.Config.Prefix_list.range
        with
        | None -> None
        | Some w when shadowed i w -> None
        | Some w ->
            Some
              {
                position = i;
                boundary_seq = existing.Config.Prefix_list.seq;
                prefix = w;
                if_new_first = entry.Config.Prefix_list.action;
                if_old_first = existing.Config.Prefix_list.action;
              })
    (List.init (Array.length entries) Fun.id)

let run ?mode ~target ~entry ~oracle () =
  match
    Disambig_common.run family ?mode
      ~sweep:(fun () -> boundaries ~target entry)
      ~target entry ~oracle
  with
  | Ok o ->
      Ok
        {
          prefix_list = o.policy;
          position = o.position;
          questions = o.questions;
          boundaries = o.boundaries;
        }
  | Error asked -> Error (Inconsistent_intent asked)

(** The ideal user: answers according to a target prefix policy. *)
let intent_driven (desired : Netaddr.Prefix.t -> Config.Action.t) =
  fun q ->
    if Config.Action.equal (desired q.prefix) q.if_new_first then Prefer_new
    else Prefer_old
