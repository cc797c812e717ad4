(** Insertion disambiguation for ACL rules — the same algorithm as
    {!Disambiguator}, over packet space. This extends the paper's
    prototype, which handled route-maps only. *)

type question = {
  position : int;
  boundary_seq : int;
  packet : Config.Packet.t;
  if_new_first : Config.Action.t;
  if_old_first : Config.Action.t;
}

type answer = Disambig_common.answer = Prefer_new | Prefer_old
type oracle = question -> answer
type mode = Disambig_common.mode = Binary_search | Top_bottom | Linear

type outcome = {
  acl : Config.Acl.t;
  position : int;
  questions : question list;
  boundaries : int;
}

type error = Inconsistent_intent of question list

let pp_question fmt q =
  Format.fprintf fmt
    "@[<v>Where the new rule is placed changes the treatment of this packet \
     (boundary: existing rule %d):@ %a@ OPTION 1 (new rule first): %a@ \
     OPTION 2 (existing rule first): %a@]"
    q.boundary_seq Config.Packet.pp q.packet Config.Action.pp q.if_new_first
    Config.Action.pp q.if_old_first

let view (q : question) =
  {
    Disambig_common.position = q.position;
    boundary_seq = q.boundary_seq;
    example = Format.asprintf "%a" Config.Packet.pp q.packet;
    if_new_first = Format.asprintf "%a" Config.Action.pp q.if_new_first;
    if_old_first = Format.asprintf "%a" Config.Action.pp q.if_old_first;
  }

(* Observability (see DESIGN.md §Observability for the naming scheme). *)
let family =
  {
    Disambig_common.subsystem = "acl";
    counters = Disambig_common.counters "acl_disambiguator";
    view;
    position = (fun q -> q.position);
    relocate =
      (fun q ~position ~boundary_seq -> { q with position; boundary_seq });
    seqs =
      (fun (t : Config.Acl.t) ->
        Array.of_list (List.map (fun (r : Config.Acl.rule) -> r.seq) t.rules));
    insert_at = Config.Acl.insert_at;
  }

let of_differences (target : Config.Acl.t) diffs =
  let seqs = family.seqs target in
  List.map
    (fun (i, (d : Engine.Compare_acls.difference)) ->
      {
        position = i;
        boundary_seq = seqs.(i);
        packet = d.packet;
        if_new_first = d.action_a;
        if_old_first = d.action_b;
      })
    diffs

(* One incremental sweep of the engine instead of one two-ACL diff per
   position. *)
let boundaries ?pool ~(target : Config.Acl.t) rule =
  Disambig_common.sweep family (fun () ->
      of_differences target
        (Engine.Sweep.boundaries ?pool (Engine.Compare_acls.family target)
           rule))

let run ?mode ?pool ?precomputed ~target ~rule ~oracle () =
  match
    Disambig_common.run family ?mode ?precomputed
      ~sweep:(fun () -> boundaries ?pool ~target rule)
      ~target rule ~oracle
  with
  | Ok o ->
      Ok
        {
          acl = o.policy;
          position = o.position;
          questions = o.questions;
          boundaries = o.boundaries;
        }
  | Error asked -> Error (Inconsistent_intent asked)

let scripted answers : oracle = Disambig_common.scripted answers

(** The ideal user: answers according to a target packet policy. *)
let intent_driven (desired : Config.Packet.t -> Config.Action.t) =
  fun q ->
    if Config.Action.equal (desired q.packet) q.if_new_first then Prefer_new
    else Prefer_old
