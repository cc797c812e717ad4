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
(* The ACL sweep family (DESIGN.md §11–§12). ACLs carry no transforms
   and the packet space has a fixed variable set, so position [i] is a
   boundary exactly when the new rule's action differs from rule [i]'s
   and [cell_i.guard ∧ match(new)] is satisfiable, and no state needs
   forking per worker. *)

type prepared = {
  cells : Ps.cell array;
  rules : Config.Acl.rule array;
  matches : Bdd.t array;
}

let cell_boundaries p k (start, len) =
  let rule = p.rules.(k) in
  List.filter_map
    (fun i ->
      let (c : Ps.cell) = p.cells.(i) in
      if Config.Action.equal rule.Config.Acl.action c.action then None
      else
        match Ps.to_packet (Bdd.conj c.guard p.matches.(k)) with
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
    (List.init len (fun d -> start + d))

let classify_pair p i j =
  let ri = p.rules.(i) and rj = p.rules.(j) in
  match Ps.to_packet (Bdd.conj p.matches.(i) p.matches.(j)) with
  | None -> Sweep.Disjoint
  | Some packet ->
      if Config.Action.equal ri.Config.Acl.action rj.Config.Acl.action then
        Sweep.Overlap
      else
        Sweep.Conflict
          {
            packet;
            action_a = ri.Config.Acl.action;
            action_b = rj.Config.Acl.action;
            rule_a = Some ri.Config.Acl.seq;
            rule_b = Some rj.Config.Acl.seq;
          }

let family (target : Config.Acl.t) =
  Sweep.Family
    {
      width = List.length target.Config.Acl.rules;
      prepare =
        (fun rules ->
          let cells = Array.of_list (Ps.exec target) in
          { cells; rules; matches = Array.map Ps.of_rule rules });
      fork = Fun.id;
      cell_boundaries;
      classify_pair;
    }

let pp_difference fmt d =
  Format.fprintf fmt
    "@[<v>Input packet: %a@ OPTION A: %a (rule %s)@ OPTION B: %a (rule %s)@]"
    Config.Packet.pp d.packet Config.Action.pp d.action_a
    (match d.rule_a with Some s -> string_of_int s | None -> "implicit deny")
    Config.Action.pp d.action_b
    (match d.rule_b with Some s -> string_of_int s | None -> "implicit deny")
