(** Behavioural diff of two ACLs, used to generate differential packet
    examples for ACL insertion disambiguation. *)

type difference = {
  packet : Config.Packet.t;
  action_a : Config.Action.t;
  action_b : Config.Action.t;
  rule_a : int option; (* handling rule seq under A; None = implicit *)
  rule_b : int option;
}

val compare : ?limit:int -> Config.Acl.t -> Config.Acl.t -> difference list
(** All behavioural differences, one example packet per differing pair
    of execution cells, capped at [limit]. *)

val first_difference : Config.Acl.t -> Config.Acl.t -> difference option
val equal_behavior : Config.Acl.t -> Config.Acl.t -> bool

val family : Config.Acl.t -> (Config.Acl.rule, difference) Sweep.family
(** The ACL family of {!Sweep}, bound to a target ACL. A boundary
    witness reports both rules at the resequenced seq [(i+1)*10]; a
    conflict is an overlapping pair with different actions, its witness
    packet taken from the shared region and its rules reported by their
    own seqs. The packet space is context-free, so workers share the
    compiled partition without forking anything. *)

val pp_difference : Format.formatter -> difference -> unit
