(** Cisco [ip prefix-list] definitions: ordered permit/deny entries over
    prefix-length ranges, evaluated first-match with an implicit
    trailing deny. *)

type entry = { seq : int; action : Action.t; range : Netaddr.Prefix_range.t }
type t = { name : string; entries : entry list (* ascending seq *) }

val make : string -> entry list -> t
(** Sorts entries by sequence number.
    @raise Invalid_argument on duplicate sequence numbers. *)

val entry : ?seq:int -> action:Action.t -> Netaddr.Prefix_range.t -> entry
(** [seq] defaults to 0, meaning "assign on {!append}". *)

val eval : t -> Netaddr.Prefix.t -> Action.t option
(** First matching entry's action; [None] when nothing matches (the
    caller applies Cisco's implicit deny). *)

val permits : t -> Netaddr.Prefix.t -> bool

val next_seq : t -> int
(** The next free sequence number (last + 10, or 10 when empty). *)

val append : t -> entry -> t
(** Append an entry, auto-assigning the next sequence number when the
    given one is 0. *)

val insert_at : t -> int -> entry -> t
(** Insert an entry at a 0-based position and renumber every entry 10,
    20, 30, ..., mirroring {!Route_map.insert_at}. Raises
    [Invalid_argument] when the position is outside
    [0..length entries]. *)

val overlapping_pairs : t -> (entry * entry) list
(** Entry pairs whose ranges share at least one matched prefix. *)

val conflicting_pairs : t -> (entry * entry) list
(** Overlapping pairs whose actions differ. *)

val rename : t -> string -> t
val pp_entry : Format.formatter -> string -> entry -> unit
val pp : Format.formatter -> t -> unit
