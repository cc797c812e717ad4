(** Cisco [ip prefix-list] definitions. *)

type entry = { seq : int; action : Action.t; range : Netaddr.Prefix_range.t }
type t = { name : string; entries : entry list (* ascending seq *) }

let make name entries =
  let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) entries in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg
            (Printf.sprintf "Prefix_list.make: duplicate seq %d in %s" a.seq
               name)
        else check rest
    | _ -> ()
  in
  check sorted;
  { name; entries = sorted }

let entry ?seq ~action range =
  { seq = Option.value seq ~default:0; action; range }

(** First matching entry's action; [None] when nothing matches (the
    caller applies Cisco's implicit deny). *)
let eval t prefix =
  List.find_map
    (fun e ->
      if Netaddr.Prefix_range.matches e.range prefix then Some e.action
      else None)
    t.entries

let permits t prefix = eval t prefix = Some Action.Permit

let next_seq t =
  match List.rev t.entries with [] -> 10 | last :: _ -> last.seq + 10

(** Append an entry, auto-assigning the next sequence number when the
    given one is 0. *)
let append t e =
  let e = if e.seq = 0 then { e with seq = next_seq t } else e in
  make t.name (e :: t.entries)

(** Insert an entry at position [pos] (0 = first); sequence numbers are
    reassigned 10, 20, 30, ... preserving order. *)
let insert_at t pos e =
  let n = List.length t.entries in
  if pos < 0 || pos > n then invalid_arg "Prefix_list.insert_at";
  let before = List.filteri (fun i _ -> i < pos) t.entries in
  let after = List.filteri (fun i _ -> i >= pos) t.entries in
  {
    t with
    entries =
      List.mapi
        (fun i e -> { e with seq = (i + 1) * 10 })
        (before @ (e :: after));
  }

(** Entry pairs whose ranges share at least one matched prefix.
    Conflicting pairs additionally disagree on the action. *)
let overlapping_pairs t =
  let rec go = function
    | [] -> []
    | e :: rest ->
        List.filter_map
          (fun e' ->
            if Netaddr.Prefix_range.overlap e.range e'.range then
              Some (e, e')
            else None)
          rest
        @ go rest
  in
  go t.entries

let conflicting_pairs t =
  List.filter
    (fun (a, b) -> not (Action.equal a.action b.action))
    (overlapping_pairs t)

let rename t name = { t with name }

let pp_entry fmt name e =
  Format.fprintf fmt "ip prefix-list %s seq %d %s %s" name e.seq
    (Action.to_string e.action)
    (Netaddr.Prefix_range.to_string e.range)

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt e ->
         pp_entry fmt t.name e))
    t.entries
