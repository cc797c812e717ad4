(* The placement core shared by the three insertion disambiguators
   (route-maps, ACLs, prefix lists). Each family keeps its own
   domain-specific question type and boundary sweep; everything below
   works through a [family] record, so the question/probe event schema,
   the counters and the three search modes are defined exactly once. *)

type answer = Prefer_new | Prefer_old

let answer_to_string = function Prefer_new -> "new" | Prefer_old -> "old"

(* What every question looks like to the flight recorder: where the
   boundary is, the differential example, and the two behaviours the
   user chooses between — already rendered, because only the instance
   knows how to print a route / packet / prefix. *)
type view = {
  position : int;
  boundary_seq : int;
  example : string;
  if_new_first : string;
  if_old_first : string;
}

type mode = Binary_search | Top_bottom | Linear

let mode_to_string = function
  | Binary_search -> "binary_search"
  | Top_bottom -> "top_bottom"
  | Linear -> "linear"

let mode_of_string = function
  | "binary_search" -> Some Binary_search
  | "top_bottom" -> Some Top_bottom
  | "linear" -> Some Linear
  | _ -> None

(* A family's three counters, registered under its metric prefix. *)
type counters = {
  questions : Obs.Counter.t;
  boundaries : Obs.Counter.t;
  probes : Obs.Counter.t;
}

let counters prefix =
  let make name help = Obs.Counter.make (prefix ^ "." ^ name) ~help in
  let questions = make "questions" "differential questions shown to the user" in
  let boundaries =
    make "boundaries" "differing insertion boundaries (overlaps) found"
  in
  let probes =
    make "binary_search.probes" "binary-search iterations (search depth)"
  in
  { questions; boundaries; probes }

(* What the core needs to know about one first-match policy family:
   its telemetry identity, how to render and locate a question, and
   how to insert a candidate into a policy. *)
type ('policy, 'item, 'q) family = {
  subsystem : string;
  counters : counters;
  view : 'q -> view;
  position : 'q -> int;
  relocate : 'q -> position:int -> boundary_seq:int -> 'q;
  seqs : 'policy -> int array;
  insert_at : 'policy -> int -> 'item -> 'policy;
}

(* A boundary sweep as every family runs it: one "find_boundaries"
   span, and the boundaries counter bumped by what was found. *)
let sweep fam f =
  Obs.with_span "find_boundaries" @@ fun () ->
  let bs = f () in
  Obs.Counter.incr ~by:(List.length bs) fam.counters.boundaries;
  bs

(* A question-asking loop: accumulates questions in order, counts them,
   consults the oracle and emits one "question" event per exchange.
   Returns [(asked, ask)]; [asked ()] yields the questions asked so
   far, oldest first. *)
let asker fam ~(oracle : 'q -> answer) =
  let asked = ref [] in
  let ask q =
    asked := q :: !asked;
    Obs.Counter.incr fam.counters.questions;
    let a = oracle q in
    Telemetry.emit ~kind:"question" (fun () ->
        let v = fam.view q in
        [
          ("subsystem", Json.String fam.subsystem);
          ("index", Json.Int (List.length !asked - 1));
          ("position", Json.Int v.position);
          ("boundary_seq", Json.Int v.boundary_seq);
          ("example", Json.String v.example);
          ("if_new_first", Json.String v.if_new_first);
          ("if_old_first", Json.String v.if_old_first);
          ("answer", Json.String (answer_to_string a));
        ]);
    a
  in
  ((fun () -> List.rev !asked), ask)

(* The paper's Section 4 search: find the leftmost boundary answered
   Prefer_new. Under the well-formedness conditions answers are
   monotone (a run of Prefer_old then a run of Prefer_new), so the
   invariant is: boundaries < lo answered Prefer_old, >= hi Prefer_new.
   Returns the first Prefer_new index, or [Array.length arr] when every
   boundary prefers the old behaviour. One "probe" event and one probe
   counter tick per iteration. *)
let binary_search fam ~ask arr =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Obs.Counter.incr fam.counters.probes;
    Telemetry.emit ~kind:"probe" (fun () ->
        [
          ("subsystem", Json.String fam.subsystem);
          ("lo", Json.Int !lo);
          ("hi", Json.Int !hi);
          ("mid", Json.Int mid);
        ]);
    match ask arr.(mid) with
    | Prefer_new -> hi := mid
    | Prefer_old -> lo := mid + 1
  done;
  !hi

(* Consistency check for Linear mode: once a boundary is answered
   Prefer_new, every later boundary must be too. *)
let monotone answers =
  let rec go seen_new = function
    | [] -> true
    | (_, Prefer_new) :: rest -> go true rest
    | (_, Prefer_old) :: rest -> (not seen_new) && go false rest
  in
  go false answers

type ('policy, 'q) outcome = {
  policy : 'policy;
  position : int;
  questions : 'q list;
  boundaries : int;
}

let run fam ?(mode = Binary_search) ?precomputed ~sweep ~target item ~oracle =
  let n = Array.length (fam.seqs target) in
  let placed position questions boundaries =
    let policy = fam.insert_at target position item in
    Ok { policy; position; questions; boundaries }
  in
  (* Batch runs hand in boundaries they already translated from a
     shared multi-candidate sweep; the counter still ticks so telemetry
     matches a sequential run. *)
  let boundaries () =
    match precomputed with
    | Some bs ->
        Obs.Counter.incr ~by:(List.length bs) fam.counters.boundaries;
        bs
    | None -> sweep ()
  in
  let asked, ask = asker fam ~oracle in
  match mode with
  | Top_bottom -> (
      (* The prototype's two placements, 0 and n, differ exactly when
         some adjacent boundary does, and the first boundary's witness
         is the example the two-extremes comparison finds first. *)
      match boundaries () with
      | [] -> placed n [] 0
      | b :: _ ->
          let q =
            fam.relocate b ~position:0 ~boundary_seq:(fam.seqs target).(0)
          in
          let position = match ask q with Prefer_new -> 0 | Prefer_old -> n in
          placed position (asked ()) 1)
  | Binary_search ->
      (* With no boundary every placement behaves the same, and the
         empty search appends at the bottom. *)
      let arr = Array.of_list (boundaries ()) in
      let k = Array.length arr in
      let hi = binary_search fam ~ask arr in
      placed (if hi = k then n else fam.position arr.(hi)) (asked ()) k
  | Linear -> (
      let bs = boundaries () in
      let answers = List.map (fun q -> (q, ask q)) bs in
      if not (monotone answers) then Error (asked ())
      else
        (* The first boundary the user wants the new entry to win, or
           the bottom when there is none. *)
        match List.find_opt (fun (_, a) -> a = Prefer_new) answers with
        | Some (q, _) -> placed (fam.position q) (asked ()) (List.length bs)
        | None -> placed n (asked ()) (List.length bs))

(* Shared answer cache for batch runs: when several intents in a batch
   surface the *same* placement question against the same policy, the
   user's first answer is reused instead of asking again.

   The key deliberately includes the policy name and the question's
   (position, boundary_seq) coordinates, not just the rendered text:
   two intents can produce byte-identical question text against
   different policies or at different positions, and those are
   different questions — merging them on text alone would silently
   answer one intent's question with another's. *)
module Answer_cache = struct
  type key = {
    policy : string;
    position : int;
    boundary_seq : int;
    example : string;
    if_new_first : string;
    if_old_first : string;
  }

  type t = { tbl : (key, answer) Hashtbl.t; mutable hits : int }

  let create () = { tbl = Hashtbl.create 16; hits = 0 }

  let key ~policy (v : view) =
    {
      policy;
      position = v.position;
      boundary_seq = v.boundary_seq;
      example = v.example;
      if_new_first = v.if_new_first;
      if_old_first = v.if_old_first;
    }

  let find t ~policy v =
    match Hashtbl.find_opt t.tbl (key ~policy v) with
    | Some a ->
        t.hits <- t.hits + 1;
        Some a
    | None -> None

  let add t ~policy v a = Hashtbl.replace t.tbl (key ~policy v) a
  let hits t = t.hits

  (* Wrap an oracle so repeated questions (same policy, same
     coordinates, same rendered content) are served from the cache. *)
  let cached t ~policy ~(view : 'q -> view) (oracle : 'q -> answer) q =
    let v = view q in
    match find t ~policy v with
    | Some a -> a
    | None ->
        let a = oracle q in
        add t ~policy v a;
        a
end

(* Answers drawn from a fixed list (scripted tests/CLIs and replay);
   raises [Failure] when exhausted. *)
let scripted answers =
  let remaining = ref answers in
  fun _ ->
    match !remaining with
    | [] -> failwith "scripted oracle exhausted"
    | a :: rest ->
        remaining := rest;
        a
