(** Conflict-aware batch intent synthesis (DESIGN.md §12).

    A batch run takes N natural-language intents at once and reproduces
    exactly what N sequential pipeline runs would do — same final
    configuration, same questions — while doing strictly less symbolic
    work and consulting the user strictly less often:

    - every intent is synthesized and verified up front with the same
      LLM loops as {!Pipeline} (same call order, same repair behaviour);
    - per target policy, ONE multi-candidate {!Engine.Sweep.run} over
      the family's record computes every intent's
      boundary set plus the pairwise inter-intent overlap/conflict
      graph against a single compiled first-match partition;
    - intents with no overlap edge to any other intent take a fast
      path: their precomputed boundaries are translated into the
      coordinates of the evolving target (match-disjointness makes the
      translation exact — see DESIGN.md §12) and fed to the
      disambiguator as [?precomputed], so no further compilation
      happens;
    - intents that do overlap go through a live disambiguation against
      the current target — that is where genuine inter-intent conflicts
      surface as boundary questions carrying differential witnesses;
    - a shared {!Disambig_common.Answer_cache} (keyed on policy AND
      position, not just text) answers repeated questions across
      intents without consulting the user again.

    Intents are processed in input order, which is a topological order
    of the conflict graph when edges are oriented from earlier to later
    intents: a later intent's questions are always asked against a
    configuration that already contains every earlier stanza, so each
    conflict is resolved exactly once, by the later party. *)

type item =
  | Route_map_update of { target : string; prompt : string }
  | Acl_update of { target : string; prompt : string }

type question =
  | Route_map_q of Disambiguator.question
  | Acl_q of Acl_disambiguator.question

type oracle = intent:int -> target:string -> question -> Disambig_common.answer

type witness =
  | Route_witness of Engine.Compare_route_policies.difference
  | Acl_witness of Engine.Compare_acls.difference
  | Prefix_witness of Netaddr.Prefix.t

type conflict = {
  intent_a : int; (* input indices, [intent_a < intent_b] *)
  intent_b : int;
  target : string;
  witness : witness;
}

type item_result =
  | Route_map_result of Pipeline.route_map_report
  | Acl_result of Pipeline.acl_report

type report = {
  db : Config.Database.t; (* final configuration, all intents applied *)
  items : item_result list; (* in input order *)
  conflicts : conflict list; (* genuine inter-intent conflict edges *)
  overlap_pairs : int; (* intent pairs whose match regions intersect *)
  questions_saved : int; (* answer-cache hits *)
}

type error = { intent : int; reason : Pipeline.error }

let error_to_string { intent; reason } =
  Printf.sprintf "intent %d: %s" intent (Pipeline.error_to_string reason)

let item_target = function
  | Route_map_update { target; _ } | Acl_update { target; _ } -> target

let item_kind = function
  | Route_map_update _ -> "route_map"
  | Acl_update _ -> "acl"

let item_prompt = function
  | Route_map_update { prompt; _ } | Acl_update { prompt; _ } -> prompt

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

let emit_session_start ~items ~rm_mode ~acl_mode ~max_attempts ~db =
  let mode = Disambig_common.mode_to_string in
  Telemetry.emit ~kind:"session_start" (fun () ->
      [
        ("pipeline", Json.String "batch");
        ("target", Json.String "*");
        ("prompt", Json.String (String.concat "\n" (List.map item_prompt items)));
        ("mode", Json.String (mode rm_mode));
        ("acl_mode", Json.String (mode acl_mode));
        ("max_attempts", Json.Int max_attempts);
        ("config", Json.String (Config.Parser.to_string db));
        ( "items",
          Json.List
            (List.map
               (fun it ->
                 Json.Obj
                   [
                     ("kind", Json.String (item_kind it));
                     ("target", Json.String (item_target it));
                     ("prompt", Json.String (item_prompt it));
                   ])
               items) );
      ])

let emit_plan ~intents ~groups ~overlaps ~conflicts =
  Telemetry.emit ~kind:"batch_plan" (fun () ->
      [
        ("intents", Json.Int intents);
        ("groups", Json.Int groups);
        ("overlap_pairs", Json.Int overlaps);
        ("conflict_pairs", Json.Int (List.length conflicts));
        ( "conflicts",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("a", Json.Int c.intent_a);
                     ("b", Json.Int c.intent_b);
                     ("target", Json.String c.target);
                   ])
               conflicts) );
      ])

let emit_item ~intent ~fast it =
  Telemetry.emit ~kind:"batch_item" (fun () ->
      [
        ("intent", Json.Int intent);
        ("kind", Json.String (item_kind it));
        ("target", Json.String (item_target it));
        ("fast_path", Json.Bool fast);
      ])

let emit_session_end result =
  Telemetry.emit ~kind:"session_end" (fun () ->
      match result with
      | Ok r ->
          [
            ("ok", Json.Bool true);
            ("config", Json.String (Config.Parser.to_string r.db));
          ]
      | Error e ->
          [ ("ok", Json.Bool false); ("error", Json.String (error_to_string e)) ])

(* ------------------------------------------------------------------ *)
(* Shared answer cache                                                *)
(* ------------------------------------------------------------------ *)

(* Wrap a per-question oracle consultation with the batch cache. The
   cache sits between the disambiguator's asker and the user: the
   question event is still emitted (telemetry parity with a sequential
   run), but a repeated question — same policy, same coordinates, same
   rendered content — is answered from the cache. A "batch_cache_hit"
   marker is emitted BEFORE the asker's own question event so replay
   can tell which recorded answers never reached the user. *)
let cached_answer cache ~intent ~target view_of consult q =
  let v = view_of q in
  match Disambig_common.Answer_cache.find cache ~policy:target v with
  | Some a ->
      Obs.Counter.incr Engine.Metrics.batch_questions_saved;
      Telemetry.emit ~kind:"batch_cache_hit" (fun () ->
          [ ("intent", Json.Int intent); ("target", Json.String target) ]);
      a
  | None ->
      let a = consult q in
      Disambig_common.Answer_cache.add cache ~policy:target v a;
      a

(* ------------------------------------------------------------------ *)
(* Phase 1: synthesize every intent                                   *)
(* ------------------------------------------------------------------ *)

(* One synthesized intent awaiting placement. [bounds] is filled in by
   the phase-2 sweep: the candidate's boundaries against the original
   target. *)
type ('policy, 'candidate, 'q) pending = {
  synth : ('policy, 'candidate) Pipeline.synthesized;
  llm_calls : int;
  mutable bounds : 'q list;
}

type synth =
  | S_route_map of
      ( Config.Route_map.t,
        Engine.Spec.t * Naming.imported,
        Disambiguator.question )
      pending
  | S_acl of (Config.Acl.t, Config.Acl.rule, Acl_disambiguator.question) pending

exception Abort of error

let fail intent reason = raise (Abort { intent; reason })

(* Synthesize one intent against the accumulating database through the
   sequential pipeline's own front half — same target lookup,
   classification, spec extraction and verify-repair loop, in the same
   order — so the LLM call sequence (and any scheduled fault
   injections) lines up one-to-one with N sequential runs. Importing a
   route-map snippet only adds ancillary lists under fresh [D<k>]
   names; stanza insertions never mint list names, so the renamings are
   the ones a sequential run would produce too. *)
let synthesize_item ~llm ~max_attempts ~db k it =
  let calls_before = Llm.Mock_llm.total_calls llm in
  let pending = function
    | Error e -> fail k e
    | Ok synth ->
        {
          synth;
          llm_calls = Llm.Mock_llm.total_calls llm - calls_before;
          bounds = [];
        }
  in
  match it with
  | Route_map_update { target; prompt } ->
      let p =
        pending
          (Pipeline.synthesize_route_map llm ~max_attempts ~db ~target ~prompt)
      in
      ((snd p.synth.candidate).Naming.db, S_route_map p)
  | Acl_update { target; prompt } ->
      let p =
        pending (Pipeline.synthesize_acl llm ~max_attempts ~db ~target ~prompt)
      in
      (db, S_acl p)

(* ------------------------------------------------------------------ *)
(* Phase 2: one engine sweep per target policy                        *)
(* ------------------------------------------------------------------ *)

(* Group [(intent, target, pending)] by target. The groups' order is
   immaterial: each is swept independently and the edges are sorted. *)
let group_targets entries =
  List.map
    (fun target ->
      ( target,
        List.filter_map
          (fun (k, t, p) -> if t = target then Some (k, p) else None)
          entries ))
    (List.sort_uniq String.compare (List.map (fun (_, t, _) -> t) entries))

(* Run one engine sweep per target policy of each family, filling in
   each pending intent's boundaries. Returns the per-intent overlap
   flags, the conflict edges in input order, the overlapping pair count
   and the group count. *)
let sweep_groups ?pool ~db ~route_maps ~acls nitems =
  let overlapping = Array.make nitems false in
  let conflicts = ref [] in
  let overlap_pairs = ref 0 in
  let groups = ref 0 in
  let sweep ~lookup ~family ~of_differences ~witness ~entry pendings =
    List.iter
      (fun (target, group) ->
        incr groups;
        let ks = Array.of_list (List.map fst group) in
        let policy = Option.get (lookup target) in
        let sw =
          Engine.Sweep.run ?pool (family policy)
            (List.map (fun (_, p) -> entry p) group)
        in
        List.iteri
          (fun c (_, p) ->
            p.bounds <- of_differences policy sw.per_candidate.(c))
          group;
        List.iter
          (fun (i, j) ->
            incr overlap_pairs;
            overlapping.(ks.(i)) <- true;
            overlapping.(ks.(j)) <- true)
          sw.overlaps;
        List.iter
          (fun (i, j, d) ->
            conflicts :=
              {
                intent_a = ks.(i);
                intent_b = ks.(j);
                target;
                witness = witness d;
              }
              :: !conflicts)
          sw.conflicts)
      (group_targets pendings)
  in
  sweep ~lookup:(Config.Database.route_map db)
    ~family:(Engine.Compare_route_policies.family ~db)
    ~of_differences:Disambiguator.of_differences
    ~witness:(fun d -> Route_witness d)
    ~entry:(fun p -> (snd p.synth.candidate).Naming.stanza)
    route_maps;
  sweep ~lookup:(Config.Database.acl db) ~family:Engine.Compare_acls.family
    ~of_differences:Acl_disambiguator.of_differences
    ~witness:(fun d -> Acl_witness d)
    ~entry:(fun p -> p.synth.candidate)
    acls;
  let conflicts =
    List.sort
      (fun a b ->
        match compare a.intent_a b.intent_a with
        | 0 -> compare a.intent_b b.intent_b
        | c -> c)
      !conflicts
  in
  (overlapping, conflicts, !overlap_pairs, !groups)

(* ------------------------------------------------------------------ *)
(* Phase 3: place every stanza, in input order                        *)
(* ------------------------------------------------------------------ *)

(* The evolving shape of one target policy: which current slot holds
   which original entry. [New] slots are earlier batch insertions;
   original positions shift past them when precomputed boundaries are
   translated to current coordinates. *)
type slot = Orig of int | New

type 'policy state = { mutable policy : 'policy; mutable slots : slot list }

let rec insert_slot slots p =
  if p = 0 then New :: slots
  else
    match slots with
    | [] -> [ New ]
    | s :: rest -> s :: insert_slot rest (p - 1)

(* Current index of each original position, for boundary translation.
   Only valid for match-disjoint (fast-path) intents: their boundary
   regions are untouched by the [New] entries they skip over. *)
let orig_index slots =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun idx -> function Orig i -> Hashtbl.add tbl i idx | New -> ())
    slots;
  fun i -> Hashtbl.find tbl i

(* Place one pending intent into its target's evolving policy: fast-path
   intents reuse their phase-2 boundaries translated to current
   coordinates, overlapping ones sweep the current policy live. *)
let place (fam : (_, _, _) Disambig_common.family) states ~lookup ~mode ~fast
    ~sweep ~oracle k ~target item bounds =
  let st =
    match Hashtbl.find_opt states target with
    | Some st -> st
    | None ->
        let policy = Option.get (lookup target) in
        let st =
          {
            policy;
            slots =
              List.init (Array.length (fam.seqs policy)) (fun i -> Orig i);
          }
        in
        Hashtbl.add states target st;
        st
  in
  let precomputed =
    if not fast then None
    else
      let seqs = fam.seqs st.policy and idx = orig_index st.slots in
      Some
        (List.map
           (fun q ->
             let i = idx (fam.position q) in
             fam.relocate q ~position:i ~boundary_seq:seqs.(i))
           bounds)
  in
  match
    Disambig_common.run fam ~mode ?precomputed
      ~sweep:(fun () -> sweep st.policy)
      ~target:st.policy item ~oracle
  with
  | Error _ -> fail k Pipeline.inconsistent
  | Ok o ->
      Pipeline.emit_placement ~position:o.position ~boundaries:o.boundaries
        ~questions:(List.length o.questions);
      st.policy <- o.policy;
      st.slots <- insert_slot st.slots o.position;
      o

(* ------------------------------------------------------------------ *)
(* The batch run                                                      *)
(* ------------------------------------------------------------------ *)

let default_max_attempts = Pipeline.default_max_attempts

let run ?(max_attempts = default_max_attempts)
    ?(rm_mode = Disambiguator.Binary_search)
    ?(acl_mode = Acl_disambiguator.Binary_search) ?pool ~llm ~(oracle : oracle)
    ~db items =
  Obs.with_span "pipeline.batch" @@ fun () ->
  Obs.Counter.incr Pipeline.runs_counter;
  let nitems = List.length items in
  Obs.Counter.incr ~by:nitems Engine.Metrics.batch_intents;
  let t0 = Obs.now () in
  emit_session_start ~items ~rm_mode ~acl_mode ~max_attempts ~db;
  let calls_before = Llm.Mock_llm.total_calls llm in
  let cache = Disambig_common.Answer_cache.create () in
  let result =
    try
      (* Phase 1: synthesize everything, accumulating imported lists. *)
      let db_all, synths_rev =
        List.fold_left
          (fun (db, acc) (k, it) ->
            let db', s = synthesize_item ~llm ~max_attempts ~db k it in
            (db', s :: acc))
          (db, [])
          (List.mapi (fun k it -> (k, it)) items)
      in
      let synths = Array.of_list (List.rev synths_rev) in
      (* Phase 2: one engine sweep per target policy. *)
      let route_maps, acls =
        List.fold_right
          (fun (k, it) (rms, acls) ->
            let target = item_target it in
            match synths.(k) with
            | S_route_map p -> ((k, target, p) :: rms, acls)
            | S_acl p -> (rms, (k, target, p) :: acls))
          (List.mapi (fun k it -> (k, it)) items)
          ([], [])
      in
      let overlapping, conflicts, overlap_pairs, groups =
        Obs.with_span "batch_sweep" (fun () ->
            sweep_groups ?pool ~db:db_all ~route_maps ~acls nitems)
      in
      emit_plan ~intents:nitems ~groups ~overlaps:overlap_pairs ~conflicts;
      (* Phase 3: place entries in input order. *)
      let rm_states = Hashtbl.create 4 and acl_states = Hashtbl.create 4 in
      let db_cur = ref db_all in
      let results =
        List.mapi
          (fun k it ->
            let fast = not overlapping.(k) in
            emit_item ~intent:k ~fast it;
            let target = item_target it in
            let ask view wrap =
              cached_answer cache ~intent:k ~target view (fun q ->
                  oracle ~intent:k ~target (wrap q))
            in
            match synths.(k) with
            | S_route_map { synth = s; llm_calls; bounds } ->
                let spec, { Naming.stanza; renaming; _ } = s.candidate in
                let o =
                  place Disambiguator.family rm_states
                    ~lookup:(Config.Database.route_map !db_cur)
                    ~mode:rm_mode ~fast
                    ~sweep:(fun policy ->
                      Disambiguator.boundaries ?pool ~db:!db_cur ~target:policy
                        stanza)
                    ~oracle:(ask Disambiguator.view (fun q -> Route_map_q q))
                    k ~target stanza bounds
                in
                db_cur := Config.Database.add_route_map !db_cur o.policy;
                Route_map_result
                  {
                    Pipeline.db = !db_cur;
                    map = o.policy;
                    spec;
                    stanza;
                    renaming;
                    synthesis_attempts = s.attempts;
                    verification_history = s.history;
                    llm_calls;
                    questions = o.questions;
                    position = o.position;
                    boundaries = o.boundaries;
                  }
            | S_acl { synth = s; llm_calls; bounds } ->
                let o =
                  place Acl_disambiguator.family acl_states
                    ~lookup:(Config.Database.acl !db_cur)
                    ~mode:acl_mode ~fast
                    ~sweep:(fun policy ->
                      Acl_disambiguator.boundaries ?pool ~target:policy
                        s.candidate)
                    ~oracle:(ask Acl_disambiguator.view (fun q -> Acl_q q))
                    k ~target s.candidate bounds
                in
                db_cur := Config.Database.add_acl !db_cur o.policy;
                Acl_result
                  {
                    Pipeline.db = !db_cur;
                    acl = o.policy;
                    rule = s.candidate;
                    synthesis_attempts = s.attempts;
                    verification_history = s.history;
                    llm_calls;
                    questions = o.questions;
                    position = o.position;
                    boundaries = o.boundaries;
                  })
          items
      in
      Ok
        {
          db = !db_cur;
          items = results;
          conflicts;
          overlap_pairs;
          questions_saved = Disambig_common.Answer_cache.hits cache;
        }
    with Abort e -> Error e
  in
  Obs.Counter.incr Pipeline.llm_calls_counter
    ~by:(Llm.Mock_llm.total_calls llm - calls_before);
  (match result with
  | Error _ -> Obs.Counter.incr Pipeline.errors_counter
  | Ok _ -> ());
  Obs.Histogram.observe_ns Engine.Metrics.batch_ns ((Obs.now () -. t0) *. 1e9);
  emit_session_end result;
  result

(* ------------------------------------------------------------------ *)
(* Prefix-list batches                                                *)
(* ------------------------------------------------------------------ *)

type prefix_item = { target : string; entry : Config.Prefix_list.entry }

type prefix_report = {
  db : Config.Database.t;
  outcomes : Prefix_list_disambiguator.outcome list; (* in input order *)
  conflicts : conflict list;
  questions_saved : int;
}

(* Prefix-list entries are not LLM-synthesized, and the prefix
   disambiguator's boundary scan is interval arithmetic (no symbolic
   compilation), so the batch here is the live sequential loop —
   through the same [place] path, placement events and pipeline
   counters as the other families — plus the shared answer cache and
   the pairwise conflict graph: entry pairs whose ranges share a
   matched prefix and whose actions differ, with the overlap witness
   prefix. *)
let insert_prefix_list_entries ?(mode = Prefix_list_disambiguator.Binary_search)
    ~(oracle :
       intent:int ->
       target:string ->
       Prefix_list_disambiguator.question ->
       Disambig_common.answer) ~db items =
  Obs.with_span "pipeline.batch_prefix" @@ fun () ->
  Obs.Counter.incr Pipeline.runs_counter;
  let nitems = List.length items in
  Obs.Counter.incr ~by:nitems Engine.Metrics.batch_intents;
  let t0 = Obs.now () in
  let cache = Disambig_common.Answer_cache.create () in
  let items_arr = Array.of_list items in
  (* Pairwise inter-intent conflicts, per target. *)
  let conflicts = ref [] in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if
            i < j && a.target = b.target
            && not
                 (Config.Action.equal a.entry.Config.Prefix_list.action
                    b.entry.Config.Prefix_list.action)
          then
            match
              Netaddr.Prefix_range.witness_overlap
                a.entry.Config.Prefix_list.range
                b.entry.Config.Prefix_list.range
            with
            | None -> ()
            | Some p ->
                conflicts :=
                  {
                    intent_a = i;
                    intent_b = j;
                    target = a.target;
                    witness = Prefix_witness p;
                  }
                  :: !conflicts)
        items_arr)
    items_arr;
  let conflicts = List.rev !conflicts in
  Obs.Counter.incr ~by:(List.length conflicts) Engine.Metrics.batch_conflict_pairs;
  let result =
    try
      let db_cur = ref db and states = Hashtbl.create 4 in
      let outcomes =
        List.mapi
          (fun k { target; entry } ->
            if Config.Database.prefix_list !db_cur target = None then
              fail k (Pipeline.Target_not_found target);
            let o =
              place Prefix_list_disambiguator.family states
                ~lookup:(Config.Database.prefix_list !db_cur)
                ~mode ~fast:false
                ~sweep:(fun policy ->
                  Prefix_list_disambiguator.boundaries ~target:policy entry)
                ~oracle:
                  (cached_answer cache ~intent:k ~target
                     Prefix_list_disambiguator.view (fun q ->
                       oracle ~intent:k ~target q))
                k ~target entry []
            in
            db_cur := Config.Database.add_prefix_list !db_cur o.policy;
            {
              Prefix_list_disambiguator.prefix_list = o.policy;
              position = o.position;
              questions = o.questions;
              boundaries = o.boundaries;
            })
          items
      in
      Ok
        {
          db = !db_cur;
          outcomes;
          conflicts;
          questions_saved = Disambig_common.Answer_cache.hits cache;
        }
    with Abort e -> Error e
  in
  (match result with
  | Error _ -> Obs.Counter.incr Pipeline.errors_counter
  | Ok _ -> ());
  Obs.Histogram.observe_ns Engine.Metrics.batch_ns ((Obs.now () -. t0) *. 1e9);
  result
