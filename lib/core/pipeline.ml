(** Clarify's end-to-end workflow (the paper's Figure 1):

    classify the query → retrieve system prompt and few-shot examples →
    LLM synthesizes one stanza in isolation → a second LLM call extracts
    a JSON behavioural spec → the stanza is verified against the spec
    (searchRoutePolicies / searchFilters) with counterexample feedback
    looping back to the LLM → the verified stanza is imported under
    fresh list names → the disambiguator binary-searches the insertion
    point with differential-example questions to the user. *)

type error =
  | Wrong_query_type of { expected : string; got : string }
  | Llm_error of string
  | Parse_error of string
  | Snippet_shape of string
  | Verification_exhausted of string list (* verdicts per attempt *)
  | Spec_error of string
  | Target_not_found of string
  | Disambiguation_failed of string

let error_to_string = function
  | Wrong_query_type { expected; got } ->
      Printf.sprintf "classifier says this is a %s query, expected %s" got
        expected
  | Llm_error m -> "LLM failure: " ^ m
  | Parse_error m -> "generated config does not parse: " ^ m
  | Snippet_shape m -> "unexpected snippet shape: " ^ m
  | Verification_exhausted history ->
      "verification failed on every attempt:\n  "
      ^ String.concat "\n  " history
  | Spec_error m -> "spec extraction failed: " ^ m
  | Target_not_found name -> "no route-map or ACL named " ^ name
  | Disambiguation_failed m -> "disambiguation failed: " ^ m

type route_map_report = {
  db : Config.Database.t; (* updated configuration *)
  map : Config.Route_map.t; (* updated target map *)
  spec : Engine.Spec.t;
  stanza : Config.Route_map.stanza; (* as inserted, post renaming *)
  renaming : (string * string) list;
  synthesis_attempts : int;
  verification_history : string list;
  llm_calls : int; (* calls consumed by this update *)
  questions : Disambiguator.question list;
  position : int;
  boundaries : int;
}

let default_max_attempts = 5

(* Flight recorder (see DESIGN.md §Observability for the event schema).
   [Telemetry.emit] payload thunks are only forced while recording. *)
let emit_session_start ~pipeline ~target ~prompt ~mode ~max_attempts ~db =
  Telemetry.emit ~kind:"session_start" (fun () ->
      [
        ("pipeline", Json.String pipeline);
        ("target", Json.String target);
        ("prompt", Json.String prompt);
        ("mode", Json.String (Disambig_common.mode_to_string mode));
        ("max_attempts", Json.Int max_attempts);
        ("config", Json.String (Config.Parser.to_string db));
      ])

let emit_verify ~attempt verdict =
  Telemetry.emit ~kind:"verify" (fun () ->
      [ ("attempt", Json.Int attempt); ("verdict", Json.String verdict) ])

let emit_placement ~position ~boundaries ~questions =
  Telemetry.emit ~kind:"placement" (fun () ->
      [
        ("position", Json.Int position);
        ("boundaries", Json.Int boundaries);
        ("questions", Json.Int questions);
      ])

let emit_session_end ~final_config result =
  Telemetry.emit ~kind:"session_end" (fun () ->
      match result with
      | Ok r ->
          [ ("ok", Json.Bool true); ("config", Json.String (final_config r)) ]
      | Error e ->
          [ ("ok", Json.Bool false); ("error", Json.String (error_to_string e)) ])

(* Observability (see DESIGN.md §Observability for the naming scheme).
   Stage latencies are recorded automatically by the spans below. *)
let runs_counter =
  Obs.Counter.make "pipeline.runs" ~help:"end-to-end pipeline invocations"

let errors_counter =
  Obs.Counter.make "pipeline.errors" ~help:"pipeline runs ending in an error"

let llm_calls_counter =
  Obs.Counter.make "pipeline.llm_calls"
    ~help:"LLM calls consumed by pipeline runs (all endpoints)"

let attempts_counter =
  Obs.Counter.make "pipeline.synthesis_attempts"
    ~help:"synthesis attempts (>=1 per run)"

let verification_counter =
  Obs.Counter.make "pipeline.verification_attempts"
    ~help:"verifier invocations on parsed candidate snippets"

let cex_loops_counter =
  Obs.Counter.make "pipeline.counterexample_loops"
    ~help:"failed attempts fed back to the LLM as counterexamples"

(* The verify-repair loop: ask the LLM for a snippet until it parses and
   [check] accepts it, feeding each rejection back into the prompt.
   [check snippet] is [`Verified x], [`Retry (feedback, note)] — the
   feedback goes to the LLM and the verify event, the note to the
   verification history — or [`Fatal e], which ends the run. *)
let repair_loop llm ~max_attempts ~entry ~prompt ~check =
  let rec attempt n ~feedback history =
    if n > max_attempts then Error (Verification_exhausted (List.rev history))
    else begin
      Obs.Counter.incr attempts_counter;
      let loop_back msg note =
        Obs.Counter.incr cex_loops_counter;
        emit_verify ~attempt:n msg;
        attempt (n + 1) ~feedback:(Some msg)
          (Printf.sprintf "attempt %d: %s" n note :: history)
      in
      let user =
        match feedback with
        | None -> prompt
        | Some f -> prompt ^ "\nYour previous answer was wrong: " ^ f
      in
      let req =
        {
          Llm.Mock_llm.system = entry.Llm.Prompt_db.system;
          few_shot = entry.Llm.Prompt_db.few_shot;
          user;
        }
      in
      match Obs.with_span "llm" (fun () -> Llm.Mock_llm.synthesize llm req) with
      | Error m -> Error (Llm_error m)
      | Ok text -> (
          match Config.Parser.parse text with
          | Error m ->
              let msg = "syntax error: " ^ m in
              loop_back msg msg
          | Ok snippet -> (
              match check snippet with
              | `Verified x ->
                  emit_verify ~attempt:n "verified";
                  Ok (x, n, List.rev history)
              | `Retry (msg, note) -> loop_back msg note
              | `Fatal e -> Error e))
    end
  in
  attempt 1 ~feedback:None []

let verifying f =
  Obs.with_span "verify" (fun () ->
      Obs.Counter.incr verification_counter;
      f ())

let synthesis_loop llm ~max_attempts ~entry ~prompt ~spec =
  Obs.with_span "synthesize" @@ fun () ->
  repair_loop llm ~max_attempts ~entry ~prompt ~check:(fun snippet ->
      match Config.Database.route_maps snippet with
      | [ rm ] -> (
          match
            verifying (fun () ->
                Engine.Search_route_policies.verify_stanza snippet rm spec)
          with
          | Engine.Search_route_policies.Verified -> `Verified (snippet, rm)
          | verdict ->
              let msg =
                Format.asprintf "%a" Engine.Search_route_policies.pp_verdict
                  verdict
              in
              `Retry (msg, msg))
      | rms ->
          `Fatal
            (Snippet_shape
               (Printf.sprintf "expected one route-map, found %d"
                  (List.length rms))))
  |> Result.map (fun ((snippet, rm), n, history) -> (snippet, rm, n, history))

(* For ACLs the intent itself is the spec: expected rule derived from
   the parsed intent; verification compares header spaces and actions.
   A wrong-shape snippet is retried, unlike a route-map's. *)
let acl_synthesis_loop llm ~max_attempts ~entry ~prompt =
  match
    Obs.with_span "spec_extract" (fun () -> Llm.Nl_parser.parse `Acl prompt)
  with
  | Error e -> Error (Spec_error (Llm.Nl_parser.error_message e))
  | Ok (Llm.Intent.Route_map _) -> assert false
  | Ok (Llm.Intent.Acl intent) ->
      Obs.with_span "synthesize" @@ fun () ->
      let expected =
        Config.Acl.rule ~seq:10 ~protocol:intent.Llm.Intent.protocol
          ~src:intent.src ~src_port:intent.src_port ~dst:intent.dst
          ~dst_port:intent.dst_port ~established:intent.established
          intent.acl_action
      in
      let spec_space = Symbolic.Packet_space.of_rule expected in
      let retry fmt p =
        let msg = Format.asprintf fmt Config.Packet.pp p in
        `Retry (msg, msg)
      in
      repair_loop llm ~max_attempts ~entry ~prompt ~check:(fun snippet ->
          match Config.Database.acls snippet with
          | [ { Config.Acl.rules = [ rule ]; _ } ] -> (
              match
                verifying (fun () ->
                    Engine.Search_filters.verify_rule rule ~spec_space
                      ~action:intent.acl_action)
              with
              | Engine.Search_filters.Verified -> `Verified rule
              | Engine.Search_filters.Wrong_action _ ->
                  `Retry ("wrong action", "wrong action")
              | Engine.Search_filters.Match_too_broad p ->
                  retry "rule matches a packet outside the intent: %a" p
              | Engine.Search_filters.Match_too_narrow p ->
                  retry "rule misses a packet the intent covers: %a" p)
          | _ -> `Retry ("produce exactly one ACL rule", "wrong snippet shape"))

(* ------------------------------------------------------------------ *)
(* The two halves of an update                                        *)
(* ------------------------------------------------------------------ *)

type ('policy, 'candidate) synthesized = {
  policy : 'policy;
  candidate : 'candidate;
  attempts : int;
  history : string list;
}

(* The front half: target lookup, classification, prompt retrieval and
   the family's synthesis, in the order every update performs them. *)
let front ~kind ~lookup ~synth llm ~db ~target ~prompt =
  let name = function `Route_map -> "route-map" | `Acl -> "acl" in
  match lookup db target with
  | None -> Error (Target_not_found target)
  | Some policy -> (
      match
        Obs.with_span "classify" (fun () -> Llm.Mock_llm.classify llm prompt)
      with
      | got when got <> kind ->
          Error (Wrong_query_type { expected = name kind; got = name got })
      | _ ->
          Result.map
            (fun (candidate, attempts, history) ->
              { policy; candidate; attempts; history })
            (synth (Llm.Prompt_db.retrieve kind)))

let synthesize_route_map llm ~max_attempts ~db ~target ~prompt =
  front ~kind:`Route_map ~lookup:Config.Database.route_map llm ~db ~target
    ~prompt ~synth:(fun entry ->
      match
        Obs.with_span "spec_extract" (fun () ->
            Llm.Mock_llm.generate_spec llm prompt)
      with
      | Error m -> Error (Spec_error m)
      | Ok spec ->
          (* The paper has the user vet the spec here; our simulated
             spec generator is faithful by construction. *)
          Result.bind (synthesis_loop llm ~max_attempts ~entry ~prompt ~spec)
            (fun (snippet, rm, attempts, history) ->
              match
                Obs.with_span "import" (fun () ->
                    Naming.import_route_map_snippet ~db ~snippet rm)
              with
              | Error m -> Error (Snippet_shape m)
              | Ok imported -> Ok ((spec, imported), attempts, history)))

let synthesize_acl llm ~max_attempts ~db ~target ~prompt =
  front ~kind:`Acl ~lookup:Config.Database.acl llm ~db ~target ~prompt
    ~synth:(fun entry -> acl_synthesis_loop llm ~max_attempts ~entry ~prompt)

let inconsistent =
  Disambiguation_failed
    "answers are inconsistent: no single insertion point implements this \
     intent"

(* One update end to end: the front half, then the placement core, then
   the family's report. *)
let run_update ~pipeline ~mode ~max_attempts ~llm ~db ~target ~prompt
    ~synthesize ~disambiguate ~report ~final_config =
  Obs.with_span ("pipeline." ^ pipeline ^ "_update") @@ fun () ->
  Obs.Counter.incr runs_counter;
  emit_session_start ~pipeline ~target ~prompt ~mode ~max_attempts ~db;
  let calls_before = Llm.Mock_llm.total_calls llm in
  let result =
    Result.bind (synthesize llm ~max_attempts ~db ~target ~prompt) (fun s ->
        match Obs.with_span "disambiguate" (fun () -> disambiguate s) with
        | Error _ -> Error inconsistent
        | Ok (o : (_, _) Disambig_common.outcome) ->
            emit_placement ~position:o.position ~boundaries:o.boundaries
              ~questions:(List.length o.questions);
            Ok (report s o (Llm.Mock_llm.total_calls llm - calls_before)))
  in
  Obs.Counter.incr llm_calls_counter
    ~by:(Llm.Mock_llm.total_calls llm - calls_before);
  (match result with
  | Error _ -> Obs.Counter.incr errors_counter
  | Ok _ -> ());
  emit_session_end ~final_config result;
  result

(** Run one incremental route-map update end to end. *)
let run_route_map_update ?(max_attempts = default_max_attempts)
    ?(mode = Disambiguator.Binary_search) ~llm ~oracle ~db ~target ~prompt () =
  run_update ~pipeline:"route_map" ~mode ~max_attempts ~llm ~db ~target
    ~prompt ~synthesize:synthesize_route_map
    ~disambiguate:(fun s ->
      let imported = snd s.candidate in
      Disambig_common.run Disambiguator.family ~mode
        ~sweep:(fun () ->
          Disambiguator.boundaries ~db:imported.Naming.db ~target:s.policy
            imported.stanza)
        ~target:s.policy imported.stanza ~oracle)
    ~report:(fun s o llm_calls ->
      let spec, { Naming.db = db'; stanza; renaming } = s.candidate in
      {
        db = Config.Database.add_route_map db' o.policy;
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
      })
    ~final_config:(fun (r : route_map_report) -> Config.Parser.to_string r.db)

(* ------------------------------------------------------------------ *)
(* ACL updates                                                        *)
(* ------------------------------------------------------------------ *)

type acl_report = {
  db : Config.Database.t;
  acl : Config.Acl.t;
  rule : Config.Acl.rule;
  synthesis_attempts : int;
  verification_history : string list;
  llm_calls : int;
  questions : Acl_disambiguator.question list;
  position : int;
  boundaries : int;
}

(** Run one incremental ACL update end to end. *)
let run_acl_update ?(max_attempts = default_max_attempts)
    ?(mode = Acl_disambiguator.Binary_search) ~llm ~oracle ~db ~target ~prompt
    () =
  run_update ~pipeline:"acl" ~mode ~max_attempts ~llm ~db ~target ~prompt
    ~synthesize:synthesize_acl
    ~disambiguate:(fun s ->
      Disambig_common.run Acl_disambiguator.family ~mode
        ~sweep:(fun () ->
          Acl_disambiguator.boundaries ~target:s.policy s.candidate)
        ~target:s.policy s.candidate ~oracle)
    ~report:(fun s o llm_calls ->
      {
        db = Config.Database.add_acl db o.policy;
        acl = o.policy;
        rule = s.candidate;
        synthesis_attempts = s.attempts;
        verification_history = s.history;
        llm_calls;
        questions = o.questions;
        position = o.position;
        boundaries = o.boundaries;
      })
    ~final_config:(fun (r : acl_report) -> Config.Parser.to_string r.db)
