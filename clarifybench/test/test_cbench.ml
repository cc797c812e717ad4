(* The benchmark's own tests: the percentile helper, metric names, the
   negative correctness self-test and a tiny run of each workload. *)

open Cbench

let tiny_session =
  { Session.sessions = 2; requests = 8; width = 20 }

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  let s = Stats.sorted xs in
  Alcotest.(check (float 0.)) "p50" 50. (Stats.rank s 50.);
  Alcotest.(check (float 0.)) "p90" 90. (Stats.rank s 90.);
  Alcotest.(check (float 0.)) "p100" 100. (Stats.rank s 100.);
  Alcotest.(check (float 0.)) "median" 50. (Stats.median xs);
  (* ten samples beyond: p90 of 100 yes, p95 of 100 no *)
  Alcotest.(check bool) "p90 of 100" true (Stats.supported ~n:100 90.);
  Alcotest.(check bool) "p95 of 100" false (Stats.supported ~n:100 95.);
  Alcotest.(check bool) "p99 of 1000" true (Stats.supported ~n:1000 99.);
  Alcotest.(check bool) "p99 of 999" false (Stats.supported ~n:999 99.);
  Alcotest.(check bool) "p95 of 256 routers" true (Stats.supported ~n:256 95.);
  Alcotest.(check bool) "p99 of 256 routers" false (Stats.supported ~n:256 99.);
  Alcotest.(check (option (float 0.))) "unsupported" None (Stats.percentile xs 95.);
  Alcotest.(check (option (float 0.))) "supported" (Some 90.) (Stats.percentile xs 90.);
  Alcotest.(check (option (float 0.)))
    "highest supported" (Some 95.)
    (Stats.highest_supported ~n:256 [ 99.; 95.; 90. ])

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)
(* ------------------------------------------------------------------ *)

let names = List.map fst (Outcome.end_to_end @ Outcome.per_layer)

let test_names () =
  List.iter (fun n -> Alcotest.(check bool) n true (Outcome.valid_name n)) names;
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Outcome.valid_name bad))
    [ ""; ".x"; "_x"; "a b"; "a/b"; "a:b"; String.make 65 'a' ]

(* BENCHMARK.json lists exactly the metrics the runs print. *)
let test_manifest () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let doc = Json.parse_exn text in
  let listed key =
    match Option.bind (Json.member key doc) Json.to_list with
    | Some l ->
        List.map
          (fun m ->
            ( Option.get (Option.bind (Json.member "name" m) Json.to_str),
              Option.get (Option.bind (Json.member "unit" m) Json.to_str) ))
          l
    | None -> Alcotest.fail ("no " ^ key)
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" Outcome.end_to_end (listed "end_to_end");
  Alcotest.check pair "per_layer" Outcome.per_layer (listed "per_layer")

(* ------------------------------------------------------------------ *)
(* Negative self-test: injected faults must be flagged                 *)
(* ------------------------------------------------------------------ *)

let session = lazy (List.hd (Session.generate ~size:tiny_session ~seed:7 ()))

let test_clean_session () =
  let log = Session.run_session (Lazy.force session) in
  Alcotest.(check (list string)) "no violations" [] log.errors;
  Alcotest.(check bool) "questions were asked" true (log.asked > 0)

let test_flipped_answer () =
  let log = Session.run_session ~flip:0 (Lazy.force session) in
  Alcotest.(check bool) "flipped answer flagged" true (log.errors <> [])

let test_corrupted_config () =
  let log = Session.run_session ~corrupt_final:true (Lazy.force session) in
  Alcotest.(check bool) "corrupted config flagged" true (log.errors <> [])

(* ------------------------------------------------------------------ *)
(* Tiny runs of each workload                                          *)
(* ------------------------------------------------------------------ *)

let check_outcome ~trace (o : Outcome.t) =
  Alcotest.(check int) "no failures" 0 o.failed;
  Alcotest.(check bool) "attempted" true (o.attempted >= 1);
  let line = Outcome.to_json ~correct:(o.failed = 0) ~trace o in
  match Json.parse line with
  | Ok doc ->
      let metrics = Option.get (Json.member "metrics" doc) in
      let expected = if trace then Outcome.per_layer else Outcome.end_to_end in
      List.iter
        (fun (n, _) ->
          Alcotest.(check bool) n true (Json.member n metrics <> None))
        expected
  | Error e -> Alcotest.fail e

let test_session_smoke () =
  check_outcome ~trace:false (Session.timed ~size:tiny_session ~seed:3 ~seconds:0.);
  check_outcome ~trace:true (Session.traced ~size:tiny_session ~seed:3 ~seconds:0.)

let test_fleet_smoke () =
  check_outcome ~trace:false (Fleet.run ~routers:20 ~trace:false ~seconds:0. ());
  check_outcome ~trace:true (Fleet.run ~routers:20 ~trace:true ~seconds:0. ())

(* The composed fleet operation is E5's simulated fleet run. *)
let test_fleet_matches_e5 () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let s, _, _ = Fleet.setup ~routers:20 () in
  let op = Fleet.run_op ~pool s in
  let e5 = Evaluation.E5_fleet.run ~pool ~simulate:true ~routers:20 () in
  let configs rs =
    List.map
      (fun (r : Evaluation.E5_fleet.router_result) ->
        (r.router, Config.Parser.to_string r.config))
      rs
  in
  Alcotest.(check (list (pair string string)))
    "router configs" (configs e5.results) (configs op.routers);
  let _, e5_checks = Option.get e5.simulation in
  Alcotest.(check (list (pair string bool)))
    "probes"
    (List.map (fun (c : Netgen.check) -> (c.name, c.ok)) e5_checks)
    (List.map (fun (c : Netgen.check) -> (c.name, c.ok)) op.checks)

let test_audit_smoke () =
  check_outcome ~trace:false (Audit.run ~scale:0.1 ~seed:5 ~trace:false ~seconds:0. ());
  check_outcome ~trace:true (Audit.run ~scale:0.1 ~seed:5 ~trace:true ~seconds:0. ())

let () =
  Alcotest.run "clarifybench"
    [
      ("stats", [ Alcotest.test_case "percentiles" `Quick test_percentiles ]);
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "manifest" `Quick test_manifest;
        ] );
      ( "self-test",
        [
          Alcotest.test_case "clean session" `Quick test_clean_session;
          Alcotest.test_case "flipped answer" `Quick test_flipped_answer;
          Alcotest.test_case "corrupted config" `Quick test_corrupted_config;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "session" `Quick test_session_smoke;
          Alcotest.test_case "fleet-sim" `Quick test_fleet_smoke;
          Alcotest.test_case "fleet matches E5" `Quick test_fleet_matches_e5;
          Alcotest.test_case "audit" `Quick test_audit_smoke;
        ] );
    ]
