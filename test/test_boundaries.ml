(* Property suite for the incremental boundary engine: on randomly
   generated targets and insertion candidates, the compile-once sweep
   must reproduce the naive per-position comparison byte-for-byte —
   same boundary positions, same witness examples, same placements in
   every disambiguation mode, serial or fanned across a worker pool.
   The naive comparison is the test-only oracle [Naive_differ]; run
   level cases hand its boundaries to the disambiguators through
   [?precomputed]. A second group checks that every placement honours
   the answers it was given. *)

module D = Clarify.Disambiguator
module Ad = Clarify.Acl_disambiguator
module Pd = Clarify.Prefix_list_disambiguator
module DC = Clarify.Disambig_common
module Crp = Engine.Compare_route_policies
module Ca = Engine.Compare_acls

let cases = 220
let ip = Netaddr.Ipv4.of_octets

let check_same ~what ~case ~render naive incremental =
  if naive <> incremental then
    Alcotest.failf "case %d: %s diverge@.naive:@.%s@.incremental:@.%s" case
      what
      (String.concat "\n" (List.map render naive))
      (String.concat "\n" (List.map render incremental))

(* ------------------------------------------------------------------ *)
(* Route-maps                                                         *)
(* ------------------------------------------------------------------ *)

let random_sets rng =
  List.filter_map
    (fun c -> c)
    [
      (if Random.State.bool rng then
         Some (Config.Route_map.Set_local_pref (50 + Random.State.int rng 200))
       else None);
      (if Random.State.int rng 3 = 0 then
         Some (Config.Route_map.Set_metric (Random.State.int rng 500))
       else None);
      (if Random.State.int rng 3 = 0 then
         Some
           (Config.Route_map.Set_community
              {
                communities =
                  [ Bgp.Community.make 65000 (1 + Random.State.int rng 4) ];
                additive = Random.State.bool rng;
              })
       else None);
      (if Random.State.int rng 4 = 0 then
         Some (Config.Route_map.Set_tag (Random.State.int rng 100))
       else None);
    ]

let route_map_case rng case =
  let stanzas = 1 + Random.State.int rng 7 in
  let db, target =
    Workload.Random_corpus.route_map ~rng ~db:Config.Database.empty
      ~name:(Printf.sprintf "T%d" case)
      ~stanzas
      ~overlap_density:(Random.State.float rng 1.0)
  in
  (* The candidate stanza matches a prefix window in the same address
     space as the generated stanzas, sometimes wide enough to overlap
     all of them, with random transforms to exercise the Permit/Permit
     set-clause comparison and the community-separating sampler. *)
  let pl_name = Printf.sprintf "NEW%d" case in
  let base, ge =
    if Random.State.int rng 4 = 0 then (Netaddr.Prefix.make (ip 60 0 0 0) 8, 8)
    else (Netaddr.Prefix.make (ip 60 (Random.State.int rng stanzas) 0 0) 16, 16)
  in
  let le = ge + Random.State.int rng (33 - ge) in
  let db =
    Config.Database.add_prefix_list db
      (Config.Prefix_list.make pl_name
         [
           Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
             (Netaddr.Prefix_range.make base ~ge:(Some ge) ~le:(Some le));
         ])
  in
  let action =
    if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny
  in
  let stanza =
    Config.Route_map.stanza ~seq:5
      ~matches:[ Config.Route_map.Match_prefix_list [ pl_name ] ]
      ~sets:(random_sets rng) action
  in
  (db, target, stanza)

let render_rm_question q = Format.asprintf "%a" D.pp_question q

let check_rm_modes ~case ~db ~target ~stanza ~naive_bs =
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          let naive =
            D.run ~mode ~precomputed:naive_bs ~db ~target ~stanza ~oracle ()
          in
          let incr = D.run ~mode ~db ~target ~stanza ~oracle () in
          match (naive, incr) with
          | Ok a, Ok b ->
              if
                a.D.position <> b.D.position
                || a.D.map <> b.D.map
                || a.D.boundaries <> b.D.boundaries
                || a.D.questions <> b.D.questions
              then
                Alcotest.failf
                  "case %d: run outcomes diverge (position %d vs %d)" case
                  a.D.position b.D.position
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: run verdicts diverge" case)
        [ D.always_new; D.always_old ])
    [ D.Binary_search; D.Top_bottom; D.Linear ]

let test_route_map_equivalence () =
  let rng = Random.State.make [| 0x5eed; 1 |] in
  let pool = Parallel.Pool.create ~domains:4 () in
  for case = 0 to cases - 1 do
    let db, target, stanza = route_map_case rng case in
    let naive = Naive_differ.route_map_boundaries ~db ~target stanza in
    let incr = D.boundaries ~db ~target stanza in
    check_same ~what:"route-map boundaries" ~case ~render:render_rm_question
      naive incr;
    if case mod 3 = 0 then
      check_rm_modes ~case ~db ~target ~stanza ~naive_bs:naive;
    if case mod 10 = 0 then begin
      let serial = Engine.Sweep.boundaries (Crp.family ~db target) stanza in
      let pooled =
        Engine.Sweep.boundaries ~pool (Crp.family ~db target) stanza
      in
      let pooled_naive =
        Naive_differ.route_map_insertions ~pool ~db ~target stanza
      in
      let render (i, (d : Crp.difference)) =
        Format.asprintf "%d: %a" i Crp.pp_difference d
      in
      check_same ~what:"pooled incremental sweep" ~case ~render serial pooled;
      check_same ~what:"pooled naive sweep" ~case ~render serial pooled_naive
    end
  done

(* as-path matches mutate the context's blocked-path state during
   sampling, the one place the shared-context sweep could drift from
   fresh per-position contexts; pin one deterministic case. *)
let test_route_map_as_path_case () =
  let db =
    Config.Database.empty
    |> Fun.flip Config.Database.add_as_path_list
         (Config.As_path_list.make "AP100" [ (Config.Action.Permit, "_100_") ])
    |> Fun.flip Config.Database.add_as_path_list
         (Config.As_path_list.make "AP200" [ (Config.Action.Permit, "_200_") ])
  in
  let target =
    Config.Route_map.make "T"
      [
        Config.Route_map.stanza ~seq:10
          ~matches:[ Config.Route_map.Match_as_path [ "AP100" ] ]
          Config.Action.Permit;
        Config.Route_map.stanza ~seq:20
          ~matches:[ Config.Route_map.Match_as_path [ "AP200" ] ]
          Config.Action.Deny;
      ]
  in
  let stanza =
    Config.Route_map.stanza ~seq:5
      ~matches:[ Config.Route_map.Match_as_path [ "AP100" ] ]
      ~sets:[ Config.Route_map.Set_local_pref 200 ]
      Config.Action.Permit
  in
  let db = Config.Database.add_route_map db target in
  let naive = Naive_differ.route_map_boundaries ~db ~target stanza in
  let incr = D.boundaries ~db ~target stanza in
  check_same ~what:"as-path boundaries" ~case:0 ~render:render_rm_question
    naive incr

(* ------------------------------------------------------------------ *)
(* ACLs                                                               *)
(* ------------------------------------------------------------------ *)

let acl_case rng case =
  let rules = 1 + Random.State.int rng 8 in
  let target =
    Workload.Random_corpus.acl ~rng
      ~name:(Printf.sprintf "A%d" case)
      ~rules
      ~overlap_density:(Random.State.float rng 1.0)
  in
  (* The candidate overlaps the generated 30.0.0.0/8 host regions with
     varying width. *)
  let src =
    match Random.State.int rng 3 with
    | 0 -> Config.Acl.Any
    | 1 ->
        Config.Acl.addr_of_prefix
          (Netaddr.Prefix.make (ip 30 (Random.State.int rng 8) 0 0) 12)
    | _ ->
        Config.Acl.addr_of_prefix
          (Netaddr.Prefix.make (ip 30 0 (Random.State.int rng 8) 0) 24)
  in
  let dst_port =
    match Random.State.int rng 3 with
    | 0 -> Config.Acl.Any_port
    | 1 -> Config.Acl.Range (1024, 40000)
    | _ -> Config.Acl.Gt 1000
  in
  let action =
    if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny
  in
  let rule =
    Config.Acl.rule ~protocol:Config.Packet.Tcp ~src ~dst:Config.Acl.Any
      ~dst_port action
  in
  (target, rule)

let render_acl_question q = Format.asprintf "%a" Ad.pp_question q

let check_acl_modes ~case ~target ~rule ~naive_bs =
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          let naive =
            Ad.run ~mode ~precomputed:naive_bs ~target ~rule ~oracle ()
          in
          let incr = Ad.run ~mode ~target ~rule ~oracle () in
          match (naive, incr) with
          | Ok a, Ok b ->
              if
                a.Ad.position <> b.Ad.position
                || a.Ad.acl <> b.Ad.acl
                || a.Ad.boundaries <> b.Ad.boundaries
                || a.Ad.questions <> b.Ad.questions
              then
                Alcotest.failf
                  "case %d: acl outcomes diverge (position %d vs %d)" case
                  a.Ad.position b.Ad.position
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: acl verdicts diverge" case)
        [ (fun _ -> Ad.Prefer_new); (fun _ -> Ad.Prefer_old) ])
    [ Ad.Binary_search; Ad.Top_bottom; Ad.Linear ]

let test_acl_equivalence () =
  let rng = Random.State.make [| 0x5eed; 2 |] in
  let pool = Parallel.Pool.create ~domains:4 () in
  for case = 0 to cases - 1 do
    let target, rule = acl_case rng case in
    let naive = Naive_differ.acl_boundaries ~target rule in
    let incr = Ad.boundaries ~target rule in
    check_same ~what:"acl boundaries" ~case ~render:render_acl_question naive
      incr;
    if case mod 3 = 0 then check_acl_modes ~case ~target ~rule ~naive_bs:naive;
    if case mod 10 = 0 then begin
      let serial = Engine.Sweep.boundaries (Ca.family target) rule in
      let pooled = Engine.Sweep.boundaries ~pool (Ca.family target) rule in
      let pooled_naive = Naive_differ.acl_insertions ~pool ~target rule in
      let render (i, (d : Ca.difference)) =
        Format.asprintf "%d: %a" i Ca.pp_difference d
      in
      check_same ~what:"pooled acl sweep" ~case ~render serial pooled;
      check_same ~what:"pooled naive acl sweep" ~case ~render serial
        pooled_naive
    end
  done

(* ------------------------------------------------------------------ *)
(* Prefix lists                                                       *)
(* ------------------------------------------------------------------ *)

let prefix_list_case rng case =
  let entry_at rng j =
    let len = 10 + Random.State.int rng 7 in
    let base =
      Netaddr.Prefix.make (ip 50 (Random.State.int rng 4) (j mod 4) 0) len
    in
    let ge = len + Random.State.int rng (33 - len) in
    let le = ge + Random.State.int rng (33 - ge) in
    let action =
      if Random.State.bool rng then Config.Action.Permit
      else Config.Action.Deny
    in
    Config.Prefix_list.entry ~seq:((j + 1) * 10) ~action
      (Netaddr.Prefix_range.make base ~ge:(Some ge) ~le:(Some le))
  in
  let n = 1 + Random.State.int rng 8 in
  let target =
    Config.Prefix_list.make
      (Printf.sprintf "P%d" case)
      (List.init n (entry_at rng))
  in
  let entry = { (entry_at rng 0) with Config.Prefix_list.seq = 5 } in
  (target, entry)

let render_pl_question q = Format.asprintf "%a" Pd.pp_question q

(* [Pd.run] takes no precomputed boundaries, so the oracle's reach the
   placement core directly, with the prefix-list family. *)
let check_pl_modes ~case ~target ~entry ~naive_bs =
  List.iter
    (fun mode ->
      List.iter
        (fun oracle ->
          let naive =
            DC.run Pd.family ~mode ~precomputed:naive_bs
              ~sweep:(fun () -> Alcotest.fail "precomputed run swept")
              ~target entry ~oracle
          in
          let incr = Pd.run ~mode ~target ~entry ~oracle () in
          match (naive, incr) with
          | Ok a, Ok b ->
              if
                a.DC.position <> b.Pd.position
                || a.DC.policy <> b.Pd.prefix_list
                || a.DC.boundaries <> b.Pd.boundaries
                || a.DC.questions <> b.Pd.questions
              then
                Alcotest.failf
                  "case %d: prefix-list outcomes diverge (position %d vs %d)"
                  case a.DC.position b.Pd.position
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "case %d: prefix-list verdicts diverge" case)
        [ (fun _ -> Pd.Prefer_new); (fun _ -> Pd.Prefer_old) ])
    [ Pd.Binary_search; Pd.Top_bottom; Pd.Linear ]

let test_prefix_list_equivalence () =
  let rng = Random.State.make [| 0x5eed; 3 |] in
  for case = 0 to cases - 1 do
    let target, entry = prefix_list_case rng case in
    let naive = Naive_differ.prefix_list_boundaries ~target entry in
    let incr = Pd.boundaries ~target entry in
    check_same ~what:"prefix-list boundaries" ~case ~render:render_pl_question
      naive incr;
    if case mod 3 = 0 then check_pl_modes ~case ~target ~entry ~naive_bs:naive
  done

(* ------------------------------------------------------------------ *)
(* E4's updates                                                       *)
(* ------------------------------------------------------------------ *)

(* Every route-map update the E4 evaluation performs on routers M, R1
   and R2, replayed through the pipeline's own front half: at each
   update the oracle and the incremental sweep must return the same
   boundaries on the same (db, target, stanza). The final configs must
   equal E4's own, so the replay provably follows E4. *)
let test_e4_updates () =
  let module E4 = Evaluation.E4_lightyear in
  let module F3 = Netsim.Figure3 in
  let reference = F3.reference () in
  let border prefix_name own other =
    E4.border_steps ~prefix_name ~own_community:own ~other_community:other
  in
  List.iter
    (fun (router, steps) ->
      let reference_db =
        (Netsim.Topology.find reference router).Netsim.Topology.config
      in
      let llm = Llm.Mock_llm.create () in
      let replayed =
        List.fold_left
          (fun db (step : E4.step) ->
            let map = E4.rename_map step.map in
            let db =
              if Config.Database.route_map db map = None then
                Config.Database.add_route_map db (Config.Route_map.make map [])
              else db
            in
            let reference_map =
              Option.get (Config.Database.route_map reference_db map)
            in
            let oracle =
              D.intent_driven
                (Config.Semantics.eval_route_map reference_db reference_map)
            in
            match
              Clarify.Pipeline.synthesize_route_map llm
                ~max_attempts:Clarify.Pipeline.default_max_attempts ~db
                ~target:map ~prompt:(Llm.Intent.to_prompt step.intent)
            with
            | Error e ->
                Alcotest.failf "E4 %s %s: %s" router map
                  (Clarify.Pipeline.error_to_string e)
            | Ok s -> (
                let _, (imported : Clarify.Naming.imported) = s.candidate in
                let db = imported.db and target = s.policy in
                let incr = D.boundaries ~db ~target imported.stanza in
                check_same
                  ~what:(Printf.sprintf "E4 %s %s boundaries" router map)
                  ~case:0 ~render:render_rm_question
                  (Naive_differ.route_map_boundaries ~db ~target
                     imported.stanza)
                  incr;
                match
                  D.run ~precomputed:incr ~db ~target ~stanza:imported.stanza
                    ~oracle ()
                with
                | Ok o -> Config.Database.add_route_map db o.D.map
                | Error _ -> Alcotest.failf "E4 %s %s: inconsistent" router map))
          Config.Database.empty steps
      in
      let built, _ =
        E4.build_router ~router ~map_names:[] ~steps ~reference_db ()
      in
      Alcotest.(check string)
        (router ^ " config as E4 builds it")
        (Config.Parser.to_string built)
        (Config.Parser.to_string replayed))
    [
      ("M", E4.m_steps);
      ("R1", border "R1" F3.from_isp1_community F3.from_isp2_community);
      ("R2", border "R2" F3.from_isp2_community F3.from_isp1_community);
    ]

(* ------------------------------------------------------------------ *)
(* Answers are honoured                                               *)
(* ------------------------------------------------------------------ *)

(* For every question a placement asked, the final policy must treat
   the question's example exactly as the user's answer chose. The user
   is [intent_driven] by the target with the candidate inserted at a
   random position, an intent some single insertion realizes; Linear
   mode additionally faces a user answering at random, where a
   successful run must still honour every answer. *)
let check_honoured ~case ~what ~rng ~run ~intent_driven ~honours =
  let random_oracle _ =
    if Random.State.bool rng then DC.Prefer_new else DC.Prefer_old
  in
  List.iter
    (fun (mode, oracle, must_succeed) ->
      let answers = ref [] in
      let oracle q =
        let a = oracle q in
        answers := a :: !answers;
        a
      in
      match run ~mode ~oracle with
      | Ok (final, questions) ->
          List.iter2
            (fun q a ->
              if not (honours final q a) then
                Alcotest.failf
                  "case %d: %s placement does not honour an answer" case what)
            questions (List.rev !answers)
      | Error () ->
          if must_succeed then
            Alcotest.failf
              "case %d: %s placement failed on a realizable intent" case what)
    [
      (DC.Binary_search, intent_driven, true);
      (DC.Linear, intent_driven, true);
      (DC.Linear, random_oracle, false);
    ]

(* The treatment an answer chose. *)
let chosen ~if_new_first ~if_old_first = function
  | DC.Prefer_new -> if_new_first
  | DC.Prefer_old -> if_old_first

let test_route_map_honoured () =
  let rng = Random.State.make [| 0x5eed; 4 |] in
  for case = 0 to 59 do
    let db, target, stanza = route_map_case rng case in
    let n = List.length target.Config.Route_map.stanzas in
    let desired =
      Config.Route_map.insert_at target (Random.State.int rng (n + 1)) stanza
    in
    check_honoured ~case ~what:"route-map" ~rng
      ~intent_driven:(D.intent_driven (Config.Semantics.eval_route_map db desired))
      ~run:(fun ~mode ~oracle ->
        match D.run ~mode ~db ~target ~stanza ~oracle () with
        | Ok o -> Ok (o.D.map, o.D.questions)
        | Error _ -> Error ())
      ~honours:(fun final (q : D.question) a ->
        Config.Semantics.route_result_equal
          (chosen ~if_new_first:q.if_new_first ~if_old_first:q.if_old_first a)
          (Config.Semantics.eval_route_map db final q.route))
  done

let test_acl_honoured () =
  let rng = Random.State.make [| 0x5eed; 5 |] in
  for case = 0 to 119 do
    let target, rule = acl_case rng case in
    let n = List.length target.Config.Acl.rules in
    let desired = Config.Acl.insert_at target (Random.State.int rng (n + 1)) rule in
    check_honoured ~case ~what:"acl" ~rng
      ~intent_driven:(Ad.intent_driven (Config.Semantics.eval_acl desired))
      ~run:(fun ~mode ~oracle ->
        match Ad.run ~mode ~target ~rule ~oracle () with
        | Ok o -> Ok (o.Ad.acl, o.Ad.questions)
        | Error _ -> Error ())
      ~honours:(fun final (q : Ad.question) a ->
        Config.Action.equal
          (chosen ~if_new_first:q.if_new_first ~if_old_first:q.if_old_first a)
          (Config.Semantics.eval_acl final q.packet))
  done

let test_prefix_list_honoured () =
  let rng = Random.State.make [| 0x5eed; 6 |] in
  let eval pl p =
    Option.value (Config.Prefix_list.eval pl p) ~default:Config.Action.Deny
  in
  for case = 0 to 199 do
    let target, entry = prefix_list_case rng case in
    let n = List.length target.Config.Prefix_list.entries in
    let desired =
      Config.Prefix_list.insert_at target (Random.State.int rng (n + 1)) entry
    in
    check_honoured ~case ~what:"prefix-list" ~rng
      ~intent_driven:(Pd.intent_driven (eval desired))
      ~run:(fun ~mode ~oracle ->
        match Pd.run ~mode ~target ~entry ~oracle () with
        | Ok o -> Ok (o.Pd.prefix_list, o.Pd.questions)
        | Error _ -> Error ())
      ~honours:(fun final (q : Pd.question) a ->
        Config.Action.equal
          (chosen ~if_new_first:q.if_new_first ~if_old_first:q.if_old_first a)
          (eval final q.prefix))
  done

let () =
  Alcotest.run "boundaries"
    [
      ( "naive-vs-incremental",
        [
          Alcotest.test_case "route-maps" `Quick test_route_map_equivalence;
          Alcotest.test_case "route-map as-path" `Quick
            test_route_map_as_path_case;
          Alcotest.test_case "acls" `Quick test_acl_equivalence;
          Alcotest.test_case "prefix lists" `Quick
            test_prefix_list_equivalence;
          Alcotest.test_case "E4 updates" `Quick test_e4_updates;
        ] );
      ( "answers honoured",
        [
          Alcotest.test_case "route-maps" `Quick test_route_map_honoured;
          Alcotest.test_case "acls" `Quick test_acl_honoured;
          Alcotest.test_case "prefix lists" `Quick test_prefix_list_honoured;
        ] );
    ]
