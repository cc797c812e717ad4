(* Parser round-trip properties over the workload generators: printing
   a generated configuration and parsing it back must preserve every
   named object structurally, and printing must reach a fixpoint after
   one round trip. Complements the hand-written cases in test_config.ml
   with the [Workload] generators used by the benchmarks, whose shapes
   (density-swept rules, crossing pairs, generated list references) are
   much more varied. *)

let case_count = 200

let reparse db =
  let text = Config.Parser.to_string db in
  match Config.Parser.parse text with
  | Ok db' -> (text, db')
  | Error m ->
      QCheck.Test.fail_reportf "reprinted config does not parse: %s@.%s" m text

(* print ∘ parse ∘ print = print — catches printers that normalise
   differently on the second pass. *)
let print_fixpoint db =
  let text, db' = reparse db in
  let text', _ = reparse db' in
  if text <> text' then
    QCheck.Test.fail_reportf "printing is not a fixpoint:@.%s@.vs@.%s" text
      text'
  else true

let gen_rng =
  QCheck.Gen.(map (fun seed -> Random.State.make [| seed |]) (int_bound 1_000_000))

(* --- ACLs from the density-swept random corpus ------------------- *)

let arb_corpus_acl =
  QCheck.make
    QCheck.Gen.(
      let* rng = gen_rng in
      let* rules = int_range 1 15 and* d = int_bound 10 in
      return
        (Workload.Random_corpus.acl ~rng ~name:"RT_ACL" ~rules
           ~overlap_density:(float_of_int d /. 10.)))
    ~print:(Format.asprintf "%a" Config.Acl.pp)

let prop_corpus_acl_roundtrip =
  QCheck.Test.make ~count:case_count ~name:"random_corpus acl round-trips"
    arb_corpus_acl (fun acl ->
      let db = Config.Database.add_acl Config.Database.empty acl in
      let _, db' = reparse db in
      match Config.Database.acl db' "RT_ACL" with
      | None -> QCheck.Test.fail_report "ACL lost in round trip"
      | Some acl' -> acl' = acl && print_fixpoint db)

(* --- ACLs from the closed-form overlap generator ----------------- *)

let arb_gen_acl =
  QCheck.make
    QCheck.Gen.(
      let* rng = gen_rng in
      let* plain = int_bound 6
      and* crossing = int_bound 4
      and* trailing = bool in
      (* An empty ACL is just a header line, which the parser rightly
         drops; keep at least one rule. *)
      let plain = if plain = 0 && crossing = 0 && not trailing then 1 else plain in
      return
        (Workload.Acl_gen.make ~rng ~name:"RT_GEN" ~plain ~crossing
           ~trailing_deny_any:trailing))
    ~print:(Format.asprintf "%a" Config.Acl.pp)

let prop_gen_acl_roundtrip =
  QCheck.Test.make ~count:case_count ~name:"acl_gen acl round-trips"
    arb_gen_acl (fun acl ->
      let db = Config.Database.add_acl Config.Database.empty acl in
      let _, db' = reparse db in
      match Config.Database.acl db' "RT_GEN" with
      | None -> QCheck.Test.fail_report "ACL lost in round trip"
      | Some acl' -> acl' = acl && print_fixpoint db)

(* --- Route-maps plus their generated match lists ----------------- *)

let arb_route_map_db =
  QCheck.make
    QCheck.Gen.(
      let* rng = gen_rng in
      let* stanzas = int_range 1 10 and* d = int_bound 10 in
      return
        (Workload.Random_corpus.route_map ~rng ~db:Config.Database.empty
           ~name:"RT_MAP" ~stanzas
           ~overlap_density:(float_of_int d /. 10.)))
    ~print:(fun (db, _) -> Config.Parser.to_string db)

let prop_route_map_roundtrip =
  QCheck.Test.make ~count:case_count ~name:"random_corpus route-map round-trips"
    arb_route_map_db (fun (db, rm) ->
      let _, db' = reparse db in
      match Config.Database.route_map db' "RT_MAP" with
      | None -> QCheck.Test.fail_report "route-map lost in round trip"
      | Some rm' -> rm' = rm && print_fixpoint db)

(* Every list the generated map references survives the round trip —
   the map alone round-tripping is not enough for re-verification. *)
let prop_route_map_references_survive =
  QCheck.Test.make ~count:case_count ~name:"generated lists survive round trip"
    arb_route_map_db (fun (db, _) ->
      let _, db' = reparse db in
      (match Config.Database.route_map db' "RT_MAP" with
      | None -> false
      | Some rm' -> Config.Database.undefined_references db' rm' = [])
      && List.sort compare (Config.Database.all_names db')
         = List.sort compare (Config.Database.all_names db))

(* --- Parser totality ---------------------------------------------- *)

(* Mutated inputs — bytes replaced, ranges dropped or duplicated,
   syntax fragments spliced in, tails cut — must come back from every
   parser as [Ok] or [Error], never as an exception. *)

let fragments =
  [| "permit"; "deny"; " le "; " ge "; "/"; "."; "-"; ":"; "_"; "^"; "$";
     "\n"; "\n "; "{"; "}"; "["; "]"; ","; "\""; "\\u"; "\\"; "99999999999";
     "-1"; "0"; "seq"; "match"; "set"; "any"; "eq"; "range"; "host";
     "to"; "from"; "prefix"; "community"; "local preference"; "e9"; "null";
     "true"; "\000"; "\255" |]

let mutate rng text =
  let n = String.length text in
  let at () = if n = 0 then 0 else Random.State.int rng (n + 1) in
  match Random.State.int rng 5 with
  | 0 when n > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Random.State.int rng n)
        (Char.chr (Random.State.int rng 256));
      Bytes.to_string b
  | 1 ->
      let i = at () in
      let j = min n (i + Random.State.int rng 16) in
      String.sub text 0 i ^ String.sub text j (n - j)
  | 2 ->
      let i = at () in
      let j = min n (i + Random.State.int rng 32) in
      String.sub text 0 j ^ String.sub text i (n - i)
  | 3 ->
      let i = at () in
      String.sub text 0 i
      ^ fragments.(Random.State.int rng (Array.length fragments))
      ^ String.sub text i (n - i)
  | _ -> String.sub text 0 (at ())

let json_seed =
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "question");
         ("seq", Json.Int 3);
         ("ok", Json.Bool true);
         ("fields", Json.List [ Json.String "a\"b"; Json.Int (-7); Json.Null ]);
       ])

let nl_seeds =
  [
    (`Route_map, Evaluation.E1_running_example.prompt);
    ( `Acl,
      "Write an access list rule that denies tcp traffic from 10.20.0.0/16 \
       to any destination with destination port 22." );
  ]

let arb_mutated seeds =
  QCheck.make ~print:(fun (_, s) -> String.escaped s)
    QCheck.Gen.(
      let* seed = oneofl seeds and* rng = gen_rng and* k = int_range 1 4 in
      let rec go k s = if k = 0 then s else go (k - 1) (mutate rng s) in
      return (fst seed, go k (snd seed)))

let total ~name seeds parse =
  QCheck.Test.make ~count:1000 ~name (arb_mutated seeds) (fun (kind, input) ->
      match parse kind input with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e)
            input)

let totality =
  [
    total ~name:"config parser is total"
      [ ((), Evaluation.E1_running_example.isp_out_config) ]
      (fun () s -> Result.map ignore (Config.Parser.parse s));
    total ~name:"json parser is total" [ ((), json_seed) ] (fun () s ->
        Result.map ignore (Json.parse s));
    total ~name:"nl parser is total" nl_seeds (fun kind s ->
        Result.map ignore (Llm.Nl_parser.parse kind s));
  ]

let () =
  Alcotest.run "roundtrip"
    [
      ( "parse-print",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_corpus_acl_roundtrip;
            prop_gen_acl_roundtrip;
            prop_route_map_roundtrip;
            prop_route_map_references_survive;
          ] );
      ( "totality",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x70741 |]))
          totality );
    ]
