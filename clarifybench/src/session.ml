(* The [session] workload: one operator in a closed loop, sending the
   next request only after the previous reply. A request is one
   single-intent update (route-map or ACL) or, every [batch_every]-th
   request, a batch of five mixed intents through [Clarify.Batch.run].

   A stream is several consecutive sessions; each starts from a freshly
   generated router config holding a wide, overlapping route-map and a
   wide, overlapping ACL (120 entries each), so policy width stays in a
   band instead of growing without bound.

   The simulated operator answers every placement question from a
   reference config that this module builds itself: the base policies
   with each intended stanza or rule, written here from the intent's
   fields, at an intended slot among the base entries. Within a session
   new entries are pairwise match-disjoint (each owns a private address
   block), except that every batch repeats its first route-map intent,
   so the reference answers consistently whatever order the program
   placed earlier entries in. *)

module D = Clarify.Disambiguator
module AD = Clarify.Acl_disambiguator
module P = Clarify.Pipeline
module B = Clarify.Batch
module AC = Clarify.Disambig_common.Answer_cache

let rm_target = "RM"
let acl_target = "EDGE"

type size = {
  sessions : int;
  requests : int; (* per session *)
  width : int; (* base route-map and ACL width *)
}

let default_size = { sessions = 48; requests = 40; width = 120 }
let batch_every = 8

type request = Single of B.item | Batch of B.item list

type session = {
  base : Config.Database.t;
  reference : Config.Database.t;
  requests : request list;
  intents : int;
}

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let prefix addr len =
  let mask = (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF in
  Netaddr.Prefix.make (Netaddr.Ipv4.of_int (addr land mask)) len

let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Base route-map stanzas: random windows inside 10.0.0.0/10, nested
   and overlapping one another and the intents' regions. *)
let base_stanza rng i =
  let len = pick rng [| 10; 11; 12; 13; 14; 14; 15; 15; 16; 16; 17; 18 |] in
  let p = prefix (0x0A000000 lor Random.State.int rng (1 lsl 22)) len in
  let lo = len + Random.State.int rng 8 in
  let ge = if lo > len then Some lo else None in
  let le = Some (min 32 (lo + 4 + Random.State.int rng 8)) in
  let name = Printf.sprintf "BL%d" i in
  let list =
    Config.Prefix_list.make name
      [
        Config.Prefix_list.entry ~seq:10 ~action:Config.Action.Permit
          (Netaddr.Prefix_range.make p ~ge ~le);
      ]
  in
  let action =
    if Random.State.int rng 10 < 7 then Config.Action.Permit else Config.Action.Deny
  in
  let sets =
    match action with
    | Config.Action.Deny -> []
    | Config.Action.Permit -> (
        match Random.State.int rng 3 with
        | 0 -> []
        | 1 -> [ Config.Route_map.Set_metric (10 * (1 + Random.State.int rng 10)) ]
        | _ -> [ Config.Route_map.Set_local_pref (pick rng [| 100; 150; 200; 250 |]) ])
  in
  (list, Config.Route_map.stanza ~matches:[ Config.Route_map.Match_prefix_list [ name ] ] ~sets action)

(* Base ACL rules: destinations inside 172.16.0.0/17 of varying width,
   a few source scopes and destination-port shapes. *)
let base_rule rng =
  let protocol = pick rng Config.Packet.[| Ip; Tcp; Tcp; Udp |] in
  let src =
    match Random.State.int rng 5 with
    | 0 | 1 | 2 -> Config.Acl.Any
    | 3 -> Config.Acl.addr_of_prefix (prefix (0x0A000000 lor (Random.State.int rng 4 lsl 16)) 16)
    | _ -> Config.Acl.addr_of_prefix (prefix 0x0A000000 8)
  in
  let len = pick rng [| 17; 18; 19; 20; 20; 21; 21; 22; 22; 23; 24 |] in
  let dst = Config.Acl.addr_of_prefix (prefix (0xAC100000 lor Random.State.int rng (1 lsl 15)) len) in
  let dst_port =
    match protocol with
    | Config.Packet.Tcp | Config.Packet.Udp ->
        pick rng
          Config.Acl.
            [| Any_port; Any_port; Any_port; Eq 22; Eq 53; Eq 80; Eq 443; Eq 8080; Gt 1023; Range (20, 100) |]
    | _ -> Config.Acl.Any_port
  in
  let action =
    if Random.State.int rng 10 < 6 then Config.Action.Permit else Config.Action.Deny
  in
  Config.Acl.rule ~protocol ~src ~dst ~dst_port action

(* A route-map intent on one of 64 private cells of 10.0.0.0/10: one of
   its four /12 regions at one of sixteen exact mask lengths. *)
let rm_cells = 64

let rm_intent rng cell =
  let p = prefix (0x0A000000 lor ((cell mod 4) lsl 20)) 12 in
  let len = 16 + (cell / 4) in
  let ge = Some len and le = Some len in
  let action =
    if Random.State.int rng 4 < 3 then Config.Action.Permit else Config.Action.Deny
  in
  let sets =
    match action with
    | Config.Action.Deny -> []
    | Config.Action.Permit -> (
        match Random.State.int rng 3 with
        | 0 -> []
        | 1 -> [ Config.Route_map.Set_metric (5 + (10 * Random.State.int rng 10)) ]
        | _ -> [ Config.Route_map.Set_local_pref (pick rng [| 120; 180; 220 |]) ])
  in
  {
    Llm.Intent.action;
    prefixes = [ Netaddr.Prefix_range.make p ~ge ~le ];
    communities = [];
    as_path_origin = None;
    as_path_contains = None;
    local_pref = None;
    metric_match = None;
    tag_match = None;
    sets;
  }

(* An ACL intent on the [block]-th private /24 of 172.16.0.0/18. *)
let acl_blocks = 64

let acl_intent rng block =
  {
    Llm.Intent.acl_action =
      (if Random.State.bool rng then Config.Action.Permit else Config.Action.Deny);
    protocol = pick rng Config.Packet.[| Tcp; Udp |];
    src =
      (if Random.State.bool rng then Config.Acl.Any
       else Config.Acl.addr_of_prefix (prefix (0x0A000000 lor (Random.State.int rng 4 lsl 16)) 16));
    src_port = Config.Acl.Any_port;
    dst = Config.Acl.addr_of_prefix (prefix (0xAC100000 lor (block lsl 8)) 24);
    dst_port =
      (if Random.State.bool rng then Config.Acl.Eq (pick rng [| 22; 53; 80; 443; 8080 |])
       else Config.Acl.Any_port);
    established = false;
  }

(* The reference's own rendering of an intent: what the operator means,
   written without the program's synthesizer. *)
let reference_stanza k (i : Llm.Intent.route_map_intent) =
  let name = Printf.sprintf "REF%d" k in
  let list =
    Config.Prefix_list.make name
      (List.mapi
         (fun j r -> Config.Prefix_list.entry ~seq:(10 * (j + 1)) ~action:Config.Action.Permit r)
         i.prefixes)
  in
  let sets = match i.action with Config.Action.Permit -> i.sets | Config.Action.Deny -> [] in
  (list, Config.Route_map.stanza ~matches:[ Config.Route_map.Match_prefix_list [ name ] ] ~sets i.action)

let reference_rule (i : Llm.Intent.acl_intent) =
  Config.Acl.rule ~protocol:i.protocol ~src:i.src ~src_port:i.src_port ~dst:i.dst
    ~dst_port:i.dst_port ~established:i.established i.acl_action

(* [base] with every [(slot, x)] of [news] placed before base entry
   [slot] (after all of them when [slot] is the base length), ties in
   intent order. *)
let interleave base news =
  let at i = List.filter_map (fun (s, x) -> if s = i then Some x else None) news in
  List.concat (List.mapi (fun i b -> at i @ [ b ]) base) @ at (List.length base)

let resequence_stanzas l = List.mapi (fun i (s : Config.Route_map.stanza) -> { s with seq = 10 * (i + 1) }) l
let resequence_rules l = List.mapi (fun i (r : Config.Acl.rule) -> { r with Config.Acl.seq = 10 * (i + 1) }) l

let generate_session ?(size = default_size) ~seed index =
  let rng = Random.State.make [| seed; index; 0x5e55 |] in
  let n_rm = size.width and n_acl = size.width in
  (* Specific entries first, as operators write them, with some noise,
     so a new entry meets many owners before a broad one shadows it. *)
  let specific_first key l =
    List.map (fun x -> (-(key x + Random.State.int rng 4), x)) l
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let lists, stanzas =
    List.init n_rm (base_stanza rng)
    |> specific_first (fun ((l : Config.Prefix_list.t), _) ->
           match l.entries with e :: _ -> e.range.prefix.len | [] -> 0)
    |> List.split
  in
  let rules =
    List.init n_acl (fun _ -> base_rule rng)
    |> specific_first (fun (r : Config.Acl.rule) ->
           match Config.Acl.addr_to_prefix r.dst with Some p -> p.len | None -> 32)
  in
  let base_map = Config.Route_map.make rm_target (resequence_stanzas stanzas) in
  let base_acl = Config.Acl.make acl_target (resequence_rules rules) in
  let base =
    List.fold_left Config.Database.add_prefix_list Config.Database.empty lists
    |> fun db -> Config.Database.add_acl (Config.Database.add_route_map db base_map) base_acl
  in
  let rm_blocks = shuffled rng rm_cells and acl_blocks = shuffled rng acl_blocks in
  let next_rm = ref 0 and next_acl = ref 0 and k = ref 0 in
  let rm_news = ref [] and acl_news = ref [] and ref_lists = ref [] in
  let add_rm intent =
    let list, stanza = reference_stanza !k intent in
    incr k;
    ref_lists := list :: !ref_lists;
    rm_news := (Random.State.int rng (n_rm + 1), stanza) :: !rm_news;
    B.Route_map_update { target = rm_target; prompt = Llm.Intent.to_prompt (Llm.Intent.Route_map intent) }
  in
  let fresh_rm () =
    let intent = rm_intent rng rm_blocks.(!next_rm) in
    incr next_rm;
    intent
  in
  let fresh_acl () =
    let intent = acl_intent rng acl_blocks.(!next_acl) in
    incr next_acl;
    incr k;
    acl_news := (Random.State.int rng (n_acl + 1), reference_rule intent) :: !acl_news;
    B.Acl_update { target = acl_target; prompt = Llm.Intent.to_prompt (Llm.Intent.Acl intent) }
  in
  let requests =
    List.init size.requests (fun r ->
        if r mod batch_every = batch_every - 1 then
          let a = fresh_rm () in
          let ia = add_rm a in
          let ib = fresh_acl () in
          let ic = add_rm (fresh_rm ()) in
          let id = fresh_acl () in
          Batch [ ia; ib; ic; id; add_rm a ]
        else if Random.State.bool rng then Single (add_rm (fresh_rm ()))
        else Single (fresh_acl ()))
  in
  let ref_map =
    Config.Route_map.make rm_target (resequence_stanzas (interleave stanzas (List.rev !rm_news)))
  in
  let ref_acl = Config.Acl.make acl_target (resequence_rules (interleave rules (List.rev !acl_news))) in
  let reference =
    List.fold_left Config.Database.add_prefix_list base (List.rev !ref_lists)
    |> fun db -> Config.Database.add_acl (Config.Database.add_route_map db ref_map) ref_acl
  in
  { base; reference; requests; intents = !k }

let generate ?(size = default_size) ~seed () =
  List.init size.sessions (generate_session ~size ~seed)

let request_intents = function Single _ -> 1 | Batch items -> List.length items

(* ------------------------------------------------------------------ *)
(* The operator                                                        *)
(* ------------------------------------------------------------------ *)

(* Answers from the reference and records every (question, answer)
   pair it gives. [flip] turns the n-th answer around (0-based), for
   the self-test that a wrong answer is caught. *)
type operator = {
  rm : D.oracle;
  acl : AD.oracle;
  mutable rm_asked : (D.question * D.answer) list;
  mutable acl_asked : (AD.question * AD.answer) list;
  mutable given : int;
}

let flip_answer = function D.Prefer_new -> D.Prefer_old | D.Prefer_old -> D.Prefer_new

let operator ?flip (s : session) =
  let ref_map = Option.get (Config.Database.route_map s.reference rm_target) in
  let ref_acl = Option.get (Config.Database.acl s.reference acl_target) in
  let rm_want = D.intent_driven (Config.Semantics.eval_route_map s.reference ref_map) in
  let acl_want = AD.intent_driven (Config.Semantics.eval_acl ref_acl) in
  let rec op =
    {
      rm = (fun q -> let a = answer (rm_want q) in op.rm_asked <- (q, a) :: op.rm_asked; a);
      acl = (fun q -> let a = answer (acl_want q) in op.acl_asked <- (q, a) :: op.acl_asked; a);
      rm_asked = [];
      acl_asked = [];
      given = 0;
    }
  and answer a =
    let n = op.given in
    op.given <- n + 1;
    if flip = Some n then flip_answer a else a
  in
  op

let batch_oracle op ~intent:_ ~target:_ = function
  | B.Route_map_q q -> op.rm q
  | B.Acl_q q -> op.acl q

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* What a request produced: the new config, the questions of each
   intent (as the program listed them, cache-served ones included), the
   boundaries found and, for a batch, the answers served from cache. *)
type reply = {
  db : Config.Database.t;
  questions : B.question list list;
  boundaries : int;
  saved : int;
}

(* A report's questions and boundary count, as the batch lists them. *)
let item_reply = function
  | B.Route_map_result r -> (List.map (fun q -> B.Route_map_q q) r.P.questions, r.P.boundaries)
  | B.Acl_result r -> (List.map (fun q -> B.Acl_q q) r.P.questions, r.P.boundaries)

let reply ~db ~saved results =
  let questions, boundaries = List.split (List.map item_reply results) in
  { db; questions; boundaries = List.fold_left ( + ) 0 boundaries; saved }

(* The untraced request: the program's own entry points. *)
let run_request ~llm ~op ~db = function
  | Single (B.Route_map_update { target; prompt }) -> (
      match P.run_route_map_update ~llm ~oracle:op.rm ~db ~target ~prompt () with
      | Ok r -> Ok (reply ~db:r.P.db ~saved:0 [ B.Route_map_result r ])
      | Error e -> Error (P.error_to_string e))
  | Single (B.Acl_update { target; prompt }) -> (
      match P.run_acl_update ~llm ~oracle:op.acl ~db ~target ~prompt () with
      | Ok r -> Ok (reply ~db:r.P.db ~saved:0 [ B.Acl_result r ])
      | Error e -> Error (P.error_to_string e))
  | Batch items -> (
      match B.run ~llm ~oracle:(batch_oracle op) ~db items with
      | Ok r -> Ok (reply ~db:r.B.db ~saved:r.B.questions_saved r.B.items)
      | Error e -> Error (B.error_to_string e))

(* The traced request, composed from the program's public building
   blocks with a span around each call. It must reproduce the untraced
   request exactly; the traced run checks that it does. *)
let span = Tracer.span

let composed_rm ~llm ~oracle ~db ~target ~prompt =
  let ( let* ) = Result.bind in
  let* target_map = Option.to_result ~none:"no route-map" (Config.Database.route_map db target) in
  let* () =
    match span "llm.classify" (fun () -> Llm.Mock_llm.classify llm prompt) with
    | `Route_map -> Ok ()
    | `Acl -> Error "classified as an ACL query"
  in
  let entry = Llm.Prompt_db.retrieve `Route_map in
  let* spec = span "llm.spec" (fun () -> Llm.Mock_llm.generate_spec llm prompt) in
  let* snippet, rm, _, _ =
    span "llm.synth_verify" (fun () ->
        P.synthesis_loop llm ~max_attempts:P.default_max_attempts ~entry ~prompt ~spec)
    |> Result.map_error P.error_to_string
  in
  let* { Clarify.Naming.db = db'; stanza; _ } =
    span "core.import" (fun () -> Clarify.Naming.import_route_map_snippet ~db ~snippet rm)
  in
  let bs = span "engine.sweep.rm" (fun () -> D.boundaries ~db:db' ~target:target_map stanza) in
  let* o =
    span "core.search.rm" (fun () -> D.run ~precomputed:bs ~db:db' ~target:target_map ~stanza ~oracle ())
    |> Result.map_error (fun _ -> "inconsistent answers")
  in
  let db = span "core.place" (fun () -> Config.Database.add_route_map db' o.D.map) in
  Ok (db, List.map (fun q -> B.Route_map_q q) o.D.questions, List.length bs)

let composed_acl ~llm ~oracle ~db ~target ~prompt =
  let ( let* ) = Result.bind in
  let* target_acl = Option.to_result ~none:"no ACL" (Config.Database.acl db target) in
  let* () =
    match span "llm.classify" (fun () -> Llm.Mock_llm.classify llm prompt) with
    | `Acl -> Ok ()
    | `Route_map -> Error "classified as a route-map query"
  in
  let entry = Llm.Prompt_db.retrieve `Acl in
  let* rule, _, _ =
    span "llm.synth_verify" (fun () ->
        P.acl_synthesis_loop llm ~max_attempts:P.default_max_attempts ~entry ~prompt)
    |> Result.map_error P.error_to_string
  in
  let bs = span "engine.sweep.acl" (fun () -> AD.boundaries ~target:target_acl rule) in
  let* o =
    span "core.search.acl" (fun () -> AD.run ~precomputed:bs ~target:target_acl ~rule ~oracle ())
    |> Result.map_error (fun _ -> "inconsistent answers")
  in
  let db = span "core.place" (fun () -> Config.Database.add_acl db o.AD.acl) in
  Ok (db, List.map (fun q -> B.Acl_q q) o.AD.questions, List.length bs)

let composed_item ~llm ~rm ~acl ~db = function
  | B.Route_map_update { target; prompt } -> composed_rm ~llm ~oracle:rm ~db ~target ~prompt
  | B.Acl_update { target; prompt } -> composed_acl ~llm ~oracle:acl ~db ~target ~prompt

(* A batch composed as the sequential updates it must equal, with the
   batch's shared answer cache in front of the operator. *)
let run_composed ~llm ~op ~db = function
  | Single item ->
      composed_item ~llm ~rm:op.rm ~acl:op.acl ~db item
      |> Result.map (fun (db, qs, b) -> { db; questions = [ qs ]; boundaries = b; saved = 0 })
  | Batch items ->
      span "bench.batch" @@ fun () ->
      let cache = AC.create () in
      let rm = AC.cached cache ~policy:rm_target ~view:D.view op.rm in
      let acl = AC.cached cache ~policy:acl_target ~view:AD.view op.acl in
      let rec go db qss b = function
        | [] -> Ok { db; questions = List.rev qss; boundaries = b; saved = AC.hits cache }
        | item :: rest -> (
            match composed_item ~llm ~rm ~acl ~db item with
            | Ok (db, qs, n) -> go db (qs :: qss) (b + n) rest
            | Error e -> Error e)
      in
      go db [] 0 items

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Every answer the operator gave is honoured by concrete semantics on
   the final policy, and the final policy agrees with the reference on
   every question's witness. Returns the violations. *)
let check (s : session) (op : operator) final =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match Config.Database.route_map final rm_target, Config.Database.route_map s.reference rm_target with
  | Some map, Some ref_map ->
      List.iter
        (fun ((q : D.question), a) ->
          let got = Config.Semantics.eval_route_map final map q.route in
          let promised = match a with D.Prefer_new -> q.if_new_first | D.Prefer_old -> q.if_old_first in
          if not (Config.Semantics.route_result_equal got promised) then
            fail "route %s: answer not honoured" (Format.asprintf "%a" Bgp.Route.pp q.route);
          let want = Config.Semantics.eval_route_map s.reference ref_map q.route in
          if not (Config.Semantics.route_result_equal got want) then
            fail "route %s: differs from the reference" (Format.asprintf "%a" Bgp.Route.pp q.route))
        op.rm_asked
  | _ -> fail "route-map %s missing" rm_target);
  (match Config.Database.acl final acl_target, Config.Database.acl s.reference acl_target with
  | Some acl, Some ref_acl ->
      List.iter
        (fun ((q : AD.question), a) ->
          let got = Config.Semantics.eval_acl acl q.packet in
          let promised = match a with D.Prefer_new -> q.if_new_first | D.Prefer_old -> q.if_old_first in
          if not (Config.Action.equal got promised) then
            fail "packet %s: answer not honoured" (Format.asprintf "%a" Config.Packet.pp q.packet);
          if not (Config.Action.equal got (Config.Semantics.eval_acl ref_acl q.packet)) then
            fail "packet %s: differs from the reference" (Format.asprintf "%a" Config.Packet.pp q.packet))
        op.acl_asked
  | _ -> fail "ACL %s missing" acl_target);
  List.rev !errors

(* The self-test's corrupted config: every update undone. *)
let corrupt (s : session) final =
  let base_map = Option.get (Config.Database.route_map s.base rm_target) in
  let base_acl = Option.get (Config.Database.acl s.base acl_target) in
  Config.Database.add_acl (Config.Database.add_route_map final base_map) base_acl

(* ------------------------------------------------------------------ *)
(* Running sessions                                                    *)
(* ------------------------------------------------------------------ *)

type request_log = {
  latency : float; (* seconds *)
  intents : int;
  reply : reply option; (* None when the request failed *)
}

type session_log = {
  requests : request_log list;
  asked : int; (* questions put to the operator *)
  errors : string list; (* failed requests and check violations *)
  llm_calls : int;
  verifies : int; (* verifier calls, read from the program's counter *)
  bdd_nodes : int; (* nodes the session's requests allocated *)
  heap_mb : float; (* largest heap seen after one of its requests *)
  cache_hits : int; (* symbolic compilation cache *)
  cache_misses : int;
}

let verify_counter = Obs.Counter.make "pipeline.verification_attempts"

(* Run one session in a fresh BDD manager, timing each request. The
   checks run after the last request, outside the timed region. [keep]
   retains each reply's config and questions. The heap's size after
   each request gives the session's peak. *)
let run_session ?flip ?(corrupt_final = false) ?(composed = false) ?(keep = false) (s : session) =
  let manager = Symbdd.Bdd.Manager.create () in
  let bdd0 = Symbdd.Bdd.Manager.stats manager in
  Symbdd.Bdd.with_manager manager @@ fun () ->
  let llm = Llm.Mock_llm.create () in
  let op = operator ?flip s in
  let v0 = Obs.Counter.value verify_counter in
  let errors = ref [] in
  let db = ref s.base in
  let heap = ref 0 in
  let logs =
    List.mapi
      (fun i req ->
        let t0 = Clock.now () in
        let result =
          if composed then
            Tracer.with_request i (fun () ->
                span "bench.request" (fun () -> run_composed ~llm ~op ~db:!db req))
          else run_request ~llm ~op ~db:!db req
        in
        let latency = Clock.now () -. t0 in
        heap := max !heap (Gc.quick_stat ()).heap_words;
        let reply =
          match result with
          | Ok r ->
              db := r.db;
              (* Only the traced run compares whole replies. *)
              Some (if keep then r else { r with db = Config.Database.empty; questions = [] })
          | Error e ->
              errors := Printf.sprintf "request %d: %s" i e :: !errors;
              None
        in
        { latency; intents = request_intents req; reply })
      s.requests
  in
  let final = if corrupt_final then corrupt s !db else !db in
  let bdd1 = Symbdd.Bdd.Manager.stats manager in
  {
    requests = logs;
    asked = List.length op.rm_asked + List.length op.acl_asked;
    errors = List.rev !errors @ check s op final;
    llm_calls = Llm.Mock_llm.total_calls llm;
    verifies = Obs.Counter.value verify_counter - v0;
    bdd_nodes = bdd1.nodes;
    heap_mb = float_of_int (!heap * (Sys.word_size / 8)) /. 1048576.;
    cache_hits = bdd1.cache_hits - bdd0.cache_hits;
    cache_misses = bdd1.cache_misses - bdd0.cache_misses;
  }

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let ms x = 1e3 *. x
let us x = 1e6 *. x

(* Set-up generates the stream and loads each base config from its
   text, as the CLI loads [-c FILE]. It runs [n] times, each after a
   speed sample; the streams must come out identical. Returns the
   stream and the (sample, raw seconds) pairs. *)
let setups = 9

let load ~size ~seed () =
  List.map
    (fun s -> { s with base = Config.Parser.parse_exn (Config.Parser.to_string s.base) })
    (generate ~size ~seed ())

let same_stream a b =
  let render ss =
    List.map (fun s -> (Config.Parser.to_string s.base, Config.Parser.to_string s.reference, s.requests)) ss
  in
  render a = render b

let setup ?(speed = Speed.create ()) ~n ~size ~seed () =
  Speed.repeated speed n ~same:same_stream (load ~size ~seed)

let errors_of logs = List.concat_map (fun l -> l.errors) logs
let requests_of logs = List.concat_map (fun l -> l.requests) logs
let latencies logs = List.map (fun r -> r.latency) (requests_of logs)
let intents_of logs = List.fold_left (fun a r -> a + r.intents) 0 (requests_of logs)

(* Each session starts from a collected heap, as a fresh process would.
   The end-to-end times are normalized for machine speed ({!Speed}):
   each pass by the median of the samples taken before its sessions,
   each after the collection, so that it does not pay for the garbage
   of the session before. *)
let timed ~size ~seed ~seconds =
  let speed = Speed.create () in
  let t0 = Clock.now () in
  let sessions, first_setup = setup ~speed ~n:1 ~size ~seed () in
  let pass () =
    let samples, logs =
      List.split
        (List.map
           (fun s ->
             Gc.full_major ();
             let k = Speed.sample speed in
             (k, run_session s))
           sessions)
    in
    (Stats.median samples, logs)
  in
  let first = pass () in
  (* The heap peak of a typical session: the median over the sessions. *)
  let peak_heap_mb = Stats.median (List.map (fun l -> l.heap_mb) (snd first)) in
  let again, more_setups = setup ~speed ~n:(setups - 1) ~size ~seed () in
  if not (same_stream sessions again) then failwith "session generation is not deterministic";
  let setup_times = first_setup @ more_setups in
  let runs = first :: Clock.repeat ~seconds:(seconds -. (Clock.now () -. t0)) pass in
  let logs = List.concat_map snd runs in
  let lat = latencies logs in
  let p50 = Stats.median lat in
  let work_per_s = float_of_int (intents_of logs) /. Stats.sum lat in
  let per_pass f = Stats.median (List.map (fun (k, p) -> f k p) runs) in
  let op_ms = per_pass (fun k p -> Speed.normalized k (ms (Stats.median (latencies p)))) in
  let norm_work =
    per_pass (fun k p -> float_of_int (intents_of p) /. Speed.normalized k (Stats.sum (latencies p)))
  in
  let runs = List.map snd runs and first = snd first in
  let pass_intents = List.fold_left (fun a (s : session) -> a + s.intents) 0 sessions in
  let asked = List.fold_left (fun a l -> a + l.asked) 0 first in
  let errors = errors_of logs in
  let p99 =
    match Stats.percentile lat 99. with
    | Some v -> Printf.sprintf "update_p99_ms %.3f raw (n=%d)" (ms v) (List.length lat)
    | None -> Printf.sprintf "update_p99_ms unsupported (n=%d < 1000)" (List.length lat)
  in
  {
    Outcome.attempted = List.length lat;
    failed = min (List.length lat) (List.length errors);
    metrics =
      [
        Outcome.metric "setup_s" (Speed.median_normalized setup_times);
        Outcome.metric "peak_heap_mb" peak_heap_mb;
        Outcome.metric "op_ms" op_ms;
        Outcome.metric "work_per_s" norm_work;
      ];
    notes =
      [
        Speed.note speed;
        Printf.sprintf "update_p50_ms %.3f raw (n=%d, %d passes)" (ms p50) (List.length lat)
          (List.length runs);
        p99;
        Printf.sprintf "intents_per_s %.2f raw" work_per_s;
        Printf.sprintf "setup_s %.4f raw" (Speed.median_raw setup_times);
        Printf.sprintf "peak_heap_mb of the process %.3f" (Outcome.peak_heap_mb ());
        "pass_p50_ms "
        ^ String.concat " "
            (List.map (fun p -> Printf.sprintf "%.3f" (ms (Stats.median (latencies p)))) runs);
        Printf.sprintf "questions_per_intent %.4f (%d intents)"
          (float_of_int asked /. float_of_int pass_intents) pass_intents;
      ]
      @ List.filteri (fun i _ -> i < 5) errors;
  }

(* The traced run: an untraced pass over the stream, then traced passes
   composed from the building blocks until the time is up. The first
   traced pass must reproduce the untraced one request for request. *)
let traced ~size ~seed ~seconds =
  let sessions, _ = setup ~n:1 ~size ~seed () in
  let n = List.length sessions in
  (* The first untraced pass warms the process up; the second is the
     baseline for the overhead and the equivalence check. *)
  let plain =
    List.iter (fun s -> Gc.full_major (); ignore (run_session s)) sessions;
    List.map (fun s -> Gc.full_major (); run_session ~keep:true s) sessions
  in
  Obs.enable ();
  Tracer.reset ();
  Tracer.enable ();
  let traced_logs =
    List.concat
      (Clock.repeat ~seconds (fun () ->
           List.map
             (fun s ->
               Obs.reset ();
               Gc.full_major ();
               run_session ~composed:true ~keep:true s)
             sessions))
  in
  Tracer.disable ();
  Obs.disable ();
  let spans = Tracer.spans () in
  let first = List.filteri (fun i _ -> i < n) traced_logs in
  let mismatches =
    List.concat
      (List.map2
         (fun (a : session_log) (b : session_log) ->
           List.concat
             (List.mapi
                (fun i ((x : request_log), (y : request_log)) ->
                  match x.reply, y.reply with
                  | Some p, Some q
                    when Config.Parser.to_string p.db = Config.Parser.to_string q.db
                         && p.questions = q.questions && p.saved = q.saved -> []
                  | _ -> [ Printf.sprintf "request %d: traced composition differs from the program" i ])
                (List.combine a.requests b.requests)))
         plain first)
  in
  (* Batches are composed as sequential updates, so the overhead
     compares single updates only. *)
  let singles logs =
    Stats.sum
      (List.filter_map (fun r -> if r.intents = 1 then Some r.latency else None) (requests_of logs))
  in
  let t_plain = singles plain and t_traced = singles first in
  let all = traced_logs in
  let intents = intents_of all in
  let fi = float_of_int intents in
  let p50 name = Stats.median (Tracer.named name spans) in
  let p99 name = Stats.capped (Tracer.named name spans) 99. in
  let batch_reqs = List.filter (fun r -> r.intents > 1) (requests_of plain) in
  let batches = List.filter_map (fun r -> r.reply) batch_reqs in
  let batch_lat = List.map (fun r -> r.latency) batch_reqs in
  let saved = List.fold_left (fun a r -> a + r.saved) 0 batches in
  let batch_qs = List.fold_left (fun a r -> a + List.length (List.concat r.questions)) 0 batches in
  let sum_bdd f = float_of_int (List.fold_left (fun a l -> a + f l) 0 all) in
  let hits = sum_bdd (fun l -> l.cache_hits) in
  let misses = sum_bdd (fun l -> l.cache_misses) in
  let boundaries =
    List.fold_left
      (fun a r -> a + match r.reply with Some p -> p.boundaries | None -> 0)
      0 (requests_of all)
  in
  let by_layer = Tracer.self_by_layer ~root:"bench.request" spans in
  let errors = errors_of plain @ errors_of traced_logs @ mismatches in
  let reqs = requests_of (plain @ traced_logs) in
  {
    Outcome.attempted = List.length reqs;
    failed = min (List.length reqs) (List.length errors);
    metrics =
      [
        Outcome.metric "llm.classify_us_p50" (us (p50 "llm.classify"));
        Outcome.metric "llm.spec_us_p50" (us (p50 "llm.spec"));
        Outcome.metric "llm.synth_verify_us_p50" (us (p50 "llm.synth_verify"));
        Outcome.metric "llm.calls_per_intent"
          (float_of_int (List.fold_left (fun a l -> a + l.llm_calls) 0 all) /. fi);
        Outcome.metric "engine.verify_attempts_per_intent"
          (float_of_int (List.fold_left (fun a l -> a + l.verifies) 0 all) /. fi);
        Outcome.metric "core.import_us_p50" (us (p50 "core.import"));
        Outcome.metric "engine.sweep_ms_p50.rm" (ms (p50 "engine.sweep.rm"));
        Outcome.metric "engine.sweep_ms_p50.acl" (ms (p50 "engine.sweep.acl"));
        Outcome.metric "engine.sweep_ms_p99.rm" (ms (p99 "engine.sweep.rm"));
        Outcome.metric "engine.sweep_ms_p99.acl" (ms (p99 "engine.sweep.acl"));
        Outcome.metric "engine.boundaries_per_intent" (float_of_int boundaries /. fi);
        Outcome.metric "core.search_us_p50"
          (us (Stats.median (Tracer.named "core.search.rm" spans @ Tracer.named "core.search.acl" spans)));
        Outcome.metric "core.batch_ms_p50" (ms (Stats.median batch_lat));
        Outcome.metric "core.batch_questions_saved_ratio"
          (Stats.ratio (float_of_int saved) (float_of_int batch_qs));
        Outcome.metric "core.questions_per_intent"
          (float_of_int (List.fold_left (fun a l -> a + l.asked) 0 all) /. fi);
        Outcome.metric "bdd.nodes_per_op" (sum_bdd (fun l -> l.bdd_nodes) /. fi);
        Outcome.metric "bdd.compile_cache_hit_ratio" (Stats.ratio hits (hits +. misses));
        Outcome.metric "trace.overhead_pct" (100. *. ((t_traced /. t_plain) -. 1.));
      ]
      @ List.map (fun (l, share) -> Outcome.metric ("self_share." ^ l) share) by_layer;
    notes =
      [
        Printf.sprintf "sweeps traced: rm %d, acl %d; requests traced %d"
          (List.length (Tracer.named "engine.sweep.rm" spans))
          (List.length (Tracer.named "engine.sweep.acl" spans))
          (List.length (Tracer.named "bench.request" spans));
      ]
      @ List.filteri (fun i _ -> i < 5) errors;
  }
