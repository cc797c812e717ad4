(* The [audit] workload: the paper's Section 3.2 campus overlap study,
   run serially on a seeded campus corpus. One operation is a whole
   audit: [Overlap.Corpus.summarize_acls] then [summarize_route_maps].
   No LLM, disambiguation or simulation is involved; the work is
   symbolic compilation, BDDs and pairwise overlap. *)

module C = Overlap.Corpus

let default_scale = 0.25
let witness_acls = 24
let span = Tracer.span

(* 25 generations, each after a speed sample; they must agree. One
   takes about 10 ms, so it takes that many for a steady median.
   Returns the corpus and the (sample, raw seconds) pairs. *)
let setup ?(speed = Speed.create ()) ~scale ~seed () =
  let same (a : Workload.Campus.t) (b : Workload.Campus.t) =
    a.acls = b.acls
    && Config.Parser.to_string a.route_map_db = Config.Parser.to_string b.route_map_db
  in
  Speed.repeated speed 25 ~same (fun () -> Workload.Campus.generate ~seed ~scale ())

type op = {
  kernel_s : float; (* the speed sample it is normalized by *)
  norm_s : float; (* [acl_s] and [route_map_s], normalized for machine speed *)
  norm_acl_s : float;
  acls : C.acl_summary;
  route_maps : C.route_map_summary;
  acl_s : float;
  route_map_s : float;
}

let wall o = o.acl_s +. o.route_map_s

(* One sweep: [summarize_acls] then [summarize_route_maps], each one
   call on the whole corpus. A full major collection and a speed sample
   ({!Speed}, the median of nine kernels) come before and after it,
   outside the timing, so that no sweep pays for the garbage of the one
   before it and no sample pays for the sweep's. The sweep is
   normalized by the mean of the two samples. *)
let run_op ?(speed = Speed.create ()) (corpus : Workload.Campus.t) =
  let sample () =
    Gc.full_major ();
    Speed.steady speed
  in
  let before = sample () in
  let acls, acl_s = Clock.timed (fun () -> C.summarize_acls corpus.acls) in
  let route_maps, route_map_s =
    Clock.timed (fun () -> C.summarize_route_maps corpus.route_map_db corpus.route_maps)
  in
  let k = (before +. sample ()) /. 2. in
  {
    kernel_s = k;
    norm_s = Speed.normalized k (acl_s +. route_map_s);
    norm_acl_s = Speed.normalized k acl_s;
    acls;
    route_maps;
    acl_s;
    route_map_s;
  }

(* The E3 calibration: the measured shares reproduce the paper's within
   the rounding a quarter-scale corpus allows. *)
let calibration (o : op) =
  let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b in
  let a = o.acls and r = o.route_maps in
  [
    ("ACLs with conflicting overlaps", pct a.with_conflicts a.total, 37.7, 1.5);
    ("of those, with >20 conflicts", pct a.heavy_conflicts a.with_conflicts, 27.0, 3.0);
    ("ACLs with non-trivial overlaps", pct a.with_nontrivial a.total, 18.6, 1.5);
    ("of those, with >20", pct a.heavy_nontrivial a.with_nontrivial, 16.3, 3.0);
    ("route-maps with overlapping stanzas", float_of_int r.rm_with_overlaps, 2., 0.);
    ("max stanza pairs in one route-map", float_of_int r.rm_max_overlaps, 3., 0.);
  ]
  |> List.filter_map (fun (q, measured, paper, tol) ->
         if Float.abs (measured -. paper) <= tol then None
         else Some (Printf.sprintf "%s: measured %.2f, paper %.2f" q measured paper))

(* A seeded sample of reported pairs: each witness packet must match
   both rules of its pair under concrete semantics. Returns (checked,
   violations). *)
let witnesses ~seed (corpus : Workload.Campus.t) =
  let rng = Random.State.make [| seed; 0xa0d17 |] in
  let with_rules =
    Array.of_list (List.filter (fun (a : Config.Acl.t) -> List.length a.rules > 1) corpus.acls)
  in
  Symbdd.Bdd.with_manager (Symbdd.Bdd.Manager.create ()) @@ fun () ->
  let checked = ref 0 and bad = ref [] in
  for _ = 1 to witness_acls do
    let acl = with_rules.(Random.State.int rng (Array.length with_rules)) in
    let pairs = Array.of_list (Overlap.Acl_overlap.pairs acl) in
    if Array.length pairs > 0 then
      for _ = 1 to 3 do
        let p = pairs.(Random.State.int rng (Array.length pairs)) in
        incr checked;
        match Overlap.Acl_overlap.witness p with
        | Some pkt
          when Config.Acl.match_rule p.rule_a pkt && Config.Acl.match_rule p.rule_b pkt -> ()
        | _ -> bad := Printf.sprintf "ACL %s: bad witness" acl.name :: !bad
      done
  done;
  (!checked, !bad)

(* The traced audit: the ACL sweep composed as the serial
   [summarize_acls] performs it (every rule compiled into a frozen base,
   then each ACL analysed in a delta on it), so that each
   [Acl_overlap.analyze] call gets its own span. The delta is reset
   every [reset_period] analyses of a running count kept across the
   sweeps, the rule [Corpus] applies per domain across a process; the
   count includes the route-map analyses. Its summary must equal the
   untraced one, so it is summarized as [summarize_acls] does. *)
let reset_period = 512

let summarize (stats : Overlap.Acl_overlap.stats list) =
  let count f = List.length (List.filter f stats) and heavy = C.default_threshold in
  {
    C.total = List.length stats;
    with_overlaps = count (fun s -> s.overlap_pairs > 0);
    heavy_overlaps = count (fun s -> s.overlap_pairs > heavy);
    with_conflicts = count (fun s -> s.conflict_pairs > 0);
    heavy_conflicts = count (fun s -> s.conflict_pairs > heavy);
    with_nontrivial = count (fun s -> s.nontrivial_conflicts > 0);
    heavy_nontrivial = count (fun s -> s.nontrivial_conflicts > heavy);
    max_overlaps = List.fold_left (fun m (s : Overlap.Acl_overlap.stats) -> max m s.overlap_pairs) 0 stats;
  }

type traced = {
  analyses : int ref; (* the running count *)
  mutable nodes : int;
  mutable hits : int;
  mutable misses : int;
}

let composed_acls t acls =
  let take (a : Symbdd.Bdd.Manager.stats) (b : Symbdd.Bdd.Manager.stats) =
    t.nodes <- t.nodes + b.nodes - a.nodes;
    t.hits <- t.hits + b.cache_hits - a.cache_hits;
    t.misses <- t.misses + b.cache_misses - a.cache_misses
  in
  let base =
    span "bdd.prewarm" (fun () ->
        let base = Symbdd.Bdd.Manager.create () in
        Symbdd.Bdd.with_manager base (fun () ->
            List.iter
              (fun (a : Config.Acl.t) ->
                List.iter (fun r -> ignore (Symbolic.Packet_space.of_rule r)) a.rules)
              acls);
        Symbdd.Bdd.Manager.freeze base;
        base)
  in
  take (Symbdd.Bdd.Manager.stats (Symbdd.Bdd.Manager.create ())) (Symbdd.Bdd.Manager.stats base);
  let delta = Symbdd.Bdd.Manager.create_delta base in
  let st () = Symbdd.Bdd.Manager.stats delta in
  span "overlap.acls" (fun () ->
      Symbdd.Bdd.with_manager delta (fun () ->
          let mark = ref (st ()) in
          let r =
            List.map
              (fun acl ->
                incr t.analyses;
                if !(t.analyses) mod reset_period = 0 then begin
                  take !mark (st ());
                  Symbdd.Bdd.Manager.reset delta;
                  mark := st ()
                end;
                span "overlap.acl" (fun () -> Overlap.Acl_overlap.analyze acl))
              acls
          in
          take !mark (st ());
          r))

let composed_op t (corpus : Workload.Campus.t) =
  Gc.full_major ();
  span "bench.audit" @@ fun () ->
  let stats, acl_s = Clock.timed (fun () -> composed_acls t corpus.acls) in
  let route_maps, route_map_s =
    Clock.timed (fun () ->
        span "overlap.route_maps" (fun () ->
            C.summarize_route_maps corpus.route_map_db corpus.route_maps))
  in
  t.analyses := !(t.analyses) + List.length corpus.route_maps;
  ( { kernel_s = Float.nan; norm_s = Float.nan; norm_acl_s = Float.nan; acls = summarize stats; route_maps; acl_s; route_map_s },
    stats )

let run ?(scale = default_scale) ~seed ~trace ~seconds () =
  let speed = Speed.create () in
  let corpus, setup_times = setup ~speed ~scale ~seed () in
  let n_acls = List.length corpus.acls in
  let checked, bad = witnesses ~seed corpus in
  if not trace then begin
    let ops = Clock.repeat ~seconds (fun () -> run_op ~speed corpus) in
    let peak_heap_mb = Outcome.peak_heap_mb () in
    let errors = List.concat_map calibration ops in
    let med f = Stats.median (List.map f ops) in
    {
      Outcome.attempted = List.length ops + checked;
      failed = List.length (List.filter (fun o -> calibration o <> []) ops) + List.length bad;
      metrics =
        [
          Outcome.metric "setup_s" (Speed.median_normalized setup_times);
          Outcome.metric "peak_heap_mb" peak_heap_mb;
          Outcome.metric "op_ms" (1e3 *. med (fun o -> o.norm_s));
          Outcome.metric "work_per_s" (float_of_int n_acls /. med (fun o -> o.norm_acl_s));
        ];
      notes =
        [
          Speed.note speed;
          Printf.sprintf "audit_s %.4f raw (median of %d sweeps, %d ACLs, %d rules); setup_s %.4f raw"
            (med wall) (List.length ops) n_acls
            (List.fold_left (fun a (x : Config.Acl.t) -> a + List.length x.rules) 0 corpus.acls)
            (Speed.median_raw setup_times);
          Printf.sprintf "audit_acls_per_s %.1f raw" (float_of_int n_acls /. med (fun o -> o.acl_s));
          Printf.sprintf "witnesses checked %d" checked;
          "sweeps_s " ^ String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" (wall o)) ops);
          "sweep_kernels_ms " ^ String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" (1e3 *. o.kernel_s)) ops);
        ]
        @ List.filteri (fun i _ -> i < 5) (errors @ bad);
    }
  end
  else begin
    let plain = run_op corpus in
    (* The untraced sweep has made this many analyses so far. *)
    let t =
      { analyses = ref (n_acls + List.length corpus.route_maps); nodes = 0; hits = 0; misses = 0 }
    in
    Tracer.reset ();
    Tracer.enable ();
    let ops = Clock.repeat ~seconds (fun () -> composed_op t corpus) in
    Tracer.disable ();
    let spans = Tracer.spans () in
    let mismatches =
      List.filter (fun ((o : op), _) -> o.acls <> plain.acls || o.route_maps <> plain.route_maps) ops
    in
    let errors = calibration plain @ List.concat_map (fun (o, _) -> calibration o) ops in
    let per_acl = Tracer.named "overlap.acl" spans in
    let pct p = 1e6 *. Stats.capped per_acl p in
    let med f = Stats.median (List.map (fun (o, _) -> f o) ops) in
    let pairs =
      List.fold_left (fun a (s : Overlap.Acl_overlap.stats) -> a + s.overlap_pairs) 0 (snd (List.hd ops))
    in
    let analyses = float_of_int (n_acls * List.length ops) in
    {
      Outcome.attempted = 1 + List.length ops + checked;
      failed = List.length mismatches + List.length errors + List.length bad;
      metrics =
        [
          Outcome.metric "workload.generate_s" (Speed.median_raw setup_times);
          Outcome.metric "overlap.acl_s" (med (fun o -> o.acl_s));
          Outcome.metric "overlap.route_map_s" (med (fun o -> o.route_map_s));
          Outcome.metric "overlap.acl_us_p50" (pct 50.);
          Outcome.metric "overlap.acl_us_p95" (pct 95.);
          Outcome.metric "overlap.pairs" (float_of_int pairs);
          Outcome.metric "bdd.nodes_per_op" (float_of_int t.nodes /. analyses);
          Outcome.metric "bdd.compile_cache_hit_ratio"
            (Stats.ratio (float_of_int t.hits) (float_of_int (t.hits + t.misses)));
          Outcome.metric "trace.overhead_pct" (100. *. ((med wall /. wall plain) -. 1.));
        ]
        @ List.map
            (fun (l, share) -> Outcome.metric ("self_share." ^ l) share)
            (Tracer.self_by_layer ~root:"bench.audit" spans);
      notes =
        [ Printf.sprintf "traced sweeps %d, ACL analyses traced %d" (List.length ops) (List.length per_acl) ]
        @ List.filteri (fun i _ -> i < 5) (errors @ bad);
    }
  end
