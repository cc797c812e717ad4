(* The [fleet-sim] workload: the fleet operator's time to a verified
   fleet. One operation is E5's fleet run with simulation, composed
   from its public steps so that set-up (topology generation, policy
   compilation, the frozen BDD base) is timed apart from the work:
   every router synthesized on a [Parallel.Pool], the configs installed
   into the topology, BGP simulated to a fixpoint and the four fleet
   probes checked.

   The fat-tree is a pure function of its size, so this workload
   records the seed but its input does not vary with it. *)

module E5 = Evaluation.E5_fleet

let default_routers = 256
let domains () = max 1 (min 4 (Domain.recommended_domain_count ()))

type setup = {
  net : Netgen.t;
  plans : Netgen.Policy.plan list;
  base : Symbdd.Bdd.Manager.t; (* frozen shared prefix ranges *)
  generate_s : float;
  compile_s : float;
  freeze_s : float;
}

let span = Tracer.span

let setup_once ~routers =
  let net, generate_s =
    Clock.timed (fun () -> Netgen.generate ~profile:Netgen.Fat_tree ~routers)
  in
  let plans, compile_s = Clock.timed (fun () -> Netgen.Policy.compile net) in
  let base, freeze_s =
    Clock.timed (fun () ->
        let base = Symbdd.Bdd.Manager.create () in
        Symbdd.Bdd.with_manager base (fun () ->
            List.iter
              (fun r -> ignore (Symbolic.Route_ctx.of_prefix_range r))
              (Netgen.Policy.shared_ranges ()));
        Symbdd.Bdd.Manager.freeze base;
        base)
  in
  { net; plans; base; generate_s; compile_s; freeze_s }

(* 25 set-ups of about 20 ms, each after a speed sample; their medians
   are the set-up metrics, with the (sample, raw seconds) pairs. *)
let setup ?(speed = Speed.create ()) ~routers () =
  let runs = ref [] in
  let same a b = a.plans = b.plans in
  let first, times =
    Speed.repeated speed 25 ~same (fun () ->
        let s = setup_once ~routers in
        runs := (s.generate_s, s.compile_s, s.freeze_s) :: !runs;
        s)
  in
  let med f = Stats.median (List.map f !runs) in
  ( first,
    times,
    [
      Outcome.metric "netgen.generate_s" (med (fun (g, _, _) -> g));
      Outcome.metric "netgen.policy_compile_s" (med (fun (_, c, _) -> c));
      Outcome.metric "bdd.base_freeze_s" (med (fun (_, _, f) -> f));
    ] )

type op = {
  wall : float; (* the four phases *)
  norm : float; (* the same, normalized for machine speed *)
  routers : E5.router_result list;
  map_s : float;
  install_s : float;
  sim_s : float;
  check_s : float;
  state : Netsim.Simulator.state;
  checks : Netgen.check list;
}

(* A full major collection first, outside the timing, so that no
   operation pays for the garbage of the one before it. Speed samples
   come before the pooled synthesis and before the serial phases,
   outside both timings.

   The pool's workers are shut down after the synthesis, outside the
   timing, and respawned by the next run's map, as a fresh process
   spawns them. While worker domains are parked, every minor collection
   of the serial phases waits for them to answer. On the 2-CPU dev VM
   that wait moved between about 15 us and 175 us per collection from
   one spell of minutes to the next, and a simulation makes about 970
   minor collections. The serial phases therefore run with no worker
   domains alive. *)
let run_op ?(speed = Speed.create ()) ~pool (s : setup) =
  Gc.full_major ();
  let k_map = Speed.steady speed in
  span "bench.fleet" @@ fun () ->
  E5.reset_fleet ~routers:(List.length s.plans);
  let routers, map_s =
    Clock.timed (fun () ->
        span "parallel.map" (fun () ->
            let parent = Tracer.current_span () in
            Parallel.Pool.map pool
              ~f:(fun plan -> span ~parent "core.router" (fun () -> E5.build_router ~bdd_base:s.base plan))
              s.plans))
  in
  Parallel.Pool.shutdown ();
  let k_serial = Speed.steady speed in
  let topo, install_s =
    Clock.timed (fun () ->
        span "netgen.install" (fun () ->
            Netgen.install s.net
              (List.map (fun (r : E5.router_result) -> (r.router, r.config)) routers)))
  in
  let state, sim_s = Clock.timed (fun () -> span "netsim.run" (fun () -> Netsim.Simulator.run topo)) in
  let checks, check_s =
    Clock.timed (fun () -> span "netgen.check" (fun () -> Netgen.check s.net state))
  in
  let serial_s = install_s +. sim_s +. check_s in
  {
    wall = map_s +. serial_s;
    norm = Speed.normalized k_map map_s +. Speed.normalized k_serial serial_s;
    routers;
    map_s;
    install_s;
    sim_s;
    check_s;
    state;
    checks;
  }

(* A verified fleet: every router synthesized, the simulation converged
   and all four probes passed. *)
let check ~routers (o : op) =
  let errors = ref [] in
  let fail m = errors := m :: !errors in
  if List.length o.routers <> routers then fail "router count";
  if not o.state.Netsim.Simulator.converged then fail "simulation did not converge";
  if List.length o.checks <> 4 then fail "expected four fleet probes";
  List.iter
    (fun (c : Netgen.check) -> if not c.ok then fail ("probe failed: " ^ c.name ^ " " ^ c.detail))
    o.checks;
  List.rev !errors

let rib_entries (st : Netsim.Simulator.state) =
  Netsim.Simulator.Smap.fold
    (fun _ m acc -> acc + Netsim.Simulator.Pmap.cardinal m)
    st.Netsim.Simulator.ribs 0

let run ?(routers = default_routers) ~trace ~seconds () =
  let domains = domains () in
  let pool = Parallel.Pool.create ~domains () in
  let speed = Speed.create () in
  let s, setup_times, setup_metrics = setup ~speed ~routers () in
  (* The heap peak over the set-ups and the first [peak_runs] fleet runs.
     The two domains' collections interleave differently each time, so
     one run's peak varies; the process's peak over the whole run rises
     with the number of runs, which a faster program would raise. *)
  let peak_runs = 5 and count = ref 0 and peak = ref Float.nan in
  let run_op () =
    let o = run_op ~speed ~pool s in
    incr count;
    if !count = peak_runs then peak := Outcome.peak_heap_mb ();
    o
  in
  (* A traced run first makes a warm-up and an untraced operation, the
     baseline for the tracing overhead. *)
  let plain = if trace then (ignore (run_op ()); [ run_op () ]) else [] in
  if trace then (Tracer.reset (); Tracer.enable ());
  let ops = plain @ Clock.repeat ~seconds run_op in
  Tracer.disable ();
  let peak_heap_mb = if !count >= peak_runs then !peak else Outcome.peak_heap_mb () in
  let measured = if trace then List.tl ops else ops in
  let errors = List.concat_map (check ~routers) ops in
  let failed = List.length (List.filter (fun o -> check ~routers o <> []) ops) in
  let med f = Stats.median (List.map f measured) in
  let wall = med (fun o -> o.wall) in
  let norm_wall = med (fun o -> o.norm) in
  let sim_share = med (fun o -> o.sim_s /. o.wall) in
  let notes =
    [
      Speed.note speed;
      Printf.sprintf "fleet_wall_s %.4f raw median of %d runs (%d routers, %d domains); setup_s %.4f raw"
        wall (List.length measured) routers domains (Speed.median_raw setup_times);
      Printf.sprintf "simulation share of fleet wall %.3f" sim_share;
      "runs_s " ^ String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.wall) measured);
    ]
    @ List.filteri (fun i _ -> i < 5) errors
  in
  let metrics =
    if not trace then
      [
        Outcome.metric "setup_s" (Speed.median_normalized setup_times);
        Outcome.metric "peak_heap_mb" peak_heap_mb;
        Outcome.metric "op_ms" (1e3 *. norm_wall);
        (* op_ms restated, so that every workload reports every metric *)
        Outcome.metric "work_per_s" (float_of_int routers /. norm_wall);
      ]
    else
      let spans = Tracer.spans () in
      let rw =
        List.concat_map (fun o -> List.map (fun (r : E5.router_result) -> r.wall_ns /. 1e9) o.routers) measured
      in
      let router p = 1e3 *. Stats.capped rw p in
      setup_metrics
      @ [
          Outcome.metric "core.router_ms_p50" (router 50.);
          Outcome.metric "core.router_ms_p95" (router 95.);
          Outcome.metric "parallel.map_s" (med (fun o -> o.map_s));
          Outcome.metric "parallel.utilization"
            (Stats.sum rw
            /. (Stats.sum (List.map (fun o -> o.map_s) measured) *. float_of_int domains));
          Outcome.metric "netgen.install_s" (med (fun o -> o.install_s));
          Outcome.metric "netsim.run_s" (med (fun o -> o.sim_s));
          Outcome.metric "netsim.rounds" (med (fun o -> float_of_int o.state.Netsim.Simulator.rounds));
          Outcome.metric "netsim.rib_entries" (med (fun o -> float_of_int (rib_entries o.state)));
          Outcome.metric "netgen.check_s" (med (fun o -> o.check_s));
          Outcome.metric "core.questions_per_intent"
            (med (fun o ->
                 let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 o.routers) in
                 sum (fun r -> r.E5.questions) /. sum (fun r -> r.E5.steps)));
          Outcome.metric "trace.overhead_pct"
            (100. *. ((wall /. (List.hd plain).wall) -. 1.));
        ]
      @ List.map
          (fun (l, share) -> Outcome.metric ("self_share." ^ l) share)
          (Tracer.self_by_layer ~root:"bench.fleet" spans)
  in
  {
    Outcome.attempted = List.length ops;
    failed;
    metrics;
    notes;
  }
