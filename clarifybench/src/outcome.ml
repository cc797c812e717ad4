(* What one workload run reports: operations
   attempted and failed (an operation fails when it errors or its output
   check fails), named metrics with units, and human-readable notes for
   standard error. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

(* End-to-end metrics: every workload reports all of them. The
   operation and the unit of work are the workload's own (see
   README.md): a session request and an intent, a verified fleet and a
   router, an audit sweep and an ACL. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("op_ms", "ms");
    ("work_per_s", "1/s");
  ]

let self_layers =
  [ "bench"; "llm"; "core"; "engine"; "netgen"; "netsim"; "parallel"; "overlap"; "bdd" ]

(* Per-layer metrics of the traced run; a workload that does not reach
   a layer reports 0 for it. *)
let per_layer =
  [
    ("llm.classify_us_p50", "us");
    ("llm.spec_us_p50", "us");
    ("llm.synth_verify_us_p50", "us");
    ("llm.calls_per_intent", "count");
    ("engine.verify_attempts_per_intent", "count");
    ("core.import_us_p50", "us");
    ("engine.sweep_ms_p50.rm", "ms");
    ("engine.sweep_ms_p50.acl", "ms");
    ("engine.sweep_ms_p99.rm", "ms");
    ("engine.sweep_ms_p99.acl", "ms");
    ("engine.boundaries_per_intent", "count");
    ("core.search_us_p50", "us");
    ("core.batch_ms_p50", "ms");
    ("core.batch_questions_saved_ratio", "ratio");
    ("core.questions_per_intent", "count");
    ("bdd.nodes_per_op", "count");
    ("bdd.compile_cache_hit_ratio", "ratio");
    ("netgen.generate_s", "s");
    ("netgen.policy_compile_s", "s");
    ("bdd.base_freeze_s", "s");
    ("core.router_ms_p50", "ms");
    ("core.router_ms_p95", "ms");
    ("parallel.map_s", "s");
    ("parallel.utilization", "ratio");
    ("netgen.install_s", "s");
    ("netsim.run_s", "s");
    ("netsim.rounds", "count");
    ("netsim.rib_entries", "count");
    ("netgen.check_s", "s");
    ("workload.generate_s", "s");
    ("overlap.acl_s", "s");
    ("overlap.route_map_s", "s");
    ("overlap.acl_us_p50", "us");
    ("overlap.acl_us_p95", "us");
    ("overlap.pairs", "count");
    ("trace.overhead_pct", "%");
  ]
  @ List.map (fun l -> ("self_share." ^ l, "ratio")) self_layers

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let metric name value =
  let unit_ =
    match List.assoc_opt name (end_to_end @ per_layer) with
    | Some u -> u
    | None -> invalid_arg ("unknown metric " ^ name)
  in
  { name; value; unit_ }

(* The metrics a run prints: exactly [catalogue], in its order. A
   per-layer metric the workload does not produce reads 0; a missing
   end-to-end metric is a bug. *)
let select ~trace metrics =
  let catalogue = if trace then per_layer else end_to_end in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) metrics with
      | Some m -> m
      | None when trace -> { name; value = 0.; unit_ }
      | None -> failwith ("workload did not report " ^ name))
    catalogue

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let to_json ~correct ~trace (o : t) =
  let metrics =
    select ~trace o.metrics
    |> List.map (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed
    (String.concat ", " metrics)
