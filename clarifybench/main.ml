(* The Clarify benchmark.

     main.exe --workload session|fleet-sim|audit --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds and prints, as the last line
   of standard output, one JSON object: whether every output checked
   out, operations attempted and failed, and the metrics (end-to-end
   with --trace 0, per-layer with --trace 1). Human-readable notes go
   to standard error; a traced run also writes its spans to
   .bench_out/trace-<workload>-<seed>.jsonl. *)

let usage = "main.exe --workload session|fleet-sim|audit --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "session, fleet-sim or audit");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "1 for the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let outcome =
    match !workload with
    | "session" ->
        if trace then Cbench.Session.traced ~size:Cbench.Session.default_size ~seed ~seconds
        else Cbench.Session.timed ~size:Cbench.Session.default_size ~seed ~seconds
    | "fleet-sim" -> Cbench.Fleet.run ~trace ~seconds ()
    | "audit" -> Cbench.Audit.run ~seed ~trace ~seconds ()
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  (* fleet-sim's input does not depend on the seed; it is recorded all
     the same. *)
  Printf.eprintf "workload %s, seed %d, %g s\n" !workload seed seconds;
  List.iter prerr_endline outcome.Cbench.Outcome.notes;
  if trace then begin
    if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
    Cbench.Tracer.write_jsonl
      (Printf.sprintf ".bench_out/trace-%s-%d.jsonl" !workload seed)
      (Cbench.Tracer.spans ())
  end;
  let correct = outcome.failed = 0 in
  print_endline (Cbench.Outcome.to_json ~correct ~trace outcome)
