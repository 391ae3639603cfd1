(* The end-to-end benchmark.

     perfbench --workload attack-sync|cert-async|solve-stream
               --seed N --seconds S --trace 0|1

   Runs one workload in this process, checks its outputs against
   independent oracles, and prints as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones
   of a separate traced run.  Exits 1 when an output is wrong. *)

(* name, unit — the catalogue BENCHMARK.json lists. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "op/s"); ("peak_rss_mb", "MB");
    ("msgs_per_op", "messages"); ("bits_per_op", "bit");
    ("decide_round_mean", "rounds"); ("cmd_us_p50", "us");
    ("cmd_us_p99", "us") ]

let per_layer =
  [ ("hc.set_hit_ratio", "ratio"); ("hc.restrict_hit_ratio", "ratio");
    ("hc.join_hit_ratio", "ratio"); ("hc.live_structures", "count");
    ("service.create_s", "s"); ("service.parse_s", "s");
    ("service.apply_s", "s"); ("service.query_s", "s");
    ("service.cache_hit_ratio", "ratio");
    ("service.witness_reuse_ratio", "ratio"); ("cut.searches", "count");
    ("cut.visited_per_search", "count"); ("pka.receiver_step_s", "s");
    ("cert.decision_s", "s"); ("pka.relay_step_s", "s"); ("ppa.step_s", "s");
    ("zcpa.step_s", "s"); ("cert.step_s", "s");
    ("automaton.decision_s", "s"); ("pka.sends_per_step", "count");
    ("cert.sends_per_step", "count"); ("cert.load_per_op", "count");
    ("cert.echo_per_op", "count"); ("cert.tick_per_op", "count");
    ("cert.evidence_per_op", "count"); ("engine.self_s", "s");
    ("engine.deliveries_per_s", "1/s"); ("sim.self_s", "s");
    ("sim.deliveries_per_s", "1/s"); ("sim.delayed_per_op", "count");
    ("sim.dropped_per_op", "count"); ("sim.dup_per_op", "count");
    ("rounds_per_op", "count"); ("campaign.self_s", "s");
    ("sim_exec.self_s", "s"); ("attack.act_s", "s");
    ("bench.unattributed_s", "s"); ("trace.attributed_ratio", "ratio");
    ("trace.overhead_ratio", "ratio") ]


let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "attack-sync|cert-async|solve-stream");
      ("--seed", Arg.Set_int seed, "N  seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  (* Inputs are read relative to the checkout root. *)
  let inputs = Filename.concat "perfbench" "inputs" in
  if not (Sys.file_exists inputs) then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  let trace = !trace <> 0 and seed = !seed and seconds = !seconds in
  let r =
    match !workload with
    | "attack-sync" -> Attack_sync.run ~inputs ~seed ~seconds ~trace
    | "cert-async" -> Cert_async.run ~inputs ~seed ~seconds ~trace
    | "solve-stream" -> Solve_stream.run ~seed ~seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("metric outside the catalogue: " ^ name))
    r.Common.metrics;
  List.iter (fun p -> prerr_endline ("FAIL " ^ p)) r.Common.problems;
  let fields =
    List.map
      (fun (name, unit) ->
        (* metrics of layers the workload does not touch read 0 *)
        let v = Option.value ~default:0. (List.assoc_opt name r.Common.metrics) in
        Printf.eprintf "%-28s %16.6f %s\n" name v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      catalogue
  in
  Printf.eprintf "attempted %d, failed %d, correct %b\n%!" r.Common.attempted
    r.Common.failed r.Common.correct;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.Common.correct r.Common.attempted r.Common.failed
    (String.concat ", " fields);
  exit (if r.Common.correct then 0 else 1)
