(* attack-sync: one operation is one transmission on the synchronous
   Engine, through Campaign.execute — RMT-PKA, PPA or Z-CPA on one
   instance under one attack program, stopping when the receiver
   decides. *)

open Rmt_base
open Rmt_knowledge
open Rmt_attack
open Common

let x_dealer = 7
let x_fake = 8

(* The instances: copies of instances/*.rmt plus a tightness suite drawn
   from a fixed seed, so the instance mix is the same in every run; the
   run seed draws the attack programs. *)
let files =
  [ "figure1_basic.rmt"; "mesh_showcase.rmt"; "onion_solvable.rmt";
    "path4_unsolvable.rmt" ]

let suite_seed = 2016
let suite_count = 60
let suite_n = 8
let attacked_per_pair = 27
let protocols = [ Campaign.Pka; Campaign.Ppa; Campaign.Zcpa ]

type op = {
  name : string;
  inst : Instance.t;
  proto : Campaign.protocol;
  program : Program.t;
  honest : bool;
}

let setup ~inputs ~seed =
  let pool =
    List.map (load_instance inputs) files
    @ List.mapi
        (fun i (l : Rmt_workloads.Workload.labelled) ->
          (Printf.sprintf "tight%02d-%s" i l.label, l.instance))
        (Rmt_workloads.Workload.tightness_suite (Prng.create suite_seed)
           ~count:suite_count ~n:suite_n)
  in
  let rng = Prng.create seed in
  let ops = ref [] in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun proto ->
          let add program =
            ops :=
              {
                name;
                inst;
                proto;
                program;
                honest = Nodeset.is_empty (Program.corrupted program);
              }
              :: !ops
          in
          add (Program.make ~seed:0 []);
          for _ = 1 to attacked_per_pair do
            add (Strategy_gen.random rng inst ~x_dealer ~x_fake)
          done)
        protocols)
    pool;
  Array.of_list (List.rev !ops)

type outcome = {
  report : Campaign.run_report;
  bits : int;
  decide_round : int;
}

let outcome_equal a b =
  Campaign.verdict_equal a.report.Campaign.verdict b.report.Campaign.verdict
  && a.report.Campaign.messages = b.report.Campaign.messages
  && a.bits = b.bits && a.decide_round = b.decide_round

let run ~inputs ~seed ~seconds ~trace =
  let ops, setup_s = timed_setup (fun () -> setup ~inputs ~seed) in
  let n = Array.length ops in
  let op tracer i =
    let o = ops.(i) in
    let cap = capture () in
    let runner =
      runner ?tracer ~backend:On_engine ~receiver:o.inst.Instance.receiver
        (kind_of_protocol o.proto) cap
    in
    let go () = Campaign.execute ~runner o.proto o.inst ~x_dealer o.program in
    let report =
      match tracer with None -> go () | Some tr -> span tr Campaign go
    in
    { report; bits = cap.bits; decide_round = cap.decide_round }
  in
  (* The first run of each operation is kept for the oracles; every
     later run must repeat it. *)
  let first = Array.make n None and nondeterministic = ref 0 in
  let after i v =
    match first.(i) with
    | None -> first.(i) <- Some v
    | Some f -> if not (outcome_equal f v) then incr nondeterministic
  in
  let timed, traced = measure ~trace ~seconds ~n ~op ~after () in
  let rss = peak_rss_mb () in
  (* Oracles, outside the timed phase. *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let solvable =
    let check = Oracle.checked (fun s -> problem "%s" s) in
    fun o -> check o.name o.proto o.inst
  in
  let failed_per_round = ref 0 in
  let msgs = ref 0 and bits = ref 0 and rounds = ref 0 in
  let decided = ref 0 and decide_rounds = ref 0 in
  Array.iteri
    (fun i o ->
      match first.(i) with
      | None -> problem "operation %d never ran" i
      | Some f ->
        let r = f.report in
        msgs := !msgs + r.Campaign.messages;
        bits := !bits + f.bits;
        rounds := !rounds + r.Campaign.rounds;
        if f.decide_round >= 0 then begin
          incr decided;
          decide_rounds := !decide_rounds + f.decide_round
        end;
        if
          Oracle.op_failed ~honest:o.honest ~solvable:(solvable o)
            r.Campaign.verdict
        then begin
          incr failed_per_round;
          problem "%s/%s %s: %s" o.name
            (Campaign.protocol_to_string o.proto)
            (if o.honest then "honest" else "attacked")
            (Campaign.verdict_to_string r.Campaign.verdict)
        end)
    ops;
  if !nondeterministic > 0 then
    problem "%d repeated operations differed from their first run"
      !nondeterministic;
  let fn = float_of_int n in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ops_per_s timed);
      ("peak_rss_mb", rss);
      ("msgs_per_op", float_of_int !msgs /. fn);
      ("bits_per_op", float_of_int !bits /. fn);
      ("decide_round_mean", per (float_of_int !decide_rounds) !decided);
      ("cmd_us_p50", percentile_us timed 0.50);
      ("cmd_us_p99", percentile_us timed 0.99);
    ]
  in
  let per_layer =
    match traced with
    | None -> []
    | Some x ->
      let tr = x.tracer in
      dump_spans tr;
      let per_round s = self_s tr s /. float_of_int timed.rounds in
      let pka_calls = calls tr Pka_receiver + calls tr Pka_relay in
      hc_ratios x.hc0 x.hc1
      @ [
          ("pka.receiver_step_s", per_round Pka_receiver);
          ("pka.relay_step_s", per_round Pka_relay);
          ("ppa.step_s", per_round Ppa_step);
          ("zcpa.step_s", per_round Zcpa_step);
          ("automaton.decision_s", per_round Decision);
          ( "pka.sends_per_step",
            ratio (sends tr Pka_receiver + sends tr Pka_relay) pka_calls );
          ("engine.self_s", per_round Engine);
          ( "engine.deliveries_per_s",
            rate (!msgs * timed.rounds) (self_s tr Engine) );
          ("rounds_per_op", float_of_int !rounds /. fn);
          ("campaign.self_s", per_round Campaign);
          ("attack.act_s", per_round Act);
        ]
      @ trace_metrics timed x
  in
  result ~n ~failed_per_round:!failed_per_round ~problems:!problems timed traced
    (if trace then per_layer else end_to_end)
