(* cert-async: one operation is one in-envelope trial — cert-pka or
   cert-ppa on the simulator under one attack program and one schedule
   drawn from Policy.default_params (delay <= 3, <= 2 drops, which is
   Envelope.default), recorded the way Sim_exec.execute_recorded
   records it.  Honest trials other than the known fault draw from
   Policy.lossless_params, the same without drops: a dropped receiver
   tick can silence an honest trial, on some schedule seeds only, so it
   cannot be counted the same in every run. *)

open Rmt_base
open Rmt_knowledge
open Rmt_attack
open Rmt_sim
open Rmt_protocols
open Common

let x_dealer = 7
let x_fake = 8

(* Copies of instances/*.rmt and test/protocols/fixtures/boundary.rmt,
   and four 8–9-node random solvable instances written out from the
   test generator's recipe (Gen.random_solvable_instance, seeds 12, 14,
   16 and 22). *)
let files =
  [ "figure1_basic.rmt"; "mesh_showcase.rmt"; "onion_solvable.rmt";
    "path4_unsolvable.rmt"; "boundary.rmt"; "gen_seed12.rmt";
    "gen_seed14.rmt"; "gen_seed16.rmt"; "gen_seed22.rmt" ]

(* The known fault: on an honest network Certified.ppa exhausts
   Transport.default_max_messages on this instance (generator seed 21),
   synchronous or under the in-envelope schedule below, and the
   receiver never decides.  The schedule seed is fixed, so the trial
   fails the same way in every run. *)
let fault_file = "cert_budget_seed21.rmt"
let fault_sched_seed = 2016

(* Honest trials cost the same under every seed and carry the latency
   percentiles; attacked ones vary with the seed's programs. *)
let honest_per_pair = 2
let attacked_per_pair = 2
let protocols = [ Campaign.Cert_pka; Campaign.Cert_ppa ]

type op = {
  name : string;
  inst : Instance.t;
  proto : Campaign.protocol;
  program : Program.t;
  honest : bool;
  sched_seed : int;
  known_fault : bool;
}

let setup ~inputs ~seed =
  let rng = Prng.create seed in
  let honest = Program.make ~seed:0 [] in
  let ops = ref [] in
  let add ?(known_fault = false) ?sched_seed name inst proto program =
    let sched_seed =
      match sched_seed with Some s -> s | None -> Prng.int rng 1_000_000_000
    in
    ops :=
      {
        name;
        inst;
        proto;
        program;
        honest = Nodeset.is_empty (Program.corrupted program);
        sched_seed;
        known_fault;
      }
      :: !ops
  in
  (* The known fault runs first in every round, so the process's peak
     resident set is reached from the same heap in every run. *)
  let name, inst = load_instance inputs fault_file in
  add ~known_fault:true ~sched_seed:fault_sched_seed name inst Campaign.Cert_ppa
    honest;
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun proto ->
          for _ = 1 to honest_per_pair do
            add name inst proto honest
          done;
          for _ = 1 to attacked_per_pair do
            add name inst proto (Strategy_gen.random rng inst ~x_dealer ~x_fake)
          done)
        protocols)
    (List.map (load_instance inputs) files);
  Array.of_list (List.rev !ops)

type outcome = {
  report : Campaign.run_report;
  sched : Schedule.t;
  bits : int;
  decide_round : int;
}

(* What the checks keep of an operation's first run: the schedule
   itself is dropped once checked, since the budget-exhausting trial
   records over a million decisions. *)
type digest = {
  d_report : Campaign.run_report;
  d_bits : int;
  d_decide_round : int;
  d_sched_size : int;
  conforms : bool;
  delayed : int;
  dropped : int;
  dups : int;
  kinds : (int * int * int * int) option;
      (** traced runs: load, echo and tick deliveries, and evidence *)
}

let same_run d (v : outcome) =
  Campaign.verdict_equal d.d_report.Campaign.verdict v.report.Campaign.verdict
  && d.d_report.Campaign.messages = v.report.Campaign.messages
  && d.d_bits = v.bits
  && d.d_decide_round = v.decide_round
  && d.d_sched_size = Schedule.size v.sched

(* Deliveries of one trial by message kind, and the receiver's final
   evidence count: the trial replayed under its recorded schedule with
   a typed delivery hook.  Mirrors Campaign.execute's certified arms. *)
let kinds o sched =
  let load = ref 0 and echo = ref 0 and tick = ref 0 in
  let on_deliver ~round:_ ~src:_ ~dst:_ (m : _ Certified.msg) =
    match m.Rmt_net.Flood.payload with
    | Certified.Load _ -> incr load
    | Certified.Echo _ -> incr echo
    | Certified.Tick -> incr tick
  in
  let inst = o.inst in
  let policy = Policy.of_schedule sched in
  let stop_when dec = dec inst.Instance.receiver <> None in
  let evidence states =
    match List.assoc_opt inst.Instance.receiver states with
    | Some st -> Certified.evidence_count st
    | None -> 0
  in
  let messages, ev =
    match o.proto with
    | Campaign.Cert_pka ->
      let out =
        Sim.run ~size_of:Certified.pka_msg_size ~stop_when ~on_deliver ~policy
          ~graph:inst.Instance.graph
          ~adversary:(Strategy_gen.compile_cert_pka o.program inst ~x_dealer)
          (Certified.pka inst ~x_dealer)
      in
      (out.Rmt_net.Engine.stats.Rmt_net.Engine.messages, evidence out.states)
    | _ ->
      let out =
        Sim.run ~size_of:Certified.ppa_msg_size ~stop_when ~on_deliver ~policy
          ~graph:inst.Instance.graph
          ~adversary:(Strategy_gen.compile_cert_ppa o.program inst ~x_dealer)
          (Certified.ppa inst.Instance.graph ~structure:inst.Instance.structure
             ~dealer:inst.Instance.dealer ~receiver:inst.Instance.receiver
             ~x_dealer)
      in
      (out.Rmt_net.Engine.stats.Rmt_net.Engine.messages, evidence out.states)
  in
  (messages, !load, !echo, !tick, ev)

let run ~inputs ~seed ~seconds ~trace =
  let ops, setup_s = timed_setup (fun () -> setup ~inputs ~seed) in
  let n = Array.length ops in
  let op tracer i =
    let o = ops.(i) in
    let cap = capture () in
    let trial () =
      let policy, freeze =
        Policy.record
          (Policy.random (Prng.create o.sched_seed)
             (if o.honest && not o.known_fault then Policy.lossless_params
              else Policy.default_params))
      in
      let runner =
        runner ?tracer ~backend:(On_sim policy)
          ~receiver:o.inst.Instance.receiver Cert cap
      in
      let report = Campaign.execute ~runner o.proto o.inst ~x_dealer o.program in
      (report, freeze ())
    in
    let report, sched =
      match tracer with None -> trial () | Some tr -> span tr Sim_exec trial
    in
    { report; sched; bits = cap.bits; decide_round = cap.decide_round }
  in
  let first = Array.make n None and nondeterministic = ref 0 in
  let after i v =
    (match first.(i) with
    | Some d -> if not (same_run d v) then incr nondeterministic
    | None ->
      let delayed = ref 0 and dropped = ref 0 and dups = ref 0 in
      List.iter
        (fun (_, (d : Schedule.decision)) ->
          if d.Schedule.drop then incr dropped
          else if d.Schedule.delay > 1 then incr delayed;
          if Option.is_some d.Schedule.dup then incr dups)
        (Schedule.entries v.sched);
      let kinds =
        if not trace then None
        else begin
          let m, l, e, t, ev = kinds ops.(i) v.sched in
          if m <> v.report.Campaign.messages then incr nondeterministic;
          Some (l, e, t, ev)
        end
      in
      first.(i) <-
        Some
          {
            d_report = v.report;
            d_bits = v.bits;
            d_decide_round = v.decide_round;
            d_sched_size = Schedule.size v.sched;
            conforms = Envelope_check.conforms Envelope.default v.sched;
            delayed = !delayed;
            dropped = !dropped;
            dups = !dups;
            kinds;
          });
    (* The known fault leaves most of a gigabyte of garbage: collect it
       here, outside the timing, so that it does not slow the trials
       after it. *)
    if ops.(i).known_fault then Gc.full_major ()
  in
  let timed, traced = measure ~trace ~seconds ~n ~op ~after () in
  let rss = peak_rss_mb () in
  (* Oracles, outside the timed phase. *)
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let solvable =
    let check = Oracle.checked (fun s -> problem "%s" s) in
    fun o -> check o.name o.proto o.inst
  in
  let results =
    Array.mapi
      (fun i o ->
        match first.(i) with
        | None -> failwith (Printf.sprintf "operation %d never ran" i)
        | Some d -> (o, d))
      ops
  in
  let sum f = Array.fold_left (fun acc (o, d) -> acc + f o d) 0 results in
  let failed_per_round =
    sum (fun o d ->
        let r = d.d_report in
        if not d.conforms then
          problem "%s/%s: schedule outside %s" o.name
            (Campaign.protocol_to_string o.proto)
            (Envelope.to_string Envelope.default);
        if
          Oracle.op_failed ~honest:o.honest ~solvable:(solvable o)
            r.Campaign.verdict
        then begin
          if not o.known_fault then
            problem "%s/%s %s: %s" o.name
              (Campaign.protocol_to_string o.proto)
              (if o.honest then "honest" else "attacked")
              (Campaign.verdict_to_string r.Campaign.verdict);
          1
        end
        else begin
          if o.known_fault then
            problem "%s: the known budget exhaustion no longer fails" o.name;
          0
        end)
  in
  if !nondeterministic > 0 then
    problem "%d repeated operations differed from their first run"
      !nondeterministic;
  let msgs = sum (fun _ d -> d.d_report.Campaign.messages) in
  let decided = sum (fun _ d -> if d.d_decide_round >= 0 then 1 else 0) in
  let fn = float_of_int n in
  let per_op f = float_of_int (sum f) /. fn in
  let honest i = ops.(i).honest in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ops_per_s timed);
      ("peak_rss_mb", rss);
      ("msgs_per_op", float_of_int msgs /. fn);
      ("bits_per_op", per_op (fun _ d -> d.d_bits));
      ( "decide_round_mean",
        per
          (float_of_int (sum (fun _ d -> max 0 d.d_decide_round)))
          decided );
      ("cmd_us_p50", percentile_us ~keep:honest timed 0.50);
      ("cmd_us_p99", percentile_us ~keep:honest timed 0.99);
    ]
  in
  let per_layer =
    match traced with
    | None -> []
    | Some x ->
      let tr = x.tracer in
      dump_spans tr;
      let kind f =
        per_op (fun _ d -> match d.kinds with Some k -> f k | None -> 0)
      in
      let per_round s = self_s tr s /. float_of_int timed.rounds in
      hc_ratios x.hc0 x.hc1
      @ [
          ("cert.decision_s", per_round Cert_decision);
          ("cert.step_s", per_round Cert_step);
          ("cert.sends_per_step", ratio (sends tr Cert_step) (calls tr Cert_step));
          ("cert.load_per_op", kind (fun (l, _, _, _) -> l));
          ("cert.echo_per_op", kind (fun (_, e, _, _) -> e));
          ("cert.tick_per_op", kind (fun (_, _, t, _) -> t));
          ("cert.evidence_per_op", kind (fun (_, _, _, v) -> v));
          ("sim.self_s", per_round Sim);
          ("sim.deliveries_per_s", rate (msgs * timed.rounds) (self_s tr Sim));
          ("sim.delayed_per_op", per_op (fun _ d -> d.delayed));
          ("sim.dropped_per_op", per_op (fun _ d -> d.dropped));
          ("sim.dup_per_op", per_op (fun _ d -> d.dups));
          ("rounds_per_op", per_op (fun _ d -> d.d_report.Campaign.rounds));
          ("sim_exec.self_s", per_round Sim_exec);
          ("attack.act_s", per_round Act);
        ]
      @ trace_metrics timed x
  in
  result ~n ~failed_per_round ~problems:!problems timed traced
    (if trace then per_layer else end_to_end)
