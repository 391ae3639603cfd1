(* Shared plumbing for the end-to-end benchmark: the clock, in-memory
   spans, the whole-round timing loop, latency percentiles and the
   result line. *)

open Rmt_attack

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let median_float xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let per num den = if den <= 0 then 0. else num /. float_of_int den
let rate count seconds = if seconds <= 0. then 0. else float_of_int count /. seconds

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Every span the traced run records, around a call into one layer's
   public functions.  [Bench] is the root: one timed operation. *)
type span =
  | Bench
  | Campaign  (** Campaign.execute, minus its runner *)
  | Sim_exec  (** policy set-up, Campaign.execute on Sim_exec.runner *)
  | Engine  (** Engine.run, minus automaton and adversary callbacks *)
  | Sim  (** Sim.run, likewise *)
  | Act  (** a compiled Strategy_gen program acting *)
  | Pka_receiver  (** RMT-PKA receiver's init/step *)
  | Pka_relay  (** every other RMT-PKA node's init/step *)
  | Ppa_step
  | Zcpa_step
  | Cert_step
  | Cert_decision  (** Certified's decision: the evidence replay *)
  | Decision  (** decision of the uncertified automata *)
  | Service_create
  | Service_parse
  | Service_apply  (** Service.exec on an edit *)
  | Service_query  (** Service.exec on a query *)

let all_spans =
  [ Bench; Campaign; Sim_exec; Engine; Sim; Act; Pka_receiver; Pka_relay;
    Ppa_step; Zcpa_step; Cert_step; Cert_decision; Decision; Service_create;
    Service_parse; Service_apply; Service_query ]

let span_index = function
  | Bench -> 0
  | Campaign -> 1
  | Sim_exec -> 2
  | Engine -> 3
  | Sim -> 4
  | Act -> 5
  | Pka_receiver -> 6
  | Pka_relay -> 7
  | Ppa_step -> 8
  | Zcpa_step -> 9
  | Cert_step -> 10
  | Cert_decision -> 11
  | Decision -> 12
  | Service_create -> 13
  | Service_parse -> 14
  | Service_apply -> 15
  | Service_query -> 16

let span_name = function
  | Bench -> "bench"
  | Campaign -> "campaign"
  | Sim_exec -> "sim_exec"
  | Engine -> "engine"
  | Sim -> "sim"
  | Act -> "attack.act"
  | Pka_receiver -> "pka.receiver_step"
  | Pka_relay -> "pka.relay_step"
  | Ppa_step -> "ppa.step"
  | Zcpa_step -> "zcpa.step"
  | Cert_step -> "cert.step"
  | Cert_decision -> "cert.decision"
  | Decision -> "automaton.decision"
  | Service_create -> "service.create"
  | Service_parse -> "service.parse"
  | Service_apply -> "service.apply"
  | Service_query -> "service.query"

let num_spans = List.length all_spans
let max_depth = 64

(* Spans are aggregated in memory per name as they close: total and
   self time (total minus the time covered by child spans), call
   counts and, for automaton spans, the sends the call returned. *)
type tracer = {
  total : int array;
  self : int array;
  calls : int array;
  sends : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
}

let tracer () =
  {
    total = Array.make num_spans 0;
    self = Array.make num_spans 0;
    calls = Array.make num_spans 0;
    sends = Array.make num_spans 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
  }

let enter tr s =
  let d = tr.depth in
  tr.st_id.(d) <- span_index s;
  tr.st_child.(d) <- 0;
  tr.depth <- d + 1;
  tr.st_start.(d) <- now_ns ()

let leave tr =
  let t = now_ns () in
  let d = tr.depth - 1 in
  tr.depth <- d;
  let id = tr.st_id.(d) in
  let dur = t - tr.st_start.(d) in
  tr.total.(id) <- tr.total.(id) + dur;
  tr.self.(id) <- tr.self.(id) + dur - tr.st_child.(d);
  tr.calls.(id) <- tr.calls.(id) + 1;
  if d > 0 then tr.st_child.(d - 1) <- tr.st_child.(d - 1) + dur

let span tr s f =
  enter tr s;
  match f () with
  | v ->
    leave tr;
    v
  | exception e ->
    leave tr;
    raise e

let self_s tr s = secs tr.self.(span_index s)
let calls tr s = tr.calls.(span_index s)
let sends tr s = tr.sends.(span_index s)

(* Share of the root span's time that some named layer's span covers. *)
let attributed_ratio tr =
  let root = tr.total.(span_index Bench) in
  if root = 0 then 0.
  else 1. -. (float_of_int tr.self.(span_index Bench) /. float_of_int root)

let dump_spans tr =
  prerr_endline "span                      calls      total_s       self_s";
  List.iter
    (fun s ->
      let i = span_index s in
      if tr.calls.(i) > 0 then
        Printf.eprintf "%-22s %9d %12.6f %12.6f\n" (span_name s) tr.calls.(i)
          (secs tr.total.(i)) (secs tr.self.(i)))
    all_spans

(* ------------------------------------------------------------------ *)
(* Campaign runners                                                    *)
(* ------------------------------------------------------------------ *)

(* What an end-to-end metric needs from one run that Campaign's
   run_report does not carry. *)
type capture = {
  mutable bits : int;
  mutable decide_round : int;  (** receiver's first-decision round, -1 *)
}

let capture () = { bits = 0; decide_round = -1 }

type kind = Pka | Ppa | Zcpa | Cert

let kind_of_protocol = function
  | Campaign.Pka -> Pka
  | Campaign.Ppa -> Ppa
  | Campaign.Zcpa | Campaign.Strawman -> Zcpa
  | Campaign.Cert_pka | Campaign.Cert_ppa -> Cert

type backend = On_engine | On_sim of Rmt_sim.Policy.t

let wrap_automaton tr ~receiver kind (a : ('s, 'm) Rmt_net.Engine.automaton)
    : ('s, 'm) Rmt_net.Engine.automaton =
  let step_span v =
    match kind with
    | Pka -> if v = receiver then Pka_receiver else Pka_relay
    | Ppa -> Ppa_step
    | Zcpa -> Zcpa_step
    | Cert -> Cert_step
  in
  let decision_span = match kind with Cert -> Cert_decision | _ -> Decision in
  let counted s (st, out) =
    let i = span_index s in
    tr.sends.(i) <- tr.sends.(i) + List.length out;
    (st, out)
  in
  {
    Rmt_net.Engine.init =
      (fun v ->
        let s = step_span v in
        counted s (span tr s (fun () -> a.Rmt_net.Engine.init v)));
    step =
      (fun v st ~round ~inbox ->
        let s = step_span v in
        counted s
          (span tr s (fun () -> a.Rmt_net.Engine.step v st ~round ~inbox)));
    decision =
      (fun st -> span tr decision_span (fun () -> a.Rmt_net.Engine.decision st));
  }

let wrap_adversary tr (adv : 'm Rmt_net.Engine.strategy) =
  {
    adv with
    Rmt_net.Engine.act =
      (fun v ~round ~inbox ->
        span tr Act (fun () -> adv.Rmt_net.Engine.act v ~round ~inbox));
  }

(* A Campaign runner over the synchronous engine or the simulator that
   records the receiver's decision round and the bit count; traced, it
   also wraps the automaton's entry points and the adversary in spans
   and the backend call in the transport span. *)
let runner ?tracer ~backend ~receiver kind cap =
  {
    Campaign.run =
      (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph ~adversary
           auto ->
        let auto, adversary =
          match tracer with
          | None -> (auto, adversary)
          | Some tr ->
            (wrap_automaton tr ~receiver kind auto, wrap_adversary tr adversary)
        in
        let go () =
          match backend with
          | On_engine ->
            Campaign.engine_runner.Campaign.run ?max_messages ?size_of
              ?stop_when ?on_deliver ~graph ~adversary auto
          | On_sim policy ->
            (Rmt_sim.Sim_exec.runner ~policy).Campaign.run ?max_messages
              ?size_of ?stop_when ?on_deliver ~graph ~adversary auto
        in
        let o =
          match tracer with
          | None -> go ()
          | Some tr ->
            span tr (match backend with On_engine -> Engine | On_sim _ -> Sim) go
        in
        cap.bits <- o.Rmt_net.Engine.stats.Rmt_net.Engine.bits;
        cap.decide_round <-
          (match List.assoc_opt receiver o.Rmt_net.Engine.decision_rounds with
           | Some r -> r
           | None -> -1);
        o);
  }

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Shared hosts drift.  On a 2-core container the same code runs up to
   half again as slow from one millisecond to the next, as a neighbour
   comes and goes, and the mix of fast and slow stretches changes over
   tens of seconds.  So a fixed calibration loop, sorting a
   pseudo-random array of 4000 ints, is timed at the start of every
   round and after every 20 ms of operations, and the round's timings
   are scaled by [reference_ns] over the loop's mean time in that
   round: they read as on a host where the loop takes [reference_ns],
   about its mean on the container the reference figures come from.
   The loop allocates nothing, so the program's heap cannot slow it. *)
let reference_ns = 1_250_000
let cal_src = Array.init 4000 (fun i -> ((i * 7919) + 17) mod 4001)
let cal_dst = Array.make 4000 0

let calibrate () =
  let t0 = now_ns () in
  Array.blit cal_src 0 cal_dst 0 4000;
  Array.sort Int.compare cal_dst;
  now_ns () - t0

(* [reference_ns] over the mean of [count] calibrations totalling
   [total] nanoseconds. *)
let host_scale ~total ~count =
  float_of_int reference_ns *. float_of_int count /. float_of_int total

type timing = {
  rounds : int;
  best_ns : int array;
      (** each operation's fastest run over the rounds, in nanoseconds at
          the reference host's speed *)
}

(* Runs whole rounds of the [n] operations: at least three, so that
   every operation has a best run that is not its cold first one, then
   more while another round of the last one's length still fits in
   [seconds] of operation time.  Every run thus attempts the same
   operations the same number of times per round.  [op i] runs
   operation [i] and is the only thing timed; [after i v] sees its
   result outside the timing (checks, digests).  Under a tracer each
   operation is one root span. *)
let run_rounds ?tracer ~seconds ~n ~op ~after () =
  let budget = int_of_float (seconds *. 1e9) in
  let best = Array.make n max_int and lat = Array.make n 0 in
  let rounds = ref 0 and spent = ref 0 and last = ref 0 in
  while !rounds < 3 || !spent + !last <= budget do
    let sum = ref 0 and since = ref 0 in
    let cal_total = ref (calibrate ()) and cal_count = ref 1 in
    for i = 0 to n - 1 do
      (match tracer with Some tr -> enter tr Bench | None -> ());
      let a = now_ns () in
      let v = op i in
      let d = now_ns () - a in
      (match tracer with Some tr -> leave tr | None -> ());
      lat.(i) <- d;
      sum := !sum + d;
      since := !since + d;
      if !since >= 20_000_000 then begin
        cal_total := !cal_total + calibrate ();
        incr cal_count;
        since := 0
      end;
      after i v
    done;
    let k = host_scale ~total:!cal_total ~count:!cal_count in
    Array.iteri
      (fun i d ->
        let d = int_of_float (float_of_int d *. k) in
        if d < best.(i) then best.(i) <- d)
      lat;
    spent := !spent + !sum;
    last := !sum;
    incr rounds
  done;
  { rounds = !rounds; best_ns = best }

(* A round at every operation's best speed: the per-operation minimum
   over rounds shrugs off a round that a neighbour on the host slowed
   down, and leaves out the cold first round. *)
let best_round_s t = secs (Array.fold_left ( + ) 0 t.best_ns)

let ops_per_s t =
  let s = best_round_s t in
  if s <= 0. then 0. else float_of_int (Array.length t.best_ns) /. s

(* Nearest-rank percentile of the best latencies of the operations
   [keep] selects, in microseconds. *)
let percentile_us ?(keep = fun _ -> true) t p =
  let a =
    Array.of_list
      (List.filteri (fun i _ -> keep i) (Array.to_list t.best_ns))
  in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort Int.compare a;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    float_of_int a.(max 0 (min (n - 1) k)) /. 1000.
  end

(* An untraced run of [seconds], or with [trace] an untraced and a
   traced run of half as long each, with the Hc counters read around
   the traced one. *)
type traced = {
  untraced : timing;
  tracer : tracer;
  hc0 : Rmt_core.Hc.stats;
  hc1 : Rmt_core.Hc.stats;
}

let measure ~trace ~seconds ~n ~op ~after () =
  if not trace then (run_rounds ~seconds ~n ~op:(op None) ~after (), None)
  else begin
    let half = seconds /. 2. in
    let untraced = run_rounds ~seconds:half ~n ~op:(op None) ~after () in
    let tr = tracer () in
    let hc0 = Rmt_core.Hc.stats () in
    let t =
      run_rounds ~tracer:tr ~seconds:half ~n ~op:(op (Some tr)) ~after ()
    in
    let hc1 = Rmt_core.Hc.stats () in
    (t, Some { untraced; tracer = tr; hc0; hc1 })
  end

(* Layer metrics every traced workload reports: the benchmark's own
   share, the attributed share and the tracing overhead. *)
let trace_metrics t x =
  let rounds = float_of_int t.rounds in
  [
    ("bench.unattributed_s", self_s x.tracer Bench /. rounds);
    ("trace.attributed_ratio", attributed_ratio x.tracer);
    ("trace.overhead_ratio", (best_round_s t /. best_round_s x.untraced) -. 1.);
  ]

(* Peak resident set of this process, in MB (VmHWM); falls back to the
   GC's top heap size where /proc is not readable. *)
let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> Some (float_of_int kb /. 1024.))
        | _ -> go ()
        | exception End_of_file -> None
      in
      let r = go () in
      close_in ic;
      r
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ------------------------------------------------------------------ *)
(* Set-up and results                                                  *)
(* ------------------------------------------------------------------ *)

(* Median of repeated set-ups at the reference host's speed.  A set-up
   shorter than 5 ms is timed in blocks of as many back-to-back set-ups
   as take about 5 ms, so that each timing spans the host's fast and
   slow milliseconds alike, and next to four calibrations.  Every block
   starts from a compacted heap and every set-up from cold global memo
   tables.  At least 9 blocks, and more while they take under a third
   of a second in all (at most 201).  Returns the last set-up's
   inputs. *)
let timed_setup f =
  let block k =
    Gc.compact ();
    let cal = calibrate () + calibrate () + calibrate () + calibrate () in
    let t0 = now_ns () in
    let v = ref (Rmt_core.Hc.clear (); f ()) in
    for _ = 2 to k do
      Rmt_core.Hc.clear ();
      v := f ()
    done;
    let dt = now_ns () - t0 in
    (!v, dt, secs dt /. float_of_int k *. host_scale ~total:cal ~count:4)
  in
  let _, d1, _ = block 1 in
  let k = max 1 (5_000_000 / max 1 d1) in
  let rec go times spent reps =
    let v, dt, t = block k in
    let times = t :: times and spent = spent + dt and reps = reps + 1 in
    if reps >= 201 || (reps >= 9 && spent >= 333_000_000) then
      (v, median_float times)
    else go times spent reps
  in
  go [] 0 0

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  problems : string list;  (** why [correct] is false *)
}

(* A run's result: [failed_per_round] of the [n] operations failed in
   every round of the timed (and traced) phase. *)
let result ~n ~failed_per_round ~problems timed traced metrics =
  let rounds =
    timed.rounds + match traced with Some x -> x.untraced.rounds | None -> 0
  in
  {
    correct = problems = [];
    attempted = rounds * n;
    failed = rounds * failed_per_round;
    metrics;
    problems = List.rev problems;
  }

(* Hc counter deltas over a phase. *)
let hc_ratios (a : Rmt_core.Hc.stats) (b : Rmt_core.Hc.stats) =
  let open Rmt_core.Hc in
  [
    ( "hc.set_hit_ratio",
      ratio (b.set_hits - a.set_hits)
        (b.set_hits - a.set_hits + b.set_misses - a.set_misses) );
    ( "hc.restrict_hit_ratio",
      ratio
        (b.restrict_hits - a.restrict_hits)
        (b.restrict_hits - a.restrict_hits + b.restrict_misses
       - a.restrict_misses) );
    ( "hc.join_hit_ratio",
      ratio (b.join_hits - a.join_hits)
        (b.join_hits - a.join_hits + b.join_misses - a.join_misses) );
    ("hc.live_structures", float_of_int b.live_structures);
  ]

let load_instance dir file =
  match Rmt_knowledge.Codec.of_file (Filename.concat dir file) with
  | Ok inst -> (Filename.chop_suffix file ".rmt", inst)
  | Error e -> failwith (Printf.sprintf "%s/%s: %s" dir file e)
