(* solve-stream: one operation is one command line of the serve-solve
   protocol, sent closed-loop by one client through
   Service.parse_command and Service.exec.  Sessions alternate between
   two kinds of instance:

   - bottleneck: unsolvable, with an admissible two-node cut between a
     dealer side and a receiver side; edits stay inside one side, so
     the service's cut witness mostly survives them (Cut.update reuse);
   - random: solvable G(n, 0.5) instances with radius-1 views and two
     singleton adversary sets; every edit forces a full search. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Common

(* The session instances come from a fixed seed, so the mix is the same
   in every run; the run seed draws each session's command stream. *)
let pool_seed = 2016
let sessions = 960
let commands_per_session = 40

let set_text z = String.concat "," (List.map string_of_int (Nodeset.elements z))

let line_of_delta = function
  | Delta.Add_edge (u, v) -> Printf.sprintf "add-edge %d %d" u v
  | Delta.Remove_edge (u, v) -> Printf.sprintf "remove-edge %d %d" u v
  | Delta.Add_node (v, links) ->
    if Nodeset.is_empty links then Printf.sprintf "add-node %d" v
    else Printf.sprintf "add-node %d %s" v (set_text links)
  | Delta.Remove_node v -> Printf.sprintf "remove-node %d" v
  | Delta.Add_set z -> Printf.sprintf "add-set %s" (set_text z)
  | Delta.Remove_set z -> Printf.sprintf "remove-set %s" (set_text z)

type kind = Bottleneck | Random

(* Dealer 0, dealer side 1..4, cut {5, 6}, receiver side 7..11 with
   receiver 11; the cut is one admissible set. *)
let bottleneck rng =
  let side lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let a = side 1 4 and b = side 7 11 in
  let edges = ref [] in
  let edge u v = edges := (u, v) :: !edges in
  List.iter (fun u -> edge 0 u) a;
  let chain l =
    List.iteri (fun i u -> if i > 0 then edge (List.nth l (i - 1)) u) l
  in
  chain b;
  let extra l =
    List.iter
      (fun u ->
        List.iter (fun v -> if u < v && Prng.int rng 3 = 0 then edge u v) l)
      l
  in
  extra a;
  extra b;
  List.iter
    (fun k ->
      edge (Prng.pick_list rng a) k;
      edge k (Prng.pick_list rng [ 7; 8; 9 ]))
    [ 5; 6 ];
  let g = Graph.of_edges (List.sort_uniq compare !edges) in
  let ground = Nodeset.remove 0 (Graph.nodes g) in
  let singles =
    List.init 2 (fun _ -> Nodeset.singleton (Prng.pick_list rng (a @ [ 8; 9 ])))
  in
  let structure =
    Structure.of_sets ~ground (Nodeset.of_list [ 5; 6 ] :: singles)
  in
  Instance.make ~graph:g ~structure ~view:(View.ad_hoc g) ~dealer:0
    ~receiver:11

let rec random_solvable rng =
  let n = 10 in
  let g = Generators.random_connected_gnp rng n 0.5 in
  let ground = Nodeset.remove 0 (Graph.nodes g) in
  let middle = Nodeset.remove (n - 1) ground in
  let structure =
    Structure.of_sets ~ground (List.init 2 (fun _ -> Prng.sample rng middle 1))
  in
  match
    Instance.make ~graph:g ~structure ~view:(View.radius 1 g) ~dealer:0
      ~receiver:(n - 1)
  with
  | exception Invalid_argument _ -> random_solvable rng
  | inst ->
    if Solvability.is_solvable (Solvability.partial_knowledge inst) then inst
    else random_solvable rng

(* One seeded edit that applies to [inst].  Bottleneck edits stay on one
   side of the cut: the dealer side is 1..4, the receiver side 7..11 and
   every node that joins later. *)
let edit rng kind (inst : Instance.t) =
  let g = inst.graph in
  let nodes = Nodeset.elements (Graph.nodes g) in
  let fresh = 1 + List.fold_left max 0 nodes in
  let movable =
    List.filter (fun v -> v <> inst.dealer && v <> inst.receiver) nodes
  in
  let same_side u v =
    match kind with
    | Random -> true
    | Bottleneck -> (u <= 4 && v <= 4) || (u >= 7 && v >= 7)
  in
  let pick l = Prng.pick_list rng l in
  let candidate () =
    match Prng.int rng 6 with
    | 0 | 1 ->
      let u = pick nodes and v = pick nodes in
      if u <> v && same_side u v && not (Graph.mem_edge u v g) then
        Some (Delta.Add_edge (min u v, max u v))
      else None
    | 2 -> (
      match List.filter (fun (u, v) -> same_side u v) (Graph.edges g) with
      | [] -> None
      | es ->
        let u, v = pick es in
        Some (Delta.Remove_edge (u, v)))
    | 3 ->
      let anchors =
        match kind with
        | Random -> nodes
        | Bottleneck -> List.filter (fun v -> v >= 7) nodes
      in
      Some
        (Delta.Add_node
           (fresh, Nodeset.of_list [ pick anchors; pick anchors ]))
    | 4 -> (
      match List.filter (fun v -> v > 11 || kind = Random) movable with
      | [] -> None
      | vs -> Some (Delta.Remove_node (pick vs)))
    | _ -> (
      let sets =
        List.filter
          (fun z -> Nodeset.size z = 1)
          (Structure.maximal_sets inst.structure)
      in
      if sets <> [] && Prng.bool rng then Some (Delta.Remove_set (pick sets))
      else
        match List.filter (fun v -> kind = Random || v <= 4 || v >= 7) movable with
        | [] -> None
        | vs -> Some (Delta.Add_set (Nodeset.singleton (pick vs))))
  in
  let rec go tries =
    if tries = 0 then None
    else
      match candidate () with
      | None -> go (tries - 1)
      | Some d -> (
        match Delta.apply inst d with
        | Ok inst' -> Some (line_of_delta d, inst')
        | Error _ -> go (tries - 1))
  in
  go 50

type session = { base : Instance.t; lines : string array }

let setup ~seed =
  let pool = Prng.create pool_seed in
  let rng = Prng.create seed in
  Array.init sessions (fun s ->
      let kind = if s mod 2 = 0 then Bottleneck else Random in
      let base =
        match kind with Bottleneck -> bottleneck pool | Random -> random_solvable pool
      in
      let inst = ref base in
      let lines =
        Array.init commands_per_session (fun i ->
            let r = Prng.int rng 20 in
            if i = 0 || r < 6 then "solvable?"
            else if r < 9 then "cut?"
            else
              match edit rng kind !inst with
              | Some (line, inst') ->
                inst := inst';
                line
              | None -> "solvable?")
      in
      { base; lines })

let parse_set_text s =
  if s = "-" then Nodeset.empty
  else Nodeset.of_list (List.map int_of_string (String.split_on_char ',' s))

type first = { reply : string; at : Instance.t; cmd : Service.command }

let run ~seed ~seconds ~trace =
  let sess, setup_s = timed_setup (fun () -> setup ~seed) in
  let ops =
    Array.concat
      (Array.to_list
         (Array.mapi (fun s x -> Array.map (fun l -> (s, l)) x.lines) sess))
  in
  let n = Array.length ops in
  let current = ref (Service.create sess.(0).base) in
  (* per-command decision accounting of the traced phase *)
  let queries = ref 0 and cached = ref 0 and reused = ref 0 in
  let searched = ref 0 and visited = ref 0 in
  let op tracer i =
    let s, line = ops.(i) in
    let traced sp f = match tracer with None -> f () | Some tr -> span tr sp f in
    if i = 0 || fst ops.(i - 1) <> s then
      current := traced Service_create (fun () -> Service.create sess.(s).base);
    let t = !current in
    let cmd =
      match traced Service_parse (fun () -> Service.parse_command line) with
      | Ok (Some c) -> c
      | Ok None | Error _ -> failwith ("unparsable command: " ^ line)
    in
    let reply =
      match (tracer, cmd) with
      | None, _ -> Service.exec t cmd
      | Some _, Service.Update _ ->
        traced Service_apply (fun () -> Service.exec t cmd)
      | Some _, _ ->
        let before = Service.stats t in
        let reply = traced Service_query (fun () -> Service.exec t cmd) in
        let after = Service.stats t in
        incr queries;
        if after.Service.cached > before.Service.cached then incr cached;
        if after.Service.witness_reuses > before.Service.witness_reuses then
          incr reused;
        if after.Service.searches > before.Service.searches then begin
          incr searched;
          visited := !visited + (Service.cut t).Cut.visited
        end;
        reply
    in
    { reply; at = Service.instance t; cmd }
  in
  let first = Array.make n None and nondeterministic = ref 0 in
  let after i v =
    match first.(i) with
    | None -> first.(i) <- Some v
    | Some f -> if not (String.equal f.reply v.reply) then incr nondeterministic
  in
  let timed, traced = measure ~trace ~seconds ~n ~op ~after () in
  let rss = peak_rss_mb () in
  (* Oracles, outside the timed phase, memoized by instance text. *)
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let memo = Hashtbl.create 1024 in
  let oracle inst =
    let key =
      match Codec.to_string inst with Ok s -> s | Error e -> failwith e
    in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = Oracle.pka_solvable inst in
      Hashtbl.add memo key v;
      v
  in
  let failed_per_round = ref 0 and bytes = ref 0 in
  Array.iteri
    (fun i (_, line) ->
      match first.(i) with
      | None -> problem "command %d never ran" i
      | Some f ->
        bytes := !bytes + String.length line + String.length f.reply + 2;
        let ok =
          match f.cmd with
          | Service.Update _ -> String.length f.reply > 3 && String.sub f.reply 0 3 = "ok "
          | Service.Query_stats -> true
          | Service.Query_solvable -> (
            match f.reply with
            | "solvable" -> oracle f.at
            | "unsolvable" -> not (oracle f.at)
            | _ -> false)
          | Service.Query_cut -> (
            match String.split_on_char ' ' f.reply with
            | [ "cut"; "none" ] -> oracle f.at
            | [ "cut"; c1; c2 ]
              when String.length c1 > 3 && String.length c2 > 3
                   && String.sub c1 0 3 = "c1=" && String.sub c2 0 3 = "c2=" ->
              let c1 = parse_set_text (String.sub c1 3 (String.length c1 - 3))
              and c2 = parse_set_text (String.sub c2 3 (String.length c2 - 3)) in
              (not (oracle f.at)) && Cut.is_rmt_cut f.at c1 c2
            | _ -> false)
        in
        if not ok then begin
          incr failed_per_round;
          problem "command %d (%s): wrong reply %S" i line f.reply
        end)
    ops;
  if !nondeterministic > 0 then
    problem "%d repeated commands replied differently" !nondeterministic;
  let fn = float_of_int n in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ops_per_s timed);
      ("peak_rss_mb", rss);
      (* one request line and one reply line per command *)
      ("msgs_per_op", 2.);
      ("bits_per_op", 8. *. float_of_int !bytes /. fn);
      (* closed loop: every command is answered in its own exchange *)
      ("decide_round_mean", 1.);
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
      let rounds = float_of_int timed.rounds in
      let per_round s = self_s tr s /. rounds in
      hc_ratios x.hc0 x.hc1
      @ [
          ("service.create_s", per_round Service_create);
          ("service.parse_s", per_round Service_parse);
          ("service.apply_s", per_round Service_apply);
          ("service.query_s", per_round Service_query);
          ("service.cache_hit_ratio", ratio !cached !queries);
          ("service.witness_reuse_ratio", ratio !reused (!reused + !searched));
          ("cut.searches", float_of_int !searched /. rounds);
          ("cut.visited_per_search", ratio !visited !searched);
        ]
      @ trace_metrics timed x
  in
  result ~n ~failed_per_round:!failed_per_round ~problems:!problems timed traced
    (if trace then per_layer else end_to_end)
