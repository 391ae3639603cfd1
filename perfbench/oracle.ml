(* Correctness oracles, computed apart from the program's deciders and
   run outside the timed phase.

   - Definitions 3 and 7: every subset C of V ∖ {D, R} that separates D
     from R (by this module's own BFS) and lies in N(B), B the
     receiver's side, is tried with the splits C₁ = C ∩ M, C₂ = C ∖ M
     for M = ∅ and every maximal admissible M, through the direct
     per-cut checks Cut.is_rmt_cut / Cut.is_rmt_zpp_cut.  That
     suffices.  A cut C with split (C₁, C₂) contains the separator
     C ∩ N(B), which has the same receiver side B, and the split
     (C₁ ∩ N(B), C₂ ∩ N(B)) still satisfies both conditions, since
     they are downward closed.  C₁ ∈ 𝒵 means C₁ ⊆ M for some maximal
     M, and growing C₁ to C ∩ M keeps it admissible while shrinking
     C₂.
   - PPA (full knowledge): solvable iff no union of two admissible sets
     (the receiver taken out) separates D from R, by the same BFS. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

(* The nodes of V ∖ {D, R}, and the receiver's side of a set of them
   given as a bitmask over that array: the nodes R reaches without
   entering the set, by breadth-first search over neighbour bitmasks,
   with D and R at the two positions after the candidates. *)
let sides (inst : Instance.t) =
  let g = inst.graph and d = inst.dealer and r = inst.receiver in
  let cands =
    Array.of_list
      (Nodeset.elements (Nodeset.remove d (Nodeset.remove r (Graph.nodes g))))
  in
  let k = Array.length cands in
  if k + 2 >= Sys.int_size then invalid_arg "Oracle.sides: too many nodes";
  let index = Hashtbl.create (k + 2) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) cands;
  Hashtbl.replace index d k;
  Hashtbl.replace index r (k + 1);
  let adj = Array.make (k + 2) 0 in
  Hashtbl.iter
    (fun v i ->
      adj.(i) <-
        Nodeset.fold
          (fun w acc -> acc lor (1 lsl Hashtbl.find index w))
          (Graph.neighbors v g) 0)
    index;
  let neighbours set =
    let n = ref 0 in
    for i = 0 to k + 1 do
      if set land (1 lsl i) <> 0 then n := !n lor adj.(i)
    done;
    !n
  in
  let receiver_side avoid =
    let rec go seen frontier =
      if frontier = 0 then seen
      else
        let fresh = neighbours frontier land lnot (seen lor avoid) in
        go (seen lor fresh) fresh
    in
    go (1 lsl (k + 1)) (1 lsl (k + 1))
  in
  (cands, 1 lsl k, neighbours, receiver_side)

let set_of_mask cands mask =
  let c = ref Nodeset.empty in
  Array.iteri (fun i v -> if mask land (1 lsl i) <> 0 then c := Nodeset.add v !c) cands;
  !c

let mask_of_set cands set =
  let m = ref 0 in
  Array.iteri (fun i v -> if Nodeset.mem v set then m := !m lor (1 lsl i)) cands;
  !m

let exists_cut ~check (inst : Instance.t) =
  let cands, dbit, neighbours, receiver_side = sides inst in
  let splits = Nodeset.empty :: Structure.maximal_sets inst.structure in
  let found = ref false and mask = ref 0 in
  while (not !found) && !mask < 1 lsl Array.length cands do
    let b = receiver_side !mask in
    if b land dbit = 0 && !mask land lnot (neighbours b) = 0 then begin
      let c = set_of_mask cands !mask in
      found :=
        List.exists
          (fun m -> check inst (Nodeset.inter c m) (Nodeset.diff c m))
          splits
    end;
    incr mask
  done;
  !found

(* Definition 3: RMT-PKA solvable iff no RMT-cut. *)
let pka_solvable inst = not (exists_cut ~check:Rmt_core.Cut.is_rmt_cut inst)

(* Definition 7: Z-CPA solvable iff no RMT Z-pp cut. *)
let zcpa_solvable inst =
  not (exists_cut ~check:Rmt_core.Cut.is_rmt_zpp_cut inst)

let ppa_solvable (inst : Instance.t) =
  let cands, dbit, _, receiver_side = sides inst in
  let ms =
    0 :: List.map (mask_of_set cands) (Structure.maximal_sets inst.structure)
  in
  not
    (List.exists
       (fun z1 ->
         List.exists (fun z2 -> receiver_side (z1 lor z2) land dbit = 0) ms)
       ms)

let solvable (p : Rmt_attack.Campaign.protocol) inst =
  match p with
  | Pka | Cert_pka | Strawman -> pka_solvable inst
  | Ppa | Cert_ppa -> ppa_solvable inst
  | Zcpa -> zcpa_solvable inst

(* [checked report] is [solvable] memoized per instance name and
   protocol, reporting through [report] when the program's own decider
   disagrees with the oracle (an [Unknown] from an exhausted budget is
   not a disagreement). *)
let checked report =
  let memo = Hashtbl.create 64 in
  fun name (p : Rmt_attack.Campaign.protocol) inst ->
    let key = (name, Rmt_attack.Campaign.protocol_to_string p) in
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
      let s = solvable p inst in
      let agrees =
        match Rmt_attack.Campaign.solvability p inst with
        | Rmt_core.Solvability.Solvable -> s
        | Unsolvable -> not s
        | Unknown -> true
      in
      if not agrees then
        report (Printf.sprintf "%s/%s: decider disagrees with the oracle" name (snd key));
      Hashtbl.add memo key s;
      s

(* An operation fails when it decides a wrong value, or when it is an
   honest run on an instance the oracle calls solvable and it ends
   without a decision, whatever budget it reports as exhausted. *)
let op_failed ~honest ~solvable (v : Rmt_attack.Campaign.verdict) =
  match v with
  | Violated _ -> true
  | Delivered -> false
  | Silenced -> honest && solvable
