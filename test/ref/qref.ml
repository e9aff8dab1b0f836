(* Memo-free executable specifications for the root finder, the latency
   model's segmentation, the commutation oracle, the detect pass, the
   aggregation search and the CLS scheduler. The qcheck suite pins the
   production paths in Qnum, Qcontrol, Qgdg, Qagg and Qsched against
   these; nothing here is linked into the compiler. *)

(* the bit-vector simulator the reversible-arithmetic tests check
   Qarith's circuits against *)
module Rev_sim = Rev_sim

module Gate = Qgate.Gate
module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst

(* Durand–Kerner on boxed Cx values, the formulation Qnum.Poly.roots
   reproduces on unboxed floats bit for bit: the same start points, the
   same in-place (Gauss–Seidel) update order and the same Cx.mul/Cx.div
   float expressions. Returns the roots and whether the sweep cap was
   reached with the last update still above [tol]. *)
let poly_roots ?(iterations = 500) ?(tol = 1e-13) p =
  let open Qnum in
  let p = Poly.monic p in
  let n = Array.length p - 1 in
  if n < 1 then invalid_arg "Poly.roots: degree must be at least 1";
  (* start from non-real points spread on a circle sized by a root bound *)
  let bound =
    Array.fold_left (fun acc c -> Float.max acc (Cx.abs c)) 0. p +. 1.
  in
  let z =
    Array.init n (fun k ->
        Cx.polar (0.5 *. bound)
          ((2. *. Float.pi *. float_of_int k /. float_of_int n) +. 0.4))
  in
  let step () =
    let worst = ref 0. in
    for k = 0 to n - 1 do
      let denom = ref Cx.one in
      for j = 0 to n - 1 do
        if j <> k then denom := Cx.mul !denom (Cx.sub z.(k) z.(j))
      done;
      if Cx.abs !denom > 1e-300 then begin
        let delta = Cx.div (Poly.eval p z.(k)) !denom in
        z.(k) <- Cx.sub z.(k) delta;
        let d = Cx.abs delta in
        if d > !worst then worst := d
      end
      else
        (* perturb coincident iterates so the iteration can separate them *)
        z.(k) <- Cx.add z.(k) (Cx.make 1e-6 1e-6)
    done;
    !worst
  in
  let rec loop remaining =
    remaining <= 0
    ||
    let change = step () in
    change > tol && loop (remaining - 1)
  in
  let capped = loop iterations in
  (z, capped)

(* The latency model's segmentation on hash tables keyed by qubit, the
   formulation Qcontrol.Latency_model.segments reproduces on arrays
   indexed by the qubit's position in the block's support: maximal runs
   confined to one qubit (pair); a run is closed as soon as one of its
   qubits is coupled elsewhere. *)
let segments gates =
  let owner : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let segs : (int, Gate.t list * int list) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let next_id = ref 0 in
  let close_segment id =
    let _, support = Hashtbl.find segs id in
    List.iter
      (fun q ->
        match Hashtbl.find_opt owner q with
        | Some o when o = id -> Hashtbl.remove owner q
        | Some _ | None -> ())
      support
  in
  let new_segment g qs =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace segs id ([ g ], qs);
    order := id :: !order;
    List.iter (fun q -> Hashtbl.replace owner q id) qs;
    id
  in
  List.iter
    (fun g ->
      let qs = Gate.qubits g in
      let owners = List.sort_uniq compare (List.filter_map (Hashtbl.find_opt owner) qs) in
      match owners with
      | [] ->
        if List.length qs <= 2 then ignore (new_segment g qs)
        else begin
          (* wider-than-pair gate: its own segment, closed immediately *)
          let id = new_segment g qs in
          close_segment id
        end
      | [ id ] ->
        let seg_gates, support = Hashtbl.find segs id in
        let union = List.sort_uniq compare (qs @ support) in
        if List.length union <= 2 && List.length qs <= 2 then begin
          Hashtbl.replace segs id (g :: seg_gates, union);
          List.iter (fun q -> Hashtbl.replace owner q id) qs
        end
        else begin
          close_segment id;
          let nid = new_segment g qs in
          if List.length qs > 2 then close_segment nid
        end
      | _ :: _ :: _ ->
        let union_support =
          List.concat_map (fun id -> snd (Hashtbl.find segs id)) owners
        in
        let union = List.sort_uniq compare (qs @ union_support) in
        let all_gates =
          List.concat_map (fun id -> List.rev (fst (Hashtbl.find segs id))) owners
        in
        if List.length union <= 2 then begin
          (* merge (only possible when joining two 1-qubit runs) *)
          List.iter close_segment owners;
          List.iter (fun id -> Hashtbl.remove segs id) owners;
          order := List.filter (fun id -> not (List.mem id owners)) !order;
          let id = !next_id in
          incr next_id;
          Hashtbl.replace segs id (g :: List.rev all_gates, union);
          order := id :: !order;
          List.iter (fun q -> Hashtbl.replace owner q id) union
        end
        else begin
          List.iter close_segment owners;
          let nid = new_segment g qs in
          if List.length qs > 2 then close_segment nid
        end)
    gates;
  List.rev_map
    (fun id -> List.rev (fst (Hashtbl.find segs id)))
    !order

let max_check_width = Qgdg.Oracle.max_check_width

let all_diagonal gs = List.for_all (fun g -> Gate.is_diagonal_kind g.Gate.kind) gs

(* order-preserving relabelling of a gate list onto 0..|support|-1 *)
let relabel_onto support gs =
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gs

(* Is the composed unitary diagonal in the computational basis? True
   when every member is diagonal; otherwise decided on the support
   (false beyond [max_check_width]). *)
let is_diagonal_block gs =
  match gs with
  | [] -> true
  | _ when all_diagonal gs -> true
  | _ ->
    let support = List.sort_uniq compare (List.concat_map Gate.qubits gs) in
    List.length support <= max_check_width
    &&
    let n_qubits = List.length support in
    (* |x⟩ ↦ e^{iφ(x)}|Ax⊕c⟩ is diagonal iff the affine part is the
       identity, so CNOT+diagonal blocks are decided without a dense
       unitary *)
    (match Qdomain.Phase_poly.of_gates ~n_qubits (relabel_onto support gs) with
    | Some p -> Qdomain.Phase_poly.is_linear_identity p
    | None ->
      let _, u = Qgate.Unitary.on_support gs in
      Qnum.Cmat.is_diagonal ~eps:1e-9 u)

(* Do the full matrices of two relabelled blocks commute (entrywise
   within 1e-9)? Independent of the oracle's matrix-free fused kernels,
   which the qcheck suite pins against it. *)
let full_commute ~n_qubits a b =
  Qnum.Cmat.commute ~eps:1e-9
    (Qgate.Unitary.of_gates ~n_qubits a)
    (Qgate.Unitary.of_gates ~n_qubits b)

(* The dense comparison on the joint support (false beyond
   [max_check_width]), with no algebraic shortcut. *)
let dense_commute a_gates b_gates =
  let support =
    List.sort_uniq compare
      (List.concat_map Gate.qubits a_gates @ List.concat_map Gate.qubits b_gates)
  in
  List.length support <= max_check_width
  && full_commute ~n_qubits:(List.length support)
       (relabel_onto support a_gates)
       (relabel_onto support b_gates)

(* The pre-oracle decision chain: structural shortcuts, support width
   gate, then the attempt-and-fail algebraic dispatch (phase polynomial,
   then tableau), then the dense comparison. No metrics, no decision
   memo. *)
let blocks_reference a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | _ ->
    let qa = List.sort_uniq compare (List.concat_map Gate.qubits a) in
    let qb = List.sort_uniq compare (List.concat_map Gate.qubits b) in
    let disjoint = not (List.exists (fun q -> List.mem q qb) qa) in
    if disjoint then true
    else if all_diagonal a && all_diagonal b then true
    else begin
      let support = List.sort_uniq compare (qa @ qb) in
      if List.length support > max_check_width then false
      else begin
        let n_qubits = List.length support in
        let a = relabel_onto support a and b = relabel_onto support b in
        match
          ( Qdomain.Phase_poly.of_gates ~n_qubits (a @ b),
            Qdomain.Phase_poly.of_gates ~n_qubits (b @ a) )
        with
        | Some p_ab, Some p_ba -> (
          match Qdomain.Phase_poly.strict_equal ~eps:1e-9 p_ab p_ba with
          | Some r -> r
          | None -> full_commute ~n_qubits a b)
        | _ -> (
          match
            ( Qdomain.Tableau.of_gates ~n_qubits (a @ b),
              Qdomain.Tableau.of_gates ~n_qubits (b @ a) )
          with
          | Some t_ab, Some t_ba ->
            Qdomain.Tableau.equal t_ab t_ba
            &&
            (* the global-phase tie-break on column 0 of the full products *)
            let u_ab = Qgate.Unitary.of_gates ~n_qubits (a @ b) in
            let u_ba = Qgate.Unitary.of_gates ~n_qubits (b @ a) in
            List.for_all
              (fun i ->
                Qnum.Cx.abs
                  (Qnum.Cx.sub (Qnum.Cmat.get u_ab i 0) (Qnum.Cmat.get u_ba i 0))
                <= 1e-6)
              (List.init (1 lsl n_qubits) Fun.id)
          | _ -> full_commute ~n_qubits a b)
      end
    end

let insts_reference a b = blocks_reference a.Inst.gates b.Inst.gates

(* ---- the oracle's string memo keys ---- *)

(* The summary digest and pair memo key as string encodings: a block's
   hex digest of its member list relabelled onto its own support, and a
   pair's two digests each followed by its support's positions inside
   the sorted joint support. The qcheck suite pins the oracle's
   allocation-free keys to partition blocks and pairs exactly as these
   do. *)
type summary = { digest : string; support : int list }

(* each support qubit's position: the order-preserving relabelling onto
   0..|support|-1 *)
let local_index support =
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  local

let support_of gs = List.sort_uniq compare (List.concat_map Gate.qubits gs)

let summary gs =
  let support = support_of gs in
  let local = local_index support in
  let key = Buffer.create 64 in
  List.iter (Gate.add_key key ~qubit:(Hashtbl.find local)) gs;
  let digest = Digest.to_hex (Digest.string (Buffer.contents key)) in
  { digest; support }

(* positions of a summary's support inside the sorted joint support —
   together with the two digests this determines the relabelled pair
   exactly, so the digest-pair memo key is as precise as an encoding of
   the relabelled gate lists themselves, without rebuilding them *)
let embedding joint support = List.map (Hashtbl.find (local_index joint)) support

(* the digest-pair memo key: two fixed-length hex digests, each followed
   by its length-prefixed embedding (positions below [max_check_width],
   one byte each) *)
let pair_key joint sa sb =
  let buf = Buffer.create 80 in
  let add s =
    let e = embedding joint s.support in
    Buffer.add_string buf s.digest;
    Buffer.add_char buf (Char.chr (List.length e));
    List.iter (fun k -> Buffer.add_char buf (Char.chr k)) e
  in
  add sa;
  add sb;
  Buffer.contents buf

(* ---- chain contraction (paper §3.3) ---- *)

(* [merge_chains chains a b m]: the per-qubit chains after contracting
   [a] and [b] into [m] — [m] at the first occurrence of either id, the
   second occurrence dropped *)
let merge_chains chains a b m =
  Array.map
    (fun chain ->
      let rec go seen = function
        | [] -> []
        | x :: rest when x = a || x = b ->
          if seen then go seen rest else m :: go true rest
        | x :: rest -> x :: go seen rest
      in
      go false chain)
    chains

(* Kahn's algorithm over the consecutive-pair edges of per-qubit id
   chains: acyclic iff every id is emitted *)
let acyclic_chains chains =
  let indeg = Hashtbl.create 64 and succs = Hashtbl.create 64 in
  let node x =
    if not (Hashtbl.mem indeg x) then Hashtbl.replace indeg x 0
  in
  Array.iter
    (fun chain ->
      List.iter node chain;
      let rec edges = function
        | x :: (y :: _ as rest) ->
          Hashtbl.replace indeg y (Hashtbl.find indeg y + 1);
          Hashtbl.add succs x y;
          edges rest
        | _ -> ()
      in
      edges chain)
    chains;
  let ready =
    Queue.of_seq
      (Seq.filter_map
         (fun (x, d) -> if d = 0 then Some x else None)
         (Hashtbl.to_seq indeg))
  in
  let emitted = ref 0 in
  while not (Queue.is_empty ready) do
    let x = Queue.pop ready in
    incr emitted;
    List.iter
      (fun y ->
        let d = Hashtbl.find indeg y - 1 in
        Hashtbl.replace indeg y d;
        if d = 0 then Queue.add y ready)
      (Hashtbl.find_all succs x)
  done;
  !emitted = Hashtbl.length indeg

(* ---- the pre-oracle detect pass ---- *)

(* grow the longest contiguous run starting at [id] whose support stays
   within one qubit pair; each appended node must have its predecessor (on
   every qubit it shares with the run) inside the run, so the run is a
   schedulable contiguous block. [last_on] tracks, per qubit, the most
   recently appended run node touching it — appends only extend chains
   forward, so it is the chain-last run node on that qubit. *)
let grow_run_reference g id =
  let start = Gdg.find g id in
  let run = ref [ id ] in
  let run_mem = Hashtbl.create 8 in
  Hashtbl.replace run_mem id ();
  let gate_count = ref (List.length start.Inst.gates) in
  let support = ref start.Inst.qubits in
  let last_on = Hashtbl.create 4 in
  List.iter (fun q -> Hashtbl.replace last_on q id) start.Inst.qubits;
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let candidates =
      List.filter_map
        (fun q ->
          match Hashtbl.find_opt last_on q with
          | None -> None
          | Some last ->
            (match Gdg.succ_on g last ~qubit:q with
             | Some s when not (Hashtbl.mem run_mem s.Inst.id) -> Some s
             | Some _ | None -> None))
        !support
    in
    let eligible (c : Inst.t) =
      let union = List.sort_uniq compare (c.Inst.qubits @ !support) in
      List.length union <= 2
      && !gate_count + List.length c.Inst.gates <= Qgdg.Diagonal.max_run_gates
      && List.for_all
           (fun q ->
             (not (List.mem q !support))
             ||
             match Gdg.pred_on g c.Inst.id ~qubit:q with
             | Some p -> Hashtbl.mem run_mem p.Inst.id
             | None -> false)
           c.Inst.qubits
    in
    match List.find_opt eligible candidates with
    | Some c ->
      run := c.Inst.id :: !run;
      Hashtbl.replace run_mem c.Inst.id ();
      gate_count := !gate_count + List.length c.Inst.gates;
      support := List.sort_uniq compare (c.Inst.qubits @ !support);
      List.iter (fun q -> Hashtbl.replace last_on q c.Inst.id) c.Inst.qubits;
      continue_ := true
    | None -> ()
  done;
  List.rev !run

(* longest prefix (>= 2 nodes) whose composed unitary is diagonal *)
let diagonal_prefix_reference g run =
  let rec prefixes acc rev_best = function
    | [] -> rev_best
    | id :: rest ->
      let acc = acc @ [ id ] in
      let gates = List.concat_map (fun i -> (Gdg.find g i).Inst.gates) acc in
      let rev_best =
        if List.length acc >= 2 && is_diagonal_block gates then Some acc
        else rev_best
      in
      prefixes acc rev_best rest
  in
  prefixes [] None run

(* full re-sweep per round, per-prefix dense re-checks, full topological
   validation per merge *)
let detect_and_contract_reference ~latency g =
  let merges = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let ids = List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g) in
    List.iter
      (fun id ->
        if Gdg.mem g id then begin
          match diagonal_prefix_reference g (grow_run_reference g id) with
          | Some (first :: (_ :: _ as rest)) ->
            ignore
              (List.fold_left
                 (fun acc next ->
                   let gates =
                     (Gdg.find g acc).Inst.gates @ (Gdg.find g next).Inst.gates
                   in
                   (Gdg.merge g ~latency:(latency gates) acc next).Inst.id)
                 first rest);
            incr merges;
            changed := true
          | Some _ | None -> ()
        end)
      ids
  done;
  !merges

(* ---- the aggregation search (paper §4.1, §4.3) ---- *)

(* position of [id] in the chain of qubit [q]; raises Not_found *)
let chain_pos g q id =
  let rec walk k = function
    | [] -> raise Not_found
    | x :: rest -> if x = id then k else walk (k + 1) rest
  in
  walk 0 (Gdg.chain_ids g q)

(* the action space of §4.1: [a]'s block may absorb [b] ([a]'s members
   first) when they overlap and, on every shared qubit, [a] comes first
   and the two are same-group siblings or immediate parent and child *)
let is_schedulable g groups a b =
  a <> b && Gdg.mem g a && Gdg.mem g b
  &&
  let common = Inst.common_qubits (Gdg.find g a) (Gdg.find g b) in
  common <> []
  && List.for_all
       (fun q ->
         chain_pos g q a < chain_pos g q b
         && (Qgdg.Comm_group.same_group groups ~qubit:q a b
             ||
             match Gdg.pred_on g b ~qubit:q with
             | Some p -> p.Inst.id = a
             | None -> false))
       common

let merged_width g a b =
  let ia = Gdg.find g a and ib = Gdg.find g b in
  List.length (List.sort_uniq compare (ia.Inst.qubits @ ib.Inst.qubits))

(* every schedulable (a, b) within the width limit, by trying all ordered
   pairs of nodes; sorted *)
let candidates g groups ~width_limit =
  let ids =
    List.sort compare (List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g))
  in
  List.concat_map
    (fun a ->
      List.filter
        (fun b ->
          is_schedulable g groups a b && merged_width g a b <= width_limit)
        ids
      |> List.map (fun b -> (a, b)))
    ids

(* the chain-order ASAP schedule as a list fold over the topological
   order: per node (start, finish), the start being the latest finish of
   its chain predecessors, and the makespan as the largest finish. The
   production tables ({!Qgdg.Timing}) are pinned against it bit for bit *)
let asap g =
  let finish = Hashtbl.create 64 in
  let times, makespan =
    List.fold_left
      (fun (times, makespan) (i : Inst.t) ->
        let start =
          List.fold_left
            (fun acc q ->
              match Gdg.pred_on g i.Inst.id ~qubit:q with
              | Some p -> Float.max acc (Hashtbl.find finish p.Inst.id)
              | None -> acc)
            0. i.Inst.qubits
        in
        let f = start +. i.Inst.latency in
        Hashtbl.replace finish i.Inst.id f;
        ((i.Inst.id, (start, f)) :: times, Float.max makespan f))
      ([], 0.) (Gdg.insts g)
  in
  (List.rev times, makespan)

(* ASAP (start, finish) per node from {!asap}, and ALAP latest starts
   folded in reverse topological order down from the makespan *)
type slack = {
  start : (int, float) Hashtbl.t;
  finish : (int, float) Hashtbl.t;
  latest_start : (int, float) Hashtbl.t;
  makespan : float;
}

let slack g =
  let times, makespan = asap g in
  let start = Hashtbl.create 64 and finish = Hashtbl.create 64 in
  List.iter
    (fun (id, (s, f)) ->
      Hashtbl.replace start id s;
      Hashtbl.replace finish id f)
    times;
  let latest_start = Hashtbl.create 64 in
  List.iter
    (fun (i : Inst.t) ->
      let latest_finish =
        List.fold_left
          (fun acc q ->
            match Gdg.succ_on g i.Inst.id ~qubit:q with
            | Some c -> Float.min acc (Hashtbl.find latest_start c.Inst.id)
            | None -> acc)
          makespan i.Inst.qubits
      in
      Hashtbl.replace latest_start i.Inst.id (latest_finish -. i.Inst.latency))
    (List.rev (Gdg.insts g));
  { start; finish; latest_start; makespan }

(* the merged block starts at [a]'s start, delayed by [b]'s predecessors
   on the qubits [a] does not cover; the merge is monotonic iff it then
   finishes by every other successor's latest start and by the makespan *)
let monotonic g sl a b ~merged_latency =
  let ia = Gdg.find g a and ib = Gdg.find g b in
  let delay =
    List.fold_left
      (fun acc q ->
        if Inst.acts_on ia q then acc
        else
          match Gdg.pred_on g b ~qubit:q with
          | Some p -> Float.max acc (Hashtbl.find sl.finish p.Inst.id)
          | None -> acc)
      0. ib.Inst.qubits
  in
  let new_finish = Float.max (Hashtbl.find sl.start a) delay +. merged_latency in
  new_finish <= sl.makespan +. 1e-9
  && List.for_all
       (fun (c : Inst.t) ->
         let c = c.Inst.id in
         c = a || c = b
         || new_finish <= Hashtbl.find sl.latest_start c +. 1e-9)
       (Gdg.children g a @ Gdg.children g b)

(* the duration the monotonicity check assumes: the model's prediction,
   or under [`Serial] the members' serial sum unless one member is a lone
   1-qubit gate *)
let merge_bound ~pessimism (ia : Inst.t) (ib : Inst.t) ~predicted =
  match pessimism with
  | `Model -> predicted
  | `Serial ->
    if Inst.width ia = 1 || Inst.width ib = 1 then predicted
    else ia.Inst.latency +. ib.Inst.latency

type aggregate_stats = { merges : int; rounds : int; attempted : int }

(* The global-best-action loop of §4.3, recomputed from scratch: every
   sweep enumerates all candidates, scores the monotonic ones by gain and
   applies them best first, rechecking each against the graph as merged
   so far; [attempted] sums the enumerated candidates over all sweeps.
   Groups and slack are rebuilt after every merge and every merge runs
   the full topological cycle check. When a sweep merges nothing, every
   block is re-costed and the next round starts; the search stops at a
   round that neither merges nor re-costs. *)
let aggregate_reference ?(width_limit = 10) ?(max_rounds = 8)
    ?(pessimism = `Model) ~cost g =
  let merged_cost a b =
    cost ((Gdg.find g a).Inst.gates @ (Gdg.find g b).Inst.gates)
  in
  let merges = ref 0 and rounds = ref 0 and converged = ref false in
  let attempted = ref 0 in
  while (not !converged) && !rounds < max_rounds do
    incr rounds;
    let merged_this_round = ref 0 and sweep_again = ref true in
    while !sweep_again do
      sweep_again := false;
      let groups = ref (Qgdg.Comm_group.build g) and sl = ref (slack g) in
      let admissible a b =
        let ia = Gdg.find g a and ib = Gdg.find g b in
        let predicted = merged_cost a b in
        monotonic g !sl a b
          ~merged_latency:(merge_bound ~pessimism ia ib ~predicted)
      in
      let cands = candidates g !groups ~width_limit in
      attempted := !attempted + List.length cands;
      cands
      |> List.filter_map (fun (a, b) ->
             let gain =
               (Gdg.find g a).Inst.latency +. (Gdg.find g b).Inst.latency
               -. merged_cost a b
             in
             if admissible a b && gain >= -1e-6 then Some (gain, a, b)
             else None)
      |> List.sort (fun (ga, a1, b1) (gb, a2, b2) ->
             compare (gb, a1, b1) (ga, a2, b2))
      |> List.iter (fun (_, a, b) ->
             if
               is_schedulable g !groups a b
               && merged_width g a b <= width_limit
               && admissible a b
             then
               match Gdg.merge g ~latency:(merged_cost a b) a b with
               | exception Invalid_argument _ -> ()
               | _ ->
                 incr merges;
                 incr merged_this_round;
                 sweep_again := true;
                 groups := Qgdg.Comm_group.build g;
                 sl := slack g)
    done;
    let recosted = ref false in
    List.iter
      (fun (i : Inst.t) ->
        let fresh = cost i.Inst.gates in
        if Float.abs (fresh -. i.Inst.latency) > 1e-9 then begin
          Gdg.set_latency g i.Inst.id fresh;
          recosted := true
        end)
      (Gdg.insts g);
    if !merged_this_round = 0 && not !recosted then converged := true
  done;
  { merges = !merges; rounds = !rounds; attempted = !attempted }

(* ---- CLS (paper §3.3.2, Algorithm 1) ---- *)

(* The scan-based list scheduler: every round re-filters the whole
   unscheduled suffix of the topological order for the instructions that
   sit in the current commutation group on all their qubits and are
   free, claims wide ones greedily, matches the rest, and steps time to
   the next qubit release when nothing is startable. Same counters as
   [Cls.schedule] apart from [cls.ready_visits]. *)
let cls_reference g =
  let n_qubits = Qgdg.Gdg.n_qubits g in
  let groups = Qgdg.Comm_group.build g in
  (* Per-qubit cursor over the ordered groups: [head.(q)] is the current
     group's position and [remaining.(q).(pos)] counts its unscheduled
     members. Membership probes read each instruction's group position
     from a per-qubit table filled from [groups_on] (a group label is
     not a position), instead of [List.mem] scans of a shrinking head
     list, and emptying the current group advances the cursor exactly
     where the list version dropped an emptied head — an unscheduled
     instruction is in the current group iff its group position equals
     the cursor. *)
  let total = Qgdg.Gdg.size g in
  let scheduled : (int, Qsched.Schedule.entry) Hashtbl.t = Hashtbl.create total in
  let qubit_free = Array.make (max 1 n_qubits) 0. in
  let head = Array.make (max 1 n_qubits) 0 in
  let per_qubit =
    Array.init (max 1 n_qubits) (fun q -> Qgdg.Comm_group.groups_on groups q)
  in
  let remaining =
    Array.map (fun gs -> Array.of_list (List.map List.length gs)) per_qubit
  in
  let position =
    Array.map
      (fun gs ->
        let tbl = Hashtbl.create 64 in
        List.iteri (fun k grp -> List.iter (fun id -> Hashtbl.replace tbl id k) grp) gs;
        tbl)
      per_qubit
  in
  let group_pos id q =
    Option.value ~default:(-1) (Hashtbl.find_opt position.(q) id)
  in
  let in_current_group id q =
    head.(q) < Array.length remaining.(q) && group_pos id q = head.(q)
  in
  let drop_from_group id q =
    let pos = group_pos id q in
    if pos >= 0 then begin
      remaining.(q).(pos) <- remaining.(q).(pos) - 1;
      while
        head.(q) < Array.length remaining.(q) && remaining.(q).(head.(q)) = 0
      do
        head.(q) <- head.(q) + 1
      done
    end
  in
  (* the unscheduled suffix of the topological order, pruned each round
     so the per-round scans shrink as the schedule fills (relative order
     is preserved, so candidate order — and therefore every matching
     decision — is unchanged) *)
  let topo_rest = ref (Qgdg.Gdg.insts g) in
  let eps = 1e-9 in
  let time = ref 0. in
  let entries = ref [] in
  while Hashtbl.length scheduled < total do
    topo_rest :=
      List.filter
        (fun (i : Inst.t) -> not (Hashtbl.mem scheduled i.Inst.id))
        !topo_rest;
    let candidates =
      List.filter
        (fun (i : Inst.t) ->
          List.for_all
            (fun q ->
              in_current_group i.Inst.id q && qubit_free.(q) <= !time +. eps)
            i.Inst.qubits)
        !topo_rest
    in
    let claimed = Array.make (max 1 n_qubits) false in
    let select (i : Inst.t) =
      let entry =
        { Qsched.Schedule.inst = i;
          start = !time;
          finish = !time +. i.Inst.latency }
      in
      Hashtbl.replace scheduled i.Inst.id entry;
      entries := entry :: !entries;
      List.iter
        (fun q ->
          claimed.(q) <- true;
          qubit_free.(q) <- entry.Qsched.Schedule.finish;
          drop_from_group i.Inst.id q)
        i.Inst.qubits
    in
    if candidates <> [] then begin
      Qobs.Metrics.tick "cls.matching_rounds";
      (* wide instructions claim greedily; the rest go through matching *)
      let wide, narrow = List.partition (fun i -> Inst.width i > 2) candidates in
      List.iter
        (fun (i : Inst.t) ->
          if List.for_all (fun q -> not claimed.(q)) i.Inst.qubits then select i)
        wide;
      let edges =
        List.filter_map
          (fun (i : Inst.t) ->
            if List.exists (fun q -> claimed.(q)) i.Inst.qubits then None
            else
              match i.Inst.qubits with
              | [ q ] -> Some { Qgraph.Matching.u = q; v = q; label = i }
              | [ q; r ] -> Some { Qgraph.Matching.u = q; v = r; label = i }
              | _ -> None)
          narrow
      in
      let chosen = Qgraph.Matching.maximal_edges ~n:n_qubits edges in
      Qobs.Metrics.tick ~by:(List.length chosen) "cls.matched";
      List.iter (fun e -> select e.Qgraph.Matching.label) chosen
    end;
    if Hashtbl.length scheduled < total then begin
      let startable_now =
        List.exists
          (fun (i : Inst.t) ->
            (not (Hashtbl.mem scheduled i.Inst.id))
            && List.for_all
                 (fun q ->
                   in_current_group i.Inst.id q
                   && qubit_free.(q) <= !time +. eps)
                 i.Inst.qubits)
          !topo_rest
      in
      if not startable_now then begin
        (* advance to the next qubit-release event: a candidate only
           becomes startable when some qubit frees up, and the release
           instants are exactly the [qubit_free] values, so stepping to
           the least one past [time] visits every instant at which the
           candidate set can grow (completions that are not any qubit's
           latest were barren rounds) *)
        let next =
          Array.fold_left
            (fun acc f -> if f > !time +. eps then Float.min acc f else acc)
            Float.infinity qubit_free
        in
        if next = Float.infinity then
          failwith "Cls.schedule: deadlock (malformed dependence graph)";
        Qobs.Metrics.tick "cls.time_advances";
        time := next
      end
    end
  done;
  Qsched.Schedule.make ~n_qubits !entries
