module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Comm_group = Qgdg.Comm_group
module Timing = Qgdg.Timing

type stats = {
  merges : int;
  rounds : int;
  initial_makespan : float;
  final_makespan : float;
}

(* merged block placed at a's start, delayed by b's predecessors on the
   qubits a does not cover; monotonic iff every successor's latest start
   (the makespan minus its tail) and the makespan still hold under the
   pessimistic serial latency *)
let monotonic g (slack : Timing.t) a b ~merged_latency =
  let nq = slack.nq in
  let ia = Gdg.find g a and ib = Gdg.find g b in
  let delay =
    List.fold_left
      (fun acc q ->
        if Inst.acts_on ia q then acc
        else
          let p = slack.pred.(b * nq + q) in
          if p >= 0 && p <> a then Float.max acc slack.finish.(p) else acc)
      0. ib.Inst.qubits
  in
  let new_start = Float.max slack.start.(a) delay in
  let new_finish = new_start +. merged_latency in
  let succ_of id qubits =
    List.filter_map
      (fun q ->
        let c = slack.succ.(id * nq + q) in
        if c >= 0 then Some c else None)
      qubits
  in
  let succs =
    List.sort_uniq compare
      (List.filter
         (fun c -> c <> a && c <> b)
         (succ_of a ia.Inst.qubits @ succ_of b ib.Inst.qubits))
  in
  new_finish <= slack.makespan +. 1e-9
  && List.for_all
       (fun c -> new_finish <= slack.makespan -. slack.tail.(c) +. 1e-9)
       succs

(* the monotonicity bound for a candidate merge: the paper's pessimistic
   serial sum by default, except that absorbing a single 1-qubit gate is
   bounded by the model's prediction — a lone rotation folds into the
   block's local layers, and pricing that is a cheap, reliable
   optimal-control query rather than speculation *)
let merge_bound ~pessimism (ia : Inst.t) (ib : Inst.t) ~predicted =
  let single_one_qubit (i : Inst.t) = Inst.width i = 1 in
  match pessimism with
  | `Model -> predicted
  | `Serial ->
    if single_one_qubit ia || single_one_qubit ib then predicted
    else ia.Inst.latency +. ib.Inst.latency

let merged_width g a b =
  let ia = Gdg.find g a and ib = Gdg.find g b in
  List.length (List.sort_uniq compare (ia.Inst.qubits @ ib.Inst.qubits))

(* the slack tables read a nan as "no live node" and the chain-end
   makespan needs latencies ≥ 0, so any other latency is refused before it
   reaches them *)
let check_latency what v =
  if not (Float.is_finite v && v >= 0.) then
    invalid_arg (Printf.sprintf "Aggregator.run: %s latency %g" what v)

let run ?(width_limit = 10) ?(max_rounds = 8) ?(pessimism = `Model) ~cost g =
  Gdg.iter_insts g (fun i -> check_latency "input" i.Inst.latency);
  let cost gates =
    let v = cost gates in
    check_latency "cost" v;
    v
  in
  let initial_makespan = Gdg.makespan g in
  (* unordered id pairs packed into one int (ids stay far below 2^31):
     unboxed keys hash and compare without allocation in these innermost
     caches *)
  let pack a b = if a < b then (a lsl 31) lor b else (b lsl 31) lor a in
  (* the id-pair decision cache sits on the oracle with one summary per
     block id ({!Comm_group.oracle_commute}) *)
  let oracle = Comm_group.oracle_commute () in
  let commute_cache : (int, bool) Hashtbl.t = Hashtbl.create 1024 in
  let commute (x : Inst.t) (y : Inst.t) =
    let key = pack x.Inst.id y.Inst.id in
    match Hashtbl.find_opt commute_cache key with
    | Some v -> v
    | None ->
      let v = oracle x y in
      Hashtbl.replace commute_cache key v;
      v
  in
  let cost_cache : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let merged_cost a b =
    (* normalized key: candidates are always oriented earlier-first on
       every shared chain, so (a, b) and (b, a) are never both queried
       and the min/max normalization (as in commute_cache) cannot alias
       distinct blocks *)
    let key = pack a b in
    match Hashtbl.find_opt cost_cache key with
    | Some v -> v
    | None ->
      let gates = (Gdg.find g a).Inst.gates @ (Gdg.find g b).Inst.gates in
      let v = cost gates in
      Hashtbl.replace cost_cache key v;
      v
  in
  (* persistent state maintained across merges and sweeps: commutation
     groups (refreshed on the merged support, which the qgdg suite pins
     as equivalent to a rebuild), chain positions, slack tables, and the
     candidate universe indexed by shared qubit *)
  let groups = Comm_group.build ~commute g in
  let slack = ref (Timing.create g) in
  let slack_visits = ref 0 in
  (* the action-space test of paper §4.1 against the array-backed chain
     tables: [a] precedes [b] on every shared qubit, where the two are
     same-group siblings or chain-adjacent; O(shared qubits) array reads *)
  let schedulable (ia : Inst.t) (ib : Inst.t) =
    let s : Timing.t = !slack in
    let nq = s.nq in
    let a = ia.Inst.id and b = ib.Inst.id in
    a <> b
    &&
    let common = Inst.common_qubits ia ib in
    common <> []
    && List.for_all
         (fun q ->
           s.pos.((a * nq) + q) < s.pos.((b * nq) + q)
           && (Comm_group.same_group groups ~qubit:q a b
               || s.succ.((a * nq) + q) = b))
         common
  in
  (* each pair is registered under (q, endpoint) for every qubit its
     endpoints share — its stored common-qubit list makes removal
     possible after an endpoint has been merged away, and the per-node
     registry lets a merge invalidate only the pairs touching the nodes
     whose chain neighbourhood or group actually changed *)
  let universe : (int * int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let reg : (int * int, (int * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 4096
  in
  let reg_tbl key =
    match Hashtbl.find_opt reg key with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace reg key t;
      t
  in
  let add_pair ((a, b) as p) =
    if not (Hashtbl.mem universe p) then begin
      let common = Inst.common_qubits (Gdg.find g a) (Gdg.find g b) in
      Hashtbl.replace universe p common;
      List.iter
        (fun q ->
          Hashtbl.replace (reg_tbl (q, a)) p ();
          Hashtbl.replace (reg_tbl (q, b)) p ())
        common
    end
  in
  let remove_pair ((a, b) as p) =
    match Hashtbl.find_opt universe p with
    | None -> ()
    | Some common ->
      Hashtbl.remove universe p;
      List.iter
        (fun q ->
          (match Hashtbl.find_opt reg (q, a) with
          | Some t -> Hashtbl.remove t p
          | None -> ());
          match Hashtbl.find_opt reg (q, b) with
          | Some t -> Hashtbl.remove t p
          | None -> ())
        common
  in
  (* per-qubit candidate enumeration: a valid pair shares some qubit on
     which the two members are chain-adjacent or same-group, so walking
     one chain's consecutive pairs plus each group's ordered pairs
     (group lists preserve chain order) generates every candidate whose
     shared qubit this is — the union over qubits is exactly the set of
     schedulable pairs, without the per-node group searches *)
  let pair_ok u v =
    merged_width g u v <= width_limit
    && schedulable (Gdg.find g u) (Gdg.find g v)
  in
  let add_candidates_on q =
    let rec consec = function
      | u :: (v :: _ as rest) ->
        if pair_ok u v then add_pair (u, v);
        consec rest
      | _ -> ()
    in
    consec (Gdg.chain_ids g q);
    List.iter
      (fun group ->
        let rec pairs = function
          | [] -> ()
          | u :: rest ->
            List.iter (fun v -> if pair_ok u v then add_pair (u, v)) rest;
            pairs rest
        in
        pairs group)
      (Comm_group.groups_on groups q)
  in
  for q = 0 to Gdg.n_qubits g - 1 do
    add_candidates_on q
  done;
  (* After merging [a] and [b] into [merged], a pair's candidacy can flip
     only through a changed per-qubit certificate — same-group membership
     or chain adjacency on a shared qubit — and both are confined to a
     window around the splice. Groups outside the structurally-unchanged
     prefix/suffix of the old vs. new group lists ("middle" groups) hold
     every node whose group membership moved (equal-index ⟺ same-group
     survives an index shift, so untouched groups certify unchanged
     membership even when their positions slide); adjacency changes only
     at [merged]'s position and where [a]/[b] left their chains. The
     union of those nodes is the changed set: pairs registered under
     (q, changed node) are dropped, then each changed node re-proposes
     its chain-neighbour pairs and its current-group pairs, which covers
     every certificate a dropped-or-new candidate could hold on q.
     Positions only shift uniformly past the splice, so relative chain
     order — the remaining ingredient of candidacy — never changes for
     surviving pairs. *)
  let update_universe_after_merge ~a ~b (merged : Inst.t) ~old_groups
      ~old_neighbors =
    let s : Timing.t = !slack in
    let nq = s.nq in
    List.iter
      (fun q ->
        let old_gs = List.assoc q old_groups in
        let new_gs = Comm_group.groups_on groups q in
        let rec strip xs ys =
          match (xs, ys) with
          | x :: xs', y :: ys' when x = y -> strip xs' ys'
          | _ -> (xs, ys)
        in
        let mid_old, mid_new =
          let xs, ys = strip old_gs new_gs in
          let rx, ry = strip (List.rev xs) (List.rev ys) in
          (List.rev rx, List.rev ry)
        in
        let changed =
          List.sort_uniq compare
            (List.filter
               (fun x -> x >= 0)
               (a :: b :: merged.Inst.id
                :: s.pred.((merged.Inst.id * nq) + q)
                :: s.succ.((merged.Inst.id * nq) + q)
                :: (List.assoc q old_neighbors
                   @ List.concat mid_old @ List.concat mid_new)))
        in
        List.iter
          (fun x ->
            match Hashtbl.find_opt reg (q, x) with
            | None -> ()
            | Some pairs ->
              Hashtbl.fold (fun p () acc -> p :: acc) pairs []
              |> List.iter remove_pair)
          changed;
        List.iter
          (fun x ->
            if Gdg.mem g x then begin
              let p = s.pred.((x * nq) + q) and c = s.succ.((x * nq) + q) in
              if p >= 0 && pair_ok p x then add_pair (p, x);
              if c >= 0 && pair_ok x c then add_pair (x, c);
              match Comm_group.group_index groups ~qubit:q x with
              | exception Not_found -> ()
              | gi ->
                let group = List.nth (Comm_group.groups_on groups q) gi in
                (* group lists preserve chain order: members before [x]
                   are the earlier element of their pair *)
                let rec before = function
                  | [] -> ()
                  | w :: rest ->
                    if w = x then after rest
                    else begin
                      if pair_ok w x then add_pair (w, x);
                      before rest
                    end
                and after = function
                  | [] -> ()
                  | w :: rest ->
                    if pair_ok x w then add_pair (x, w);
                    after rest
                in
                before group
            end)
          changed)
      merged.Inst.qubits
  in
  let merges = ref 0 and rounds = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !rounds < max_rounds do
    incr rounds;
    let merged_this_round = ref 0 in
    (* inner sweeps: score the maintained universe, then apply best-first
       with rechecks against the live tables *)
    let sweep_again = ref true in
    while !sweep_again do
      sweep_again := false;
      let scored =
        Hashtbl.fold (fun p _ acc -> p :: acc) universe []
        |> List.filter_map (fun (a, b) ->
               Qobs.Metrics.tick "agg.attempted";
               let ia = Gdg.find g a and ib = Gdg.find g b in
               let predicted = merged_cost a b in
               let bound = merge_bound ~pessimism ia ib ~predicted in
               if monotonic g !slack a b ~merged_latency:bound then begin
                 let gain = ia.Inst.latency +. ib.Inst.latency -. predicted in
                 (* neutral-gain growth merges are allowed: they never
                    lengthen the schedule and enable later wide wins *)
                 if gain >= -1e-6 then Some (gain, a, b, predicted) else None
               end
               else begin
                 Qobs.Metrics.tick "agg.vetoed_monotonic";
                 None
               end)
        |> List.sort (fun (ga, a1, b1, _) (gb, a2, b2, _) ->
               match compare gb ga with
               | 0 -> compare (a1, b1) (a2, b2)
               | c -> c)
      in
      List.iter
        (fun (_, a, b, _) ->
          if
            Gdg.mem g a && Gdg.mem g b
            && merged_width g a b <= width_limit
            && schedulable (Gdg.find g a) (Gdg.find g b)
            &&
            let predicted = merged_cost a b in
            let bound =
              merge_bound ~pessimism (Gdg.find g a) (Gdg.find g b) ~predicted
            in
            monotonic g !slack a b ~merged_latency:bound
          then begin
            let predicted = merged_cost a b in
            match
              Gdg.merge ~rank:(Timing.rank !slack) g ~latency:predicted a b
            with
            | exception Invalid_argument _ -> ()
            | merged ->
              Qobs.Metrics.tick "agg.accepted";
              incr merges;
              incr merged_this_round;
              sweep_again := true;
              (* pre-merge groups and splice neighbours, read before the
                 refresh / splice overwrite them — the universe diff
                 needs both sides of the change *)
              let old_groups =
                List.map
                  (fun q -> (q, Comm_group.groups_on groups q))
                  merged.Inst.qubits
              in
              let old_neighbors =
                let s : Timing.t = !slack in
                let nq = s.nq in
                List.map
                  (fun q ->
                    ( q,
                      [ s.pred.((a * nq) + q); s.succ.((a * nq) + q);
                        s.pred.((b * nq) + q); s.succ.((b * nq) + q) ] ))
                  merged.Inst.qubits
              in
              Comm_group.refresh ~commute groups g ~qubits:merged.Inst.qubits;
              slack_visits := !slack_visits + Timing.splice !slack ~a ~b merged;
              update_universe_after_merge ~a ~b merged ~old_groups
                ~old_neighbors
          end)
        scored
    done;
    (* optimal-control query: re-cost every block *)
    let recosted = ref false in
    List.iter
      (fun (i : Inst.t) ->
        let fresh = cost i.Inst.gates in
        if Float.abs (fresh -. i.Inst.latency) > 1e-9 then begin
          Gdg.set_latency g i.Inst.id fresh;
          recosted := true
        end)
      (Gdg.insts g);
    (* latencies moved globally, so the slack fixpoint is rebuilt once per
       round; groups, positions and the candidate universe are
       latency-independent and stay valid *)
    if !recosted then slack := Timing.create g;
    if !merged_this_round = 0 && not !recosted then continue_outer := false
  done;
  Qobs.Metrics.tick ~by:!rounds "agg.rounds";
  Qobs.Metrics.tick ~by:!slack_visits "agg.slack_visits";
  { merges = !merges;
    rounds = !rounds;
    initial_makespan;
    final_makespan = Gdg.makespan g }
