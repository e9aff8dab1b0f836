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
   pessimistic serial latency. Chain neighbours are read from the links
   of [a] and [b] (see {!Gdg.t}). *)
let monotonic (slack : Timing.t) a b ~merged_latency =
  let g = slack.g in
  let la = g.Gdg.links.(a) and lb = g.Gdg.links.(b) in
  let wa = Array.length la / 3 and wb = Array.length lb / 3 in
  let on_a q =
    let rec go k = k < wa && (la.(k) = q || go (k + 1)) in
    go 0
  in
  let delay = ref 0. in
  for k = 0 to wb - 1 do
    if not (on_a lb.(k)) then begin
      let p = lb.(wb + k) in
      if p >= 0 && p <> a then delay := Float.max !delay slack.finish.(p)
    end
  done;
  let new_start = Float.max slack.start.(a) !delay in
  let new_finish = new_start +. merged_latency in
  (* every chain successor of either member, the other member aside *)
  let rec succs_hold l w k =
    k >= 3 * w
    || (let c = l.(k) in
        c < 0 || c = a || c = b
        || new_finish <= slack.makespan -. slack.tail.(c) +. 1e-9)
       && succs_hold l w (k + 1)
  in
  new_finish <= slack.makespan +. 1e-9
  && succs_hold la wa (2 * wa)
  && succs_hold lb wb (2 * wb)

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
   makespan needs latencies ≥ 0, so any other cost is refused before it
   reaches them; {!Gdg.of_insts} refuses such input latencies *)
let check_cost v =
  if not (Float.is_finite v && v >= 0.) then
    invalid_arg (Printf.sprintf "Aggregator.run: cost latency %g" v)

(* the phases of [run], in the order of [phase_names] *)
let enumerate = 0
let score = 1
let retime = 2
let regroup = 3
let recost = 4
let phase_names = [ "enumerate"; "score"; "retime"; "regroup"; "recost" ]

(* outer re-costing rounds per run *)
let max_rounds = 8

let run ?(width_limit = 10) ?(pessimism = `Model) ~cost g =
  (* phase clock: [close p] charges the time since the previous boundary
     to phase [p] and [skip ()] leaves it unattributed; with metrics off a
     boundary is one branch *)
  let timed = Qobs.Metrics.enabled (Qobs.Metrics.ambient ()) in
  let t0 = if timed then Qobs.Clock.now_ns () else 0. in
  let phase_ns = Array.make (List.length phase_names) 0. in
  let mark = ref t0 in
  let close p =
    if timed then begin
      let now = Qobs.Clock.now_ns () in
      phase_ns.(p) <- phase_ns.(p) +. (now -. !mark);
      mark := now
    end
  in
  let skip () = if timed then mark := Qobs.Clock.now_ns () in
  let cost gates =
    let v = cost gates in
    check_cost v;
    v
  in
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
  (* state kept across merges and sweeps: commutation groups (refreshed
     on the merged support, which the qgdg suite pins as equivalent to a
     rebuild) and the timing tables *)
  skip ();
  let groups = Comm_group.build ~commute g in
  close regroup;
  let slack = ref (Timing.create g) in
  close retime;
  let initial_makespan = !slack.makespan in
  let slack_visits = ref 0 and regroup_visits = ref 0 in
  (* the action-space test of paper §4.1 against the chain links: [a]
     precedes [b] in the graph's order, and on every shared qubit the two
     are same-group siblings or chain-adjacent; O(width²) array reads *)
  let schedulable a b =
    a <> b
    && g.Gdg.pos.(a) < g.Gdg.pos.(b)
    &&
    let la = g.Gdg.links.(a) and lb = g.Gdg.links.(b) in
    let wa = Array.length la / 3 and wb = Array.length lb / 3 in
    let shared = ref false in
    let rec holds ka =
      ka >= wa
      || (let q = la.(ka) in
          let rec on_b kb = kb < wb && (lb.(kb) = q || on_b (kb + 1)) in
          (not (on_b 0))
          || begin
            shared := true;
            Comm_group.same_group groups ~qubit:q a b || la.((2 * wa) + ka) = b
          end)
         && holds (ka + 1)
    in
    holds 0 && !shared
  in
  (* per-qubit candidate enumeration: a valid pair shares some qubit on
     which the two members are chain-adjacent or same-group, so walking
     one chain's consecutive pairs plus each group's ordered pairs
     (group lists preserve chain order) generates every candidate whose
     shared qubit this is — the union over qubits is exactly the set of
     schedulable pairs, without the per-node group searches *)
  let pair_ok u v =
    merged_width g u v <= width_limit
    && schedulable u v
  in
  let candidates () =
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let add u v = if pair_ok u v then Hashtbl.replace seen (u, v) () in
    for q = 0 to Gdg.n_qubits g - 1 do
      let rec consec = function
        | u :: (v :: _ as rest) ->
          add u v;
          consec rest
        | _ -> ()
      in
      consec (Gdg.chain_ids g q);
      List.iter
        (fun group ->
          let rec pairs = function
            | [] -> ()
            | u :: rest ->
              List.iter (add u) rest;
              pairs rest
          in
          pairs group)
        (Comm_group.groups_on groups q)
    done;
    Hashtbl.fold (fun p () acc -> p :: acc) seen []
  in
  let merges = ref 0 and rounds = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !rounds < max_rounds do
    incr rounds;
    let merged_this_round = ref 0 in
    (* inner sweeps: enumerate and score the action space, then apply
       best-first with rechecks against the live tables *)
    let sweep_again = ref true in
    while !sweep_again do
      sweep_again := false;
      skip ();
      let candidates = candidates () in
      close enumerate;
      let scored =
        candidates
        |> List.filter_map (fun (a, b) ->
               Qobs.Metrics.tick "agg.attempted";
               let ia = Gdg.find g a and ib = Gdg.find g b in
               let predicted = merged_cost a b in
               let bound = merge_bound ~pessimism ia ib ~predicted in
               if monotonic !slack a b ~merged_latency:bound then begin
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
      close score;
      List.iter
        (fun (_, a, b, _) ->
          if
            Gdg.mem g a && Gdg.mem g b
            && merged_width g a b <= width_limit
            && schedulable a b
            &&
            let predicted = merged_cost a b in
            let bound =
              merge_bound ~pessimism (Gdg.find g a) (Gdg.find g b) ~predicted
            in
            monotonic !slack a b ~merged_latency:bound
          then begin
            let predicted = merged_cost a b in
            (* the links [Gdg.merge] detaches but leaves intact *)
            let la = g.Gdg.links.(a) and lb = g.Gdg.links.(b) in
            close score;
            match Timing.merge !slack ~latency:predicted a b with
            | exception Invalid_argument _ -> close retime
            | merged, visits ->
              close retime;
              Qobs.Metrics.tick "agg.accepted";
              incr merges;
              incr merged_this_round;
              sweep_again := true;
              slack_visits := !slack_visits + visits;
              regroup_visits :=
                !regroup_visits
                + Comm_group.refresh ~commute groups ~a ~la ~b ~lb merged;
              close regroup
          end)
        scored;
      close score
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
       round; groups and chain positions are latency-independent and stay
       valid *)
    close recost;
    if !recosted then begin
      slack := Timing.create g;
      close retime
    end;
    if !merged_this_round = 0 && not !recosted then continue_outer := false
  done;
  Qobs.Metrics.tick ~by:!rounds "agg.rounds";
  Qobs.Metrics.tick ~by:!slack_visits "agg.slack_visits";
  Qobs.Metrics.tick ~by:!regroup_visits "agg.regroup_visits";
  if timed then begin
    let total = Qobs.Clock.elapsed_ns t0 in
    List.iteri
      (fun p name ->
        Qobs.Metrics.record ("agg.phase." ^ name ^ ".ms") (phase_ns.(p) /. 1e6))
      phase_names;
    (* clamped: the phases sum to at most [total], up to float rounding *)
    Qobs.Metrics.record "agg.phase.unattributed.ms"
      (Float.max 0. (total -. Array.fold_left ( +. ) 0. phase_ns) /. 1e6)
  end;
  { merges = !merges;
    rounds = !rounds;
    initial_makespan;
    final_makespan = !slack.makespan }
