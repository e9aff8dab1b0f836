(* tests for the aggregation action space (against its test-scope
   specification in Qref) and the monotonic aggregator *)

open Qagg
open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst

let device = Qcontrol.Device.default
let cost gs = Qcontrol.Latency_model.block_time device gs
let gdg_of gates n = Gdg.of_circuit ~latency:cost (Circuit.make n gates)
let zz theta a b = [ Gate.cnot a b; Gate.rz theta b; Gate.cnot a b ]

let action_cases =
  [ case "adjacent gates on shared qubit are schedulable" (fun () ->
        let g = gdg_of [ Gate.cnot 0 1; Gate.cnot 1 2 ] 3 in
        let groups = Qgdg.Comm_group.build g in
        check_bool "0 absorbs 1" true (Qref.is_schedulable g groups 0 1);
        check_bool "wrong direction" false (Qref.is_schedulable g groups 1 0));
    case "disjoint gates are not schedulable" (fun () ->
        let g = gdg_of [ Gate.h 0; Gate.h 1 ] 2 in
        let groups = Qgdg.Comm_group.build g in
        check_bool "no overlap" false (Qref.is_schedulable g groups 0 1));
    case "non-adjacent non-commuting are rejected" (fun () ->
        let g = gdg_of [ Gate.h 0; Gate.x 0; Gate.h 0 ] 1 in
        let groups = Qgdg.Comm_group.build g in
        check_bool "h..h blocked by x" false (Qref.is_schedulable g groups 0 2));
    case "same-group siblings are schedulable" (fun () ->
        (* rz and rzz commute: the first and third can merge past the second *)
        let g = gdg_of [ Gate.rz 0.1 0; Gate.rzz 0.2 0 1; Gate.rz 0.3 0 ] 2 in
        let groups = Qgdg.Comm_group.build g in
        check_bool "rz past rzz" true (Qref.is_schedulable g groups 0 2));
    case "merged width" (fun () ->
        let g = gdg_of [ Gate.cnot 0 1; Gate.cnot 1 2 ] 3 in
        check_int "3 qubits" 3 (Qref.merged_width g 0 1));
    case "candidates respect width limit" (fun () ->
        let g = gdg_of [ Gate.cnot 0 1; Gate.cnot 1 2 ] 3 in
        let groups = Qgdg.Comm_group.build g in
        check_bool "found at width 3" true
          (List.mem (0, 1) (Qref.candidates g groups ~width_limit:3));
        check_bool "excluded at width 2" false
          (List.mem (0, 1) (Qref.candidates g groups ~width_limit:2)));
    case "candidates on triangle qaoa" (fun () ->
        let g =
          Gdg.of_circuit ~latency:cost (Qapps.Qaoa.triangle_example ())
        in
        let groups = Qgdg.Comm_group.build g in
        let cands = Qref.candidates g groups ~width_limit:10 in
        check_bool "non-empty" true (cands <> []);
        List.iter
          (fun (a, b) ->
            check_bool "each candidate is schedulable" true
              (Qref.is_schedulable g groups a b))
          cands) ]

let semantics_preserved original g =
  let after = Circuit.make (Gdg.n_qubits g) (Gdg.all_gates g) in
  Circuit.equal_semantics ~eps:1e-8 original after

(* the final graph as its sorted (id, gates, latency) list *)
let final_blocks g =
  List.sort compare
    (List.map
       (fun (i : Inst.t) -> (i.Inst.id, i.Inst.gates, i.Inst.latency))
       (Gdg.insts g))

(* [run] under its own metrics registry, with its [agg.attempted] count *)
let run_counted ~cost g =
  let m = Qobs.Metrics.create () in
  let stats = Qobs.Metrics.with_ambient m (fun () -> Aggregator.run ~cost g) in
  (stats, Qobs.Metrics.counter_value m "agg.attempted")

let matches_reference (inc, attempted) (spec : Qref.aggregate_stats) g r =
  inc.Aggregator.merges = spec.Qref.merges
  && inc.Aggregator.rounds = spec.Qref.rounds
  && attempted = spec.Qref.attempted
  && final_blocks g = final_blocks r

let aggregator_cases =
  [ case "staircase collapses to one block" (fun () ->
        let gates = List.init 5 (fun k -> Gate.cnot k (k + 1)) in
        let g = gdg_of gates 6 in
        let stats = Aggregator.run ~cost g in
        check_int "one instruction" 1 (Gdg.size g);
        check_bool "latency reduced" true
          (stats.Aggregator.final_makespan < stats.Aggregator.initial_makespan);
        Gdg.validate g);
    case "toffoli aggregates into one block" (fun () ->
        let circuit = Circuit.make 3 (Qgate.Decompose.ccx 0 1 2) in
        let g = Gdg.of_circuit ~latency:cost circuit in
        let stats = Aggregator.run ~cost g in
        check_bool "significant gain" true
          (stats.Aggregator.final_makespan < 0.6 *. stats.Aggregator.initial_makespan);
        check_bool "semantics" true (semantics_preserved circuit g));
    case "width limit respected" (fun () ->
        let gates = List.init 7 (fun k -> Gate.cnot k (k + 1)) in
        let g = gdg_of gates 8 in
        ignore (Aggregator.run ~width_limit:4 ~cost g);
        List.iter
          (fun (i : Inst.t) ->
            check_bool "width <= 4" true (Inst.width i <= 4))
          (Gdg.insts g);
        Gdg.validate g);
    case "makespan never increases" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        let g = Gdg.of_circuit ~latency:cost circuit in
        let stats = Aggregator.run ~cost g in
        check_bool "monotone" true
          (stats.Aggregator.final_makespan
           <= stats.Aggregator.initial_makespan +. 1e-6));
    case "serial pessimism is more conservative" (fun () ->
        let circuit = Circuit.make 3 (Qgate.Decompose.ccx 0 1 2) in
        let model_g = Gdg.of_circuit ~latency:cost circuit in
        let serial_g = Gdg.of_circuit ~latency:cost circuit in
        let m = Aggregator.run ~pessimism:`Model ~cost model_g in
        let s = Aggregator.run ~pessimism:`Serial ~cost serial_g in
        check_bool "model at least as aggressive" true
          (m.Aggregator.final_makespan <= s.Aggregator.final_makespan +. 1e-6));
    case "single instruction is a fixpoint" (fun () ->
        let g = gdg_of [ Gate.cnot 0 1 ] 2 in
        let stats = Aggregator.run ~cost g in
        check_int "no merges" 0 stats.Aggregator.merges);
    (* a latency outside [0, ∞) would read as "no live node" (nan) or
       break the chain-end makespan (negative), so [run] refuses it
       wherever the cost model answers *)
    case "rejects a bad merged-block cost" (fun () ->
        List.iter
          (fun bad ->
            let g = gdg_of [ Gate.cnot 0 1; Gate.cnot 1 2 ] 3 in
            let cost gs = if List.length gs > 1 then bad else cost gs in
            match Aggregator.run ~cost g with
            | _ -> Alcotest.failf "cost %g accepted" bad
            | exception Invalid_argument _ -> ())
          [ nan; infinity; -1. ]);
    case "rejects a bad re-cost" (fun () ->
        List.iter
          (fun bad ->
            (* one node: no candidate, so only the re-cost loop asks *)
            let g = gdg_of [ Gate.cnot 0 1 ] 2 in
            match Aggregator.run ~cost:(fun _ -> bad) g with
            | _ -> Alcotest.failf "re-cost %g accepted" bad
            | exception Invalid_argument _ -> ())
          [ nan; infinity; -1. ]);
    case "rejects a bad input latency" (fun () ->
        List.iter
          (fun bad ->
            (* [Inst.make] and [Gdg.set_latency] refuse a bad latency, so
               the bad value can only come as a raw record, which
               [Gdg.of_insts] refuses before any graph reaches [run] *)
            let i =
              { Inst.id = 0; gates = [ Gate.cnot 0 1 ]; qubits = [ 0; 1 ];
                latency = bad }
            in
            match Gdg.of_insts ~n_qubits:2 [ i ] with
            | _ -> Alcotest.failf "input latency %g accepted" bad
            | exception Invalid_argument _ -> ())
          [ nan; infinity; -1. ]);
    qcheck ~count:12 "aggregation preserves semantics on random circuits"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 4 12 in
        let circuit = Circuit.make 4 gates in
        let g = Gdg.of_circuit ~latency:cost circuit in
        ignore (Aggregator.run ~cost g);
        Gdg.validate g;
        semantics_preserved circuit g);
    qcheck ~count:12 "aggregation preserves semantics on commutative circuits"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 4 in
        let gates =
          List.concat
            (List.init 5 (fun _ ->
                 let a = Qgraph.Rand.int rng n in
                 let b = (a + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
                 zz (Qgraph.Rand.float rng 3.) (min a b) (max a b)))
        in
        let circuit = Circuit.make n gates in
        let g = Gdg.of_circuit ~latency:cost circuit in
        ignore
          (Qgdg.Diagonal.detect_and_contract ~latency:cost g);
        ignore (Aggregator.run ~cost g);
        Gdg.validate g;
        semantics_preserved circuit g);
    (* the incremental aggregator (spliced timing tables, windowed
       regrouping, memoized caches) against the full-recompute
       specification in Qref: same merge count, same rounds, the same
       number of candidates enumerated over all sweeps and the same final
       graph, merged-node ids included, from the same starting graph *)
    qcheck ~count:10 "incremental aggregator matches the reference"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 5 40 in
        let circuit = Circuit.make 5 gates in
        let g = Gdg.of_circuit ~latency:cost circuit in
        let r = Gdg.copy g in
        let inc = run_counted ~cost g in
        let spec = Qref.aggregate_reference ~cost r in
        Gdg.validate g;
        matches_reference inc spec g r && semantics_preserved circuit g);
    qcheck ~count:10 "incremental matches reference on commutative circuits"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 4 in
        let gates =
          List.concat
            (List.init 6 (fun _ ->
                 let a = Qgraph.Rand.int rng n in
                 let b = (a + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
                 zz (Qgraph.Rand.float rng 3.) (min a b) (max a b)))
        in
        let circuit = Circuit.make n gates in
        let g = Gdg.of_circuit ~latency:cost circuit in
        ignore (Qgdg.Diagonal.detect_and_contract ~latency:cost g);
        let r = Gdg.copy g in
        let inc = run_counted ~cost g in
        let spec = Qref.aggregate_reference ~cost r in
        Gdg.validate g;
        matches_reference inc spec g r && semantics_preserved circuit g);
    (* free 1-qubit blocks make zero-latency nodes, so chain neighbours
       share starts and tails: the slack worklists' heap keys tie along
       edges, and the tables must still match the full recompute *)
    qcheck ~count:10 "incremental matches reference under key ties"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let cost gs =
          match Gate.qubits (List.hd gs) with
          | [ q ] when List.for_all (fun g -> Gate.qubits g = [ q ]) gs -> 0.
          | _ -> cost gs
        in
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 5 40 in
        let circuit = Circuit.make 5 gates in
        let g = Gdg.of_circuit ~latency:cost circuit in
        let r = Gdg.copy g in
        let inc = run_counted ~cost g in
        let spec = Qref.aggregate_reference ~cost r in
        Gdg.validate g;
        matches_reference inc spec g r && semantics_preserved circuit g) ]

(* the regroup walks a window around each merge, never a whole chain:
   its visits per accepted merge stay bounded as the sqrt family grows
   (15.1–15.6 on these cells, every node read counted) *)
let work_cases =
  [ slow_case "regroup visits stay within 16 per accepted merge" (fun () ->
        List.iter
          (fun name ->
            let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
            List.iter
              (fun strategy ->
                let m = Qobs.Metrics.create () in
                ignore (Qcc.Compiler.compile ~metrics:m ~strategy circuit);
                let visits = Qobs.Metrics.counter_value m "agg.regroup_visits"
                and accepted = Qobs.Metrics.counter_value m "agg.accepted" in
                if accepted = 0 || visits > 16 * accepted then
                  Alcotest.failf "%s %s: %d regroup visits for %d merges" name
                    (Qcc.Strategy.to_string strategy) visits accepted)
              [ Qcc.Strategy.Aggregation; Qcc.Strategy.Cls_aggregation ])
          [ "sqrt-n3"; "sqrt-n4"; "sqrt-n5" ]);
    (* the phases and their unattributed remainder add up to the
       aggregate pass span, as [qcc stats] reads them off a ledger row *)
    case "aggregate phases sum to the pass span" (fun () ->
        let path = Filename.temp_file "qagg_phases" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let ledger = Qobs.Ledger.open_file path in
            ignore
              (Qcc.Compiler.compile ~ledger ~strategy:Qcc.Strategy.Aggregation
                 (Qapps.Suite.lowered (Qapps.Suite.find "maxcut-reg4")));
            Qobs.Ledger.close ledger;
            let rows =
              match Qobs.Ledger.read_file path with
              | Ok rows -> rows
              | Error e -> Alcotest.failf "read_file: %s" e
            in
            let t = Qobs.Stats.of_rows rows in
            Alcotest.(check (list string)) "phases"
              (List.map
                 (fun p -> "agg.phase." ^ p ^ ".ms")
                 [ "enumerate"; "recost"; "regroup"; "retime"; "score";
                   "unattributed" ])
              (List.map fst t.Qobs.Stats.agg_phases);
            List.iter
              (fun (name, ms) -> check_bool (name ^ " >= 0") true (ms >= 0.))
              t.Qobs.Stats.agg_phases;
            check_bool
              (Printf.sprintf "phases %.3f ms vs span %.3f ms"
                 (Qobs.Stats.agg_phase_sum t) t.Qobs.Stats.agg_span_ms)
              true
              (t.Qobs.Stats.agg_span_ms > 0. && Qobs.Stats.agg_phases_partition t))) ]

let suites =
  [ ("qagg.action", action_cases);
    ("qagg.aggregator", aggregator_cases);
    ("qagg.work", work_cases) ]
