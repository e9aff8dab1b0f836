(* a second layer of property tests: cross-module invariants that random
   inputs exercise harder than hand-picked cases *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Cmat = Qnum.Cmat

let device = Qcontrol.Device.default

let qasm_properties =
  [ qcheck ~count:30 "qasm print/parse is the identity on circuits"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 4 in
        let gates = random_unitary_gates rng n 15 in
        let c = Circuit.make n gates in
        let once = Qgate.Qasm.of_string (Qgate.Qasm.to_string c) in
        (* textual round-trip is exact: same gate list, not just same
           semantics *)
        List.length (Circuit.gates once) = List.length gates
        && List.for_all2
             (fun a b -> Gate.name a = Gate.name b && Gate.qubits a = Gate.qubits b)
             (Circuit.gates once) gates
        && Qgate.Qasm.to_string once = Qgate.Qasm.to_string c);
    (* the same round-trip over the real benchmark suite, cross-checked by
       the qcert equivalence engine: a certifier refutation here would mean
       either the printer/parser or the certifier itself is wrong *)
    case "qasm round-trip on suite circuits, qcert cross-check" (fun () ->
        List.iter
          (fun name ->
            let c = Qapps.Suite.lowered (Qapps.Suite.find name) in
            let rt = Qgate.Qasm.of_string (Qgate.Qasm.to_string c) in
            check_int
              (name ^ " register width") (Circuit.n_qubits c)
              (Circuit.n_qubits rt);
            check_bool
              (name ^ " gate-for-gate equal") true
              (List.equal Gate.equal (Circuit.gates c) (Circuit.gates rt));
            let o =
              Qcert.Rewrite.equivalence ~stage:"qasm" ~src:(Circuit.gates c)
                ~dst:(Circuit.gates rt)
            in
            check_bool (name ^ " certified equivalent") true
              (o.Qcert.Certificate.diags = [] && o.Qcert.Certificate.checks > 0))
          [ "maxcut-line"; "ising-n30"; "uccsd-n4" ]) ]

let fenwick_properties =
  [ qcheck ~count:50 "bravyi-kitaev index sets are disjoint and in range"
      QCheck.(pair (int_range 1 64) (int_range 0 1000))
      (fun (n, j0) ->
        let j = j0 mod n in
        let u = Qapps.Fermion.update_set ~n j in
        let p = Qapps.Fermion.parity_set ~n j in
        let f = Qapps.Fermion.flip_set ~n j in
        let in_range l = List.for_all (fun q -> q >= 0 && q < n) l in
        let disjoint a b = not (List.exists (fun q -> List.mem q b) a) in
        in_range u && in_range p && in_range f
        (* update set lies strictly above j, parity and flip strictly
           below *)
        && List.for_all (fun q -> q > j) u
        && List.for_all (fun q -> q < j) p
        && List.for_all (fun q -> q < j) f
        && disjoint u p
        (* the flip set stores occupations summed into j: always part of
           the parity data of modes below j *)
        && List.for_all (fun q -> List.mem q p || q >= j) f) ]

let weyl_properties =
  [ qcheck ~count:30 "interaction time is subadditive under composition"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let u = random_unitary rng 2 8 and v = random_unitary rng 2 8 in
        let t w = Qcontrol.Weyl.interaction_time device (Qcontrol.Weyl.coordinates w) in
        (* composing cannot need more interaction than the sum of parts *)
        t (Cmat.mul u v) <= t u +. t v +. 1e-6);
    qcheck ~count:30 "interaction time vanishes exactly on local unitaries"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let a = random_unitary rng 1 6 and b = random_unitary rng 1 6 in
        let u = Cmat.kron a b in
        Qcontrol.Weyl.interaction_time device (Qcontrol.Weyl.coordinates u)
        < 0.1) ]

let schedule_properties =
  [ case "utilization of a parallel layer is 1" (fun () ->
        let g =
          Qgdg.Gdg.of_circuit ~latency:(fun _ -> 5.)
            (Circuit.make 4 [ Gate.h 0; Gate.h 1; Gate.h 2; Gate.h 3 ])
        in
        check_float ~eps:1e-9 "full" 1. (Qsched.Schedule.utilization (Qsched.Asap.schedule g)));
    case "utilization of a serial chain is 1/n-ish" (fun () ->
        let g =
          Qgdg.Gdg.of_circuit ~latency:(fun _ -> 5.)
            (Circuit.make 3 [ Gate.h 0; Gate.x 0; Gate.h 0 ])
        in
        check_float ~eps:1e-9 "one third" (1. /. 3.)
          (Qsched.Schedule.utilization (Qsched.Asap.schedule g)));
    case "qubit busy time" (fun () ->
        let g =
          Qgdg.Gdg.of_circuit ~latency:(fun _ -> 4.)
            (Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1 ])
        in
        let s = Qsched.Asap.schedule g in
        check_float ~eps:1e-9 "q0" 8. (Qsched.Schedule.qubit_busy_time s 0);
        check_float ~eps:1e-9 "q1" 4. (Qsched.Schedule.qubit_busy_time s 1));
    qcheck ~count:20 "cls utilization never exceeds 1" QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 4 12 in
        let g =
          Qgdg.Gdg.of_circuit
            ~latency:(fun gs -> Qcontrol.Latency_model.isa_critical_path device gs)
            (Circuit.make 4 gates)
        in
        let u = Qsched.Schedule.utilization (Qsched.Cls.schedule g) in
        u >= 0. && u <= 1. +. 1e-9) ]

let alap_properties =
  [ case "alap preserves the makespan" (fun () ->
        let g =
          Qgdg.Gdg.of_circuit ~latency:(fun _ -> 3.)
            (Circuit.make 3 [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 1 2; Gate.h 0 ])
        in
        let asap = Qsched.Asap.schedule g and alap = Qsched.Alap.schedule g in
        check_float ~eps:1e-9 "same makespan" asap.Qsched.Schedule.makespan
          alap.Qsched.Schedule.makespan;
        check_bool "valid" true (Qsched.Schedule.conflicts alap = []));
    case "slack is nonnegative and zero on the critical path" (fun () ->
        let g =
          Qgdg.Gdg.of_circuit ~latency:(fun _ -> 2.)
            (Circuit.make 3 [ Gate.h 0; Gate.cnot 0 1; Gate.h 2 ])
        in
        List.iter (fun (_, s) -> check_bool "nonneg" true (s >= -1e-9)) (Qsched.Alap.slack g);
        let critical = Qsched.Alap.critical_path g in
        check_bool "h2 has slack" true
          (not
             (List.exists
                (fun (i : Qgdg.Inst.t) ->
                  List.exists (fun gg -> Gate.equal gg (Gate.h 2)) i.Qgdg.Inst.gates)
                critical));
        check_int "chain is critical" 2 (List.length critical));
    qcheck ~count:20 "alap starts never precede asap starts"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 4 10 in
        let g = Qgdg.Gdg.of_circuit ~latency:(fun _ -> 1.5) (Circuit.make 4 gates) in
        List.for_all (fun (_, s) -> s >= -1e-9) (Qsched.Alap.slack g)) ]

let handopt_properties =
  [ qcheck ~count:25 "handopt never increases gate count"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 3 25 in
        let c = Circuit.make 3 gates in
        Circuit.n_gates (Qcc.Handopt.optimize c) <= Circuit.n_gates c);
    qcheck ~count:25 "handopt is idempotent" QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 3 20 in
        let once = Qcc.Handopt.optimize (Circuit.make 3 gates) in
        let twice = Qcc.Handopt.optimize once in
        Circuit.gates once = Circuit.gates twice) ]

let latency_properties =
  [ qcheck ~count:25 "block time is invariant under qubit relabeling"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 3 8 in
        let t = Qcontrol.Latency_model.block_time device gates in
        let shifted = List.map (Gate.map_qubits (fun q -> q + 4)) gates in
        Float.abs (Qcontrol.Latency_model.block_time device shifted -. t) < 1e-6);
    qcheck ~count:25 "gate time independent of qubit labels"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let theta = Qgraph.Rand.float rng 6.28 in
        Float.abs
          (Qcontrol.Latency_model.gate_time device (Gate.rz theta 0)
          -. Qcontrol.Latency_model.gate_time device (Gate.rz theta 5))
        < 1e-9) ]

let suites =
  [ ("properties.qasm", qasm_properties);
    ("properties.fenwick", fenwick_properties);
    ("properties.weyl", weyl_properties);
    ("properties.schedule", schedule_properties);
    ("properties.alap", alap_properties);
    ("properties.handopt", handopt_properties);
    ("properties.latency", latency_properties) ]
