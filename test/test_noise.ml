(* tests for the density-matrix simulator, noise channels and the
   latency-fidelity connection, plus the QFT benchmark and the
   Appendix-A architecture models *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Density = Qsim.Density
module State = Qsim.State

let density_cases =
  [ case "zero state is pure with trace 1" (fun () ->
        let d = Density.zero 2 in
        check_float ~eps:1e-12 "trace" 1. (Density.trace d);
        check_float ~eps:1e-12 "purity" 1. (Density.purity d));
    case "unitary evolution preserves purity" (fun () ->
        let d =
          Density.apply_circuit (Density.zero 2)
            (Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.rz 0.7 1 ])
        in
        check_float ~eps:1e-9 "trace" 1. (Density.trace d);
        check_float ~eps:1e-9 "purity" 1. (Density.purity d));
    case "density matches state vector" (fun () ->
        let circuit = Circuit.make 3 [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let st = State.apply_circuit (State.zero 3) circuit in
        let d = Density.apply_circuit (Density.zero 3) circuit in
        check_float ~eps:1e-9 "fidelity 1" 1. (Density.fidelity_to_state d st);
        let probs_d = Density.probabilities d in
        Array.iteri
          (fun k p -> check_float ~eps:1e-9 "probs agree" (State.probability st k) p)
          probs_d);
    case "amplitude damping decays |1>" (fun () ->
        let d = Density.apply_gate (Density.zero 1) (Gate.x 0) in
        let d = Density.apply_kraus d ~qubit:0 (Density.amplitude_damping ~gamma:0.3) in
        let probs = Density.probabilities d in
        check_float ~eps:1e-9 "P(1) reduced" 0.7 probs.(1);
        check_float ~eps:1e-9 "P(0) grows" 0.3 probs.(0));
    case "phase damping kills coherence, keeps populations" (fun () ->
        let d = Density.apply_gate (Density.zero 1) (Gate.h 0) in
        let d = Density.apply_kraus d ~qubit:0 (Density.phase_damping ~lambda:1.0) in
        let probs = Density.probabilities d in
        check_float ~eps:1e-9 "P(0)" 0.5 probs.(0);
        check_float ~eps:1e-9 "purity halves" 0.5 (Density.purity d));
    case "non-trace-preserving kraus raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Density.apply_kraus: operators are not trace-preserving")
          (fun () ->
            ignore
              (Density.apply_kraus (Density.zero 1) ~qubit:0
                 [ Qnum.Cmat.scale_real 0.5 Qgate.Unitary.pauli_x ])));
    case "idle decay matches T1 law" (fun () ->
        let t1 = 100. and t2 = 100. in
        let d = Density.apply_gate (Density.zero 1) (Gate.x 0) in
        let d = Density.idle ~t1 ~t2 ~duration:50. d 0 in
        check_float ~eps:1e-9 "P(1) = e^{-t/T1}" (Float.exp (-0.5))
          (Density.probabilities d).(1));
    case "idle coherence matches T2 law" (fun () ->
        let t1 = 200. and t2 = 120. in
        let d = Density.apply_gate (Density.zero 1) (Gate.h 0) in
        let d = Density.idle ~t1 ~t2 ~duration:60. d 0 in
        (* off-diagonal element of rho decays as e^{-t/T2} *)
        let m = Density.matrix d in
        check_float ~eps:1e-9 "coherence" (0.5 *. Float.exp (-.(60. /. 120.)))
          (Qnum.Cx.abs (Qnum.Cmat.get m 0 1)));
    case "t2 > 2 t1 rejected" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Density.idle: T2 must not exceed 2*T1") (fun () ->
            ignore (Density.idle ~t1:10. ~t2:30. ~duration:1. (Density.zero 1) 0))) ]

let noisy_cases =
  [ case "noiseless limit gives fidelity 1" (fun () ->
        let gdg =
          Qgdg.Gdg.of_circuit ~latency:(fun _ -> 10.)
            (Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1 ])
        in
        let s = Qsched.Asap.schedule gdg in
        let f =
          Qsim.Noisy_sim.schedule_fidelity
            ~noise:{ Qsim.Noisy_sim.t1 = 1e15; t2 = 1e15 } s
        in
        check_float ~eps:1e-9 "fidelity" 1. f);
    case "longer schedules lose more fidelity" (fun () ->
        let circuit = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.rz 0.4 1 ] in
        let schedule_with scale =
          let gdg = Qgdg.Gdg.of_circuit ~latency:(fun _ -> scale) circuit in
          Qsched.Asap.schedule gdg
        in
        let noise = { Qsim.Noisy_sim.t1 = 3_000.; t2 = 2_000. } in
        let fast = Qsim.Noisy_sim.schedule_fidelity ~noise (schedule_with 10.) in
        let slow = Qsim.Noisy_sim.schedule_fidelity ~noise (schedule_with 100.) in
        check_bool "monotone in latency" true (fast > slow);
        check_bool "both physical" true (slow > 0. && fast <= 1. +. 1e-9));
    case "aggregated compilation preserves more fidelity" (fun () ->
        let graph =
          Qgraph.Graph.of_edges 5 (List.init 5 (fun k -> (k, (k + 1) mod 5)))
        in
        let circuit = Qapps.Qaoa.circuit ~gamma:0.4 ~beta:1.2 graph in
        let config =
          { Qcc.Backend.default with
            Qcc.Backend.topology = Some (Qmap.Topology.line 5) }
        in
        let fid strategy =
          let r = Qcc.Compiler.compile ~config ~strategy circuit in
          Qsim.Noisy_sim.schedule_fidelity r.Qcc.Compiler.schedule
        in
        check_bool "agg beats isa" true
          (fid Qcc.Strategy.Cls_aggregation > fid Qcc.Strategy.Isa));
    case "survival estimate decays" (fun () ->
        let a = Qsim.Noisy_sim.survival_estimate ~n_qubits:3 100. in
        let b = Qsim.Noisy_sim.survival_estimate ~n_qubits:3 1000. in
        check_bool "monotone" true (a > b && b > 0.)) ]

let qft_cases =
  [ case "matches dft matrix up to 4 qubits" (fun () ->
        List.iter
          (fun n ->
            check_mat_phase ~eps:1e-8
              (Printf.sprintf "qft %d" n)
              (Qapps.Qft.matrix n)
              (Circuit.unitary (Qapps.Qft.circuit n)))
          [ 1; 2; 3; 4 ]);
    case "gate count" (fun () ->
        (* n H + n(n-1)/2 controlled phases + floor(n/2) swaps *)
        let n = 5 in
        check_int "count" (5 + 10 + 2) (Circuit.n_gates (Qapps.Qft.circuit n)));
    case "approximate qft drops small rotations" (fun () ->
        let full = Circuit.n_gates (Qapps.Qft.circuit 6) in
        let approx = Circuit.n_gates (Qapps.Qft.circuit ~approximation:2 6) in
        check_bool "fewer gates" true (approx < full));
    case "qft has low commutativity" (fun () ->
        let c =
          Qapps.Characteristics.analyze
            (Qgate.Decompose.to_isa (Qapps.Qft.circuit 8))
        in
        check_bool "below qaoa" true (c.Qapps.Characteristics.commutativity < 0.9));
    case "suite exposes qft instances" (fun () ->
        check_int "12 qubits" 12
          (Circuit.n_qubits (Lazy.force (Qapps.Suite.find "qft-n12").Qapps.Suite.circuit))) ]

let arch_cases =
  let dev i = Qcontrol.Device.with_interaction i Qcontrol.Device.default in
  let gt i g = Qcontrol.Latency_model.gate_time (dev i) g in
  [ case "iswap is native-fast on xy" (fun () ->
        check_bool "xy < zz" true
          (gt Qcontrol.Device.Xy (Gate.iswap 0 1)
           < gt Qcontrol.Device.Zz (Gate.iswap 0 1)));
    case "cphase is native-fast on zz" (fun () ->
        check_bool "zz <= xy" true
          (gt Qcontrol.Device.Zz (Gate.cz 0 1) <= gt Qcontrol.Device.Xy (Gate.cz 0 1)));
    case "swap is native-fast on heisenberg (appendix a)" (fun () ->
        let h = gt Qcontrol.Device.Heisenberg (Gate.swap 0 1) in
        check_bool "beats xy" true (h < gt Qcontrol.Device.Xy (Gate.swap 0 1));
        check_bool "beats zz" true (h < gt Qcontrol.Device.Zz (Gate.swap 0 1));
        (* a single Heisenberg segment: pi/4 / mu2 *)
        check_float ~eps:0.1 "39.3 ns" 39.27 h);
    case "grape synthesizes cphase on a zz device" (fun () ->
        let device = dev Qcontrol.Device.Zz in
        let p =
          { Qcontrol.Grape.n_qubits = 2;
            couplings = [ (0, 1) ];
            target = Qgate.Unitary.of_kind (Gate.Cphase 1.2);
            duration = 45.;
            n_steps = 45;
            device }
        in
        let r = Qcontrol.Grape.optimize ~max_iterations:800 ~target_fidelity:0.99 p in
        check_bool "converges" true (r.Qcontrol.Grape.fidelity >= 0.99));
    case "interaction times ordering for canonical classes" (fun () ->
        let c = Qcontrol.Weyl.swap_coords in
        let t i = Qcontrol.Weyl.interaction_time (dev i) c in
        check_bool "heisenberg fastest for swap" true
          (t Qcontrol.Device.Heisenberg < t Qcontrol.Device.Xy
           && t Qcontrol.Device.Xy < t Qcontrol.Device.Zz));
    case "compilation end to end on each architecture" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        List.iter
          (fun i ->
            let config =
              { Qcc.Backend.default with
                Qcc.Backend.device = dev i;
                topology = Some (Qmap.Topology.line 3) }
            in
            let r =
              Qcc.Compiler.compile ~config ~strategy:Qcc.Strategy.Cls_aggregation
                circuit
            in
            check_bool
              (Qcontrol.Device.interaction_name i)
              true
              (r.Qcc.Compiler.latency > 0.))
          [ Qcontrol.Device.Xy; Qcontrol.Device.Zz; Qcontrol.Device.Heisenberg ]) ]

let suites =
  [ ("qsim.density", density_cases);
    ("qsim.noisy", noisy_cases);
    ("qapps.qft", qft_cases);
    ("qcontrol.architectures", arch_cases) ]
