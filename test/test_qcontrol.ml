(* tests for the control layer: device, pulses, Hamiltonians, Weyl
   coordinates, GRAPE and the latency model *)

open Qcontrol
open Util
module Gate = Qgate.Gate

let device = Device.default
let quarter_pi = Float.pi /. 4.

let device_cases =
  [ case "default limits" (fun () ->
        check_float "mu2" 0.02 device.Device.mu2;
        check_float "mu1 is 5x mu2" (5. *. device.Device.mu2) device.Device.mu1);
    case "rotation time geodesic reduction" (fun () ->
        (* 2π - 0.3 is geodesically 0.3 *)
        check_float ~eps:1e-9 "wraps"
          (Device.one_qubit_rotation_time device 0.3)
          (Device.one_qubit_rotation_time device ((2. *. Float.pi) -. 0.3)));
    case "rotation time of pi" (fun () ->
        check_float ~eps:1e-9 "pi rotation" (Float.pi /. 0.2)
          (Device.one_qubit_rotation_time device Float.pi));
    case "negative limits raise" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Device.make: non-positive limit")
          (fun () -> ignore (Device.make ~mu2:(-1.) ~mu1:0.1 ()))) ]

let pulse_cases =
  [ case "duration" (fun () ->
        let p = Pulse.constant ~dt:0.5 ~labels:[| "x0" |] ~steps:8 [| 0.1 |] in
        check_float "4 ns" 4. (Pulse.duration p);
        check_int "steps" 8 (Pulse.n_steps p));
    case "concat" (fun () ->
        let a = Pulse.constant ~dt:1. ~labels:[| "x0" |] ~steps:3 [| 0.1 |] in
        let b = Pulse.constant ~dt:1. ~labels:[| "x0" |] ~steps:2 [| -0.1 |] in
        let c = Pulse.concat a b in
        check_int "steps" 5 (Pulse.n_steps c);
        check_float "max amp" 0.1 (Pulse.max_amplitude c "x0"));
    case "concat mismatched labels raises" (fun () ->
        let a = Pulse.constant ~dt:1. ~labels:[| "x0" |] ~steps:1 [| 0.1 |] in
        let b = Pulse.constant ~dt:1. ~labels:[| "y0" |] ~steps:1 [| 0.1 |] in
        Alcotest.check_raises "raises" (Invalid_argument "Pulse.concat: channel mismatch")
          (fun () -> ignore (Pulse.concat a b)));
    case "clip" (fun () ->
        let p = Pulse.constant ~dt:1. ~labels:[| "x0" |] ~steps:2 [| 0.5 |] in
        let clipped = Pulse.clip ~limits:(fun _ -> 0.2) p in
        check_float "clipped" 0.2 (Pulse.max_amplitude clipped "x0"));
    case "unknown channel raises" (fun () ->
        let p = Pulse.constant ~dt:1. ~labels:[| "x0" |] ~steps:1 [| 0.1 |] in
        Alcotest.check_raises "raises" Not_found (fun () ->
            ignore (Pulse.max_amplitude p "zz"))) ]

let hamiltonian_cases =
  [ case "channel count" (fun () ->
        let chans =
          Hamiltonian.channels ~device ~n_qubits:3
            ~couplings:(Hamiltonian.line_couplings 3)
        in
        (* 2 drives per qubit + 2 couplings *)
        check_int "count" 8 (List.length chans));
    case "limits per channel kind" (fun () ->
        let chans =
          Hamiltonian.channels ~device ~n_qubits:2 ~couplings:[ (0, 1) ]
        in
        List.iter
          (fun ch ->
            let expected =
              if String.length ch.Hamiltonian.label >= 2
                 && String.sub ch.Hamiltonian.label 0 2 = "xy"
              then device.Device.mu2
              else device.Device.mu1
            in
            check_float ch.Hamiltonian.label expected ch.Hamiltonian.limit)
          chans);
    case "operators hermitian" (fun () ->
        let chans =
          Hamiltonian.channels ~device ~n_qubits:2 ~couplings:[ (0, 1) ]
        in
        List.iter
          (fun ch ->
            check_bool ch.Hamiltonian.label true
              (Qnum.Cmat.is_hermitian ~eps:1e-12 ch.Hamiltonian.operator))
          chans);
    case "xy exchange drives iswap" (fun () ->
        (* exp(+i (π/4) (XX+YY)) = iSWAP: evolve with amplitude -µ for
           t = π/(4µ) *)
        let h = Hamiltonian.xy_exchange ~n_qubits:2 0 1 in
        let t = Float.pi /. (4. *. device.Device.mu2) in
        let u = Qnum.Expm.propagator (Qnum.Cmat.scale_real (-.device.Device.mu2) h) t in
        check_mat_phase ~eps:1e-8 "iswap" (Qgate.Unitary.of_kind Gate.Iswap) u);
    case "repeated coupling raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Hamiltonian.channels: repeated coupling") (fun () ->
            ignore
              (Hamiltonian.channels ~device ~n_qubits:2 ~couplings:[ (0, 1); (1, 0) ])));
    case "total sums amplitudes" (fun () ->
        let chans = Hamiltonian.channels ~device ~n_qubits:1 ~couplings:[] in
        let h = Hamiltonian.total chans [| 0.3; 0. |] in
        check_mat ~eps:1e-12 "0.3 X"
          (Qnum.Cmat.scale_real 0.3 Qgate.Unitary.pauli_x)
          h) ]

let weyl_known =
  [ ("cnot", Qgate.Unitary.of_kind Gate.Cnot, (quarter_pi, 0., 0.));
    ("cz", Qgate.Unitary.of_kind Gate.Cz, (quarter_pi, 0., 0.));
    ("iswap", Qgate.Unitary.of_kind Gate.Iswap, (quarter_pi, quarter_pi, 0.));
    ("swap", Qgate.Unitary.of_kind Gate.Swap, (quarter_pi, quarter_pi, quarter_pi));
    ("sqrt_iswap", Qgate.Unitary.of_kind Gate.Sqrt_iswap,
     (quarter_pi /. 2., quarter_pi /. 2., 0.));
    ("identity", Qnum.Cmat.identity 4, (0., 0., 0.));
    ("rzz(1.0)", Qgate.Unitary.of_kind (Gate.Rzz 1.0), (0.5, 0., 0.)) ]

let weyl_cases =
  List.map
    (fun (name, u, (e1, e2, e3)) ->
      case (Printf.sprintf "coordinates of %s" name) (fun () ->
          let c = Weyl.coordinates u in
          check_float ~eps:1e-5 "c1" e1 c.Weyl.c1;
          check_float ~eps:1e-5 "c2" e2 c.Weyl.c2;
          check_float ~eps:1e-5 "c3" e3 c.Weyl.c3))
    weyl_known
  @ [ case "non-unitary raises" (fun () ->
          Alcotest.check_raises "raises"
            (Invalid_argument "Weyl.coordinates: matrix is not unitary")
            (fun () ->
              ignore (Weyl.coordinates (Qnum.Cmat.scale_real 2. (Qnum.Cmat.identity 4)))));
      case "wrong size raises" (fun () ->
          Alcotest.check_raises "raises"
            (Invalid_argument "Weyl.coordinates: expected a 4x4 matrix")
            (fun () -> ignore (Weyl.coordinates (Qnum.Cmat.identity 2))));
      case "decompositions and capped solves are counted" (fun () ->
          (* SWAP's M·Mᵀ has a repeated eigenvalue, CNOT's does not *)
          let m = Qobs.Metrics.create () in
          Qobs.Metrics.with_ambient m (fun () ->
              ignore (Weyl.coordinates (Qgate.Unitary.of_kind Gate.Swap));
              ignore (Weyl.coordinates (Qgate.Unitary.of_kind Gate.Cnot)));
          check_int "calls" 2 (Qobs.Metrics.counter_value m "weyl.calls");
          check_int "capped" 1 (Qobs.Metrics.counter_value m "weyl.capped"));
      case "interaction times at anchors" (fun () ->
          check_float ~eps:0.1 "iswap" 39.27 (Weyl.interaction_time device Weyl.iswap_coords);
          check_float ~eps:0.1 "cnot" 39.27 (Weyl.interaction_time device Weyl.cnot_coords);
          check_float ~eps:0.1 "swap" 58.9 (Weyl.interaction_time device Weyl.swap_coords));
      case "canonical gate reproduces its coordinates" (fun () ->
          let c = { Weyl.c1 = 0.5; c2 = 0.3; c3 = 0.1 } in
          let back = Weyl.coordinates (Weyl.canonical_gate c) in
          check_float ~eps:1e-6 "c1" c.Weyl.c1 back.Weyl.c1;
          check_float ~eps:1e-6 "c2" c.Weyl.c2 back.Weyl.c2;
          check_float ~eps:1e-6 "c3" c.Weyl.c3 back.Weyl.c3);
      qcheck ~count:40 "coordinates invariant under local gates"
        QCheck.(int_range 0 100000)
        (fun seed ->
          let rng = Qgraph.Rand.create seed in
          let u = random_unitary rng 2 10 in
          let local q =
            Qgate.Unitary.of_gates ~n_qubits:2
              [ Qgate.Gate.rz (Qgraph.Rand.float rng 6.) q;
                Qgate.Gate.ry (Qgraph.Rand.float rng 6.) q ]
          in
          let dressed = Qnum.Cmat.mul (local 0) (Qnum.Cmat.mul u (local 1)) in
          let a = Weyl.coordinates u and b = Weyl.coordinates dressed in
          (* near-degenerate spectra limit root-finder accuracy to ~1e-4
             and boundary snapping adds up to 5e-4; 2e-3 rad is 0.1 ns *)
          Float.abs (a.Weyl.c1 -. b.Weyl.c1) < 2e-3
          && Float.abs (a.Weyl.c2 -. b.Weyl.c2) < 2e-3
          && Float.abs (a.Weyl.c3 -. b.Weyl.c3) < 2e-3);
      qcheck ~count:1000 "Weyl coordinates match the reference"
        QCheck.(int_range 0 100000)
        (fun seed ->
          let rng = Qgraph.Rand.create seed in
          let u =
            Qgate.Unitary.of_gates ~n_qubits:2
              (List.init
                 (1 + Qgraph.Rand.int rng 8)
                 (fun _ -> random_vocabulary_gate rng 2))
          in
          let reference =
            Weyl.of_eigenvalues
              (fst (Qref.poly_roots (Qnum.Eig.char_poly (Weyl.gram u))))
          in
          let bits c =
            Printf.sprintf "%h %h %h" c.Weyl.c1 c.Weyl.c2 c.Weyl.c3
          in
          bits (Weyl.coordinates u) = bits reference);
      qcheck ~count:40 "coordinates live in the chamber"
        QCheck.(int_range 0 100000)
        (fun seed ->
          let u = random_unitary (Qgraph.Rand.create seed) 2 12 in
          let c = Weyl.coordinates u in
          c.Weyl.c1 >= c.Weyl.c2 && c.Weyl.c2 >= c.Weyl.c3 && c.Weyl.c3 >= 0.
          && c.Weyl.c1 <= quarter_pi +. 1e-9) ]

let latency_cases =
  let gt g = Latency_model.gate_time device g in
  [ case "table 1 anchors" (fun () ->
        check_float ~eps:0.1 "cnot" 47.12 (gt (Gate.cnot 0 1));
        check_float ~eps:0.1 "swap" 58.90 (gt (Gate.swap 0 1));
        check_float ~eps:0.1 "iswap" 39.27 (gt (Gate.iswap 0 1));
        check_float ~eps:0.1 "h" 15.71 (gt (Gate.h 0));
        check_float ~eps:0.1 "rx(1.26)" 6.3 (gt (Gate.rx 1.26 0)));
    case "identity gate free" (fun () -> check_float "id" 0. (gt (Gate.id 0)));
    case "ccx costed via decomposition" (fun () ->
        check_bool "order of magnitude" true
          (gt (Gate.ccx 0 1 2) > 250. && gt (Gate.ccx 0 1 2) < 400.));
    case "zz block matches paper G4" (fun () ->
        let zz = [ Gate.cnot 0 1; Gate.rz 5.67 1; Gate.cnot 0 1 ] in
        let t = Latency_model.block_time device zz in
        check_bool "30-32 ns (paper 31.4)" true (t > 29. && t < 33.));
    case "block never beats interaction bound" (fun () ->
        let gates = [ Gate.cnot 0 1 ] in
        check_bool "cnot block >= 39.27" true
          (Latency_model.block_time device gates >= 39.2));
    case "block never exceeds isa critical path" (fun () ->
        let gates =
          [ Gate.h 0; Gate.cnot 0 1; Gate.t 1; Gate.cnot 1 2; Gate.rz 0.3 2 ]
        in
        check_bool "bounded" true
          (Latency_model.block_time device gates
           <= Latency_model.isa_critical_path device gates +. 1e-9));
    case "wider than limit falls back to isa" (fun () ->
        let gates = List.init 4 (fun k -> Gate.cnot k (k + 1)) in
        check_float ~eps:1e-9 "fallback"
          (Latency_model.isa_critical_path device gates)
          (Latency_model.block_time ~width_limit:3 device gates));
    case "empty block raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Latency_model.block_time: empty block") (fun () ->
            ignore (Latency_model.block_time device [])));
    case "isa critical path parallelism" (fun () ->
        let gates = [ Gate.h 0; Gate.h 1 ] in
        check_float ~eps:1e-9 "parallel"
          (gt (Gate.h 0))
          (Latency_model.isa_critical_path device gates));
    case "segments split on interleaving" (fun () ->
        let gates = [ Gate.cnot 0 1; Gate.cnot 1 2; Gate.cnot 0 1 ] in
        check_int "three segments" 3 (List.length (Latency_model.segments gates)));
    case "segments keep same-pair runs together" (fun () ->
        let gates = [ Gate.cnot 0 1; Gate.rz 0.3 1; Gate.cnot 0 1; Gate.h 0 ] in
        check_int "one segment" 1 (List.length (Latency_model.segments gates)));
    case "segments partition the gates" (fun () ->
        let gates =
          [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 2 3; Gate.t 2; Gate.cnot 1 2 ]
        in
        let segs = Latency_model.segments gates in
        check_int "total gates" (List.length gates)
          (List.length (List.concat segs)));
    case "one_qubit_unitary_time of H" (fun () ->
        check_float ~eps:1e-6 "pi rotation" (Float.pi /. 0.2)
          (Latency_model.one_qubit_unitary_time device Qgate.Unitary.hadamard));
    case "two_qubit local content only" (fun () ->
        let u = Qnum.Cmat.kron Qgate.Unitary.hadamard (Qnum.Cmat.identity 2) in
        check_float ~eps:1e-6 "local H" (Float.pi /. 0.2)
          (Latency_model.two_qubit_unitary_time device u));
    qcheck ~count:30 "block time monotone bounds" QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 3 8 in
        let t = Latency_model.block_time device gates in
        t >= 0. && t <= Latency_model.isa_critical_path device gates +. 1e-9);
    qcheck ~count:300 "segments match the reference"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 5 in
        (* spread the block over sparse wires, as a routed block sits *)
        let wire q = (3 * q) + 1 in
        let gates =
          List.init
            (1 + Qgraph.Rand.int rng 24)
            (fun _ -> Gate.map_qubits wire (random_vocabulary_gate rng n))
        in
        Latency_model.segments gates = Qref.segments gates);
    (* the shape-keyed memos (block costs, segment bounds, Weyl
       coordinates) are pure caches: a block's cost has the same bits
       from cold as after its own segments and a shuffled batch of other
       blocks, some of them on shifted wires, have warmed them *)
    (* the block key is a value encoding: one float box shared by both
       rotations and two equal boxes are the same shape *)
    case "block memo key ignores float sharing" (fun () ->
        Latency_model.reset_memos ();
        let block t1 t2 = [ Gate.rz t1 0; Gate.rz t2 1; Gate.cnot 0 1 ] in
        let shared = Float.of_string "0.7" in
        let m = Qobs.Metrics.create () in
        Qobs.Metrics.with_ambient m (fun () ->
            ignore (Latency_model.block_time device (block shared shared));
            ignore
              (Latency_model.block_time device
                 (block (Float.of_string "0.7") (Float.of_string "0.7"))));
        check_int "one hit of two" 1
          (Qobs.Metrics.counter_value m "latency_model.block_memo_hits"));
    qcheck ~count:30 "block time independent of memo warmth"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let block () =
          random_unitary_gates rng (2 + Qgraph.Rand.int rng 4) (4 + Qgraph.Rand.int rng 10)
        in
        let gates = block () in
        let bits () =
          Int64.bits_of_float (Latency_model.block_time device gates)
        in
        Latency_model.reset_memos ();
        let cold = bits () in
        Latency_model.reset_memos ();
        let shifted gs = List.map (Gate.map_qubits (fun q -> q + 3)) gs in
        let others = List.init 6 (fun _ -> block ()) in
        let warm_up =
          Array.of_list
            (Latency_model.segments gates
            @ List.map shifted (Latency_model.segments gates)
            @ others @ List.map shifted others)
        in
        Qgraph.Rand.shuffle rng warm_up;
        Array.iter
          (fun gs -> ignore (Latency_model.block_time device gs))
          warm_up;
        let warm = bits () in
        Latency_model.reset_memos ();
        cold = warm) ]

let grape_cases =
  [ slow_case "converges for X gate" (fun () ->
        let p =
          { Grape.n_qubits = 1; couplings = []; target = Qgate.Unitary.pauli_x;
            duration = 20.; n_steps = 40; device }
        in
        let r = Grape.optimize ~max_iterations:600 p in
        check_bool "fidelity >= 0.999" true (r.Grape.fidelity >= 0.999));
    slow_case "converges for hadamard" (fun () ->
        let p =
          { Grape.n_qubits = 1; couplings = []; target = Qgate.Unitary.hadamard;
            duration = 20.; n_steps = 40; device }
        in
        let r = Grape.optimize ~max_iterations:800 p in
        check_bool "fidelity >= 0.999" true (r.Grape.fidelity >= 0.999));
    slow_case "converges for iswap" (fun () ->
        let p =
          { Grape.n_qubits = 2; couplings = [ (0, 1) ];
            target = Qgate.Unitary.of_kind Gate.Iswap; duration = 50.;
            n_steps = 50; device }
        in
        let r = Grape.optimize ~max_iterations:1000 p in
        check_bool "fidelity >= 0.999" true (r.Grape.fidelity >= 0.999));
    slow_case "pulse propagator matches reported fidelity" (fun () ->
        let target = Qgate.Unitary.of_kind (Gate.Rzz 5.67) in
        let p =
          { Grape.n_qubits = 2; couplings = [ (0, 1) ]; target; duration = 45.;
            n_steps = 45; device }
        in
        let r = Grape.optimize ~max_iterations:800 ~target_fidelity:0.99 p in
        let u =
          Grape.propagator_of_pulse ~device ~n_qubits:2 ~couplings:[ (0, 1) ]
            r.Grape.pulse
        in
        check_float ~eps:1e-6 "consistent" r.Grape.fidelity (Qnum.Cmat.fidelity target u));
    case "respects amplitude limits" (fun () ->
        let p =
          { Grape.n_qubits = 1; couplings = []; target = Qgate.Unitary.pauli_x;
            duration = 16.; n_steps = 16; device }
        in
        let r = Grape.optimize ~max_iterations:50 p in
        check_bool "x0 within mu1" true
          (Pulse.max_amplitude r.Grape.pulse "x0" <= device.Device.mu1 +. 1e-12));
    case "deterministic for fixed seed" (fun () ->
        let p =
          { Grape.n_qubits = 1; couplings = []; target = Qgate.Unitary.pauli_y;
            duration = 18.; n_steps = 18; device }
        in
        let a = Grape.optimize ~seed:3 ~max_iterations:40 p in
        let b = Grape.optimize ~seed:3 ~max_iterations:40 p in
        check_float ~eps:0. "same fidelity" a.Grape.fidelity b.Grape.fidelity);
    slow_case "minimum duration search brackets the model" (fun () ->
        (* the shortest GRAPE-feasible pulse for a diagonal block must be
           at least the Weyl interaction bound and at most the bracket *)
        let target = Qgate.Unitary.of_kind (Gate.Rzz 1.2) in
        let t_int =
          Weyl.interaction_time device (Weyl.coordinates target)
        in
        let p =
          { Grape.n_qubits = 2; couplings = [ (0, 1) ]; target;
            duration = 60.; n_steps = 40; device }
        in
        let duration, r = Grape.minimum_duration_search ~fidelity:0.98 ~resolution:6. p in
        check_bool "converged at the found duration" true r.Grape.converged;
        check_bool "above interaction bound" true (duration >= t_int -. 6.);
        check_bool "below bracket" true (duration <= 60.));
    case "too-short duration fails to converge" (fun () ->
        (* an X gate needs ~15.7 ns at full drive; 4 ns cannot reach it *)
        let p =
          { Grape.n_qubits = 1; couplings = []; target = Qgate.Unitary.pauli_x;
            duration = 4.; n_steps = 8; device }
        in
        let r = Grape.optimize ~max_iterations:300 p in
        check_bool "not converged" false r.Grape.converged) ]

let suites =
  [ ("qcontrol.device", device_cases);
    ("qcontrol.pulse", pulse_cases);
    ("qcontrol.hamiltonian", hamiltonian_cases);
    ("qcontrol.weyl", weyl_cases);
    ("qcontrol.latency_model", latency_cases);
    ("qcontrol.grape", grape_cases) ]
