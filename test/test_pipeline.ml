(* pipeline fuzzing: compile random circuits under every strategy and
   check the global invariants that no unit test pins down individually:
   schedules are overlap-free, respect the device topology and the width
   limit, and implement the original unitary up to the qubit placement;
   every compile runs with the lint and the certifier on, and must report
   no error diagnostic and a certificate that holds *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Compiler = Qcc.Compiler
module Backend = Qcc.Backend
module Strategy = Qcc.Strategy

let topologies n =
  [ Qmap.Topology.line n; Qmap.Topology.full n; Qmap.Topology.grid_for n ]

let permutation_ok ~n circuit (r : Compiler.result) =
  let n_sites = Qgate.Circuit.n_qubits (Qsched.Schedule.to_circuit r.Compiler.schedule) in
  if n_sites > 5 then true (* keep dense checks small *)
  else begin
    let gates = List.concat (Compiler.blocks r) in
    let padded = Circuit.make n_sites (Circuit.gates circuit) in
    let u_sites = Circuit.unitary (Circuit.make n_sites gates) in
    let u_logical = Circuit.unitary padded in
    let p_init =
      Qmap.Placement.permutation_unitary ~n_qubits:n_sites
        r.Compiler.initial_placement
    in
    let p_final =
      Qmap.Placement.permutation_unitary ~n_qubits:n_sites
        r.Compiler.final_placement
    in
    ignore n;
    Qnum.Cmat.equal_up_to_phase ~eps:1e-7
      (Qnum.Cmat.mul p_final u_logical)
      (Qnum.Cmat.mul u_sites p_init)
  end

let random_mixed_circuit rng n =
  (* a mix of plain rotations, entanglers and diagonal blocks so every
     pipeline stage has something to chew on *)
  let gates = ref [] in
  for _ = 1 to 4 + Qgraph.Rand.int rng 14 do
    let q = Qgraph.Rand.int rng n in
    let r = (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
    let theta = Qgraph.Rand.float rng 6.28 in
    let g =
      match Qgraph.Rand.int rng 8 with
      | 0 -> [ Gate.h q ]
      | 1 -> [ Gate.rx theta q ]
      | 2 -> [ Gate.rz theta q ]
      | 3 -> [ Gate.t q ]
      | 4 -> [ Gate.cnot q r ]
      | 5 -> [ Gate.swap q r ]
      | 6 -> [ Gate.cnot q r; Gate.rz theta r; Gate.cnot q r ]
      | _ -> [ Gate.cz q r ]
    in
    gates := !gates @ g
  done;
  Circuit.make n !gates

let check_result ~topology ~width circuit (r : Compiler.result) =
  let schedule = r.Compiler.schedule in
  Qsched.Schedule.conflicts schedule = []
  && List.for_all
       (fun block ->
         let support =
           List.sort_uniq compare (List.concat_map Gate.qubits block)
         in
         List.length support <= max width 3
         && List.for_all
              (fun g ->
                match Gate.qubits g with
                | [ a; b ] -> Qmap.Topology.connected topology a b
                | _ -> true)
              block)
       (Compiler.blocks r)
  && permutation_ok ~n:(Circuit.n_qubits circuit) circuit r

let fuzz_strategy strategy =
  qcheck ~count:15
    (Printf.sprintf "pipeline invariants: %s" (Strategy.to_string strategy))
    QCheck.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Qgraph.Rand.create seed in
      let circuit = random_mixed_circuit rng n in
      List.for_all
        (fun topology ->
          let width = 2 + Qgraph.Rand.int rng 6 in
          let config =
            { Backend.default with
              Backend.topology = Some topology;
              width_limit = width }
          in
          let r =
            Compiler.compile ~config ~check:true ~certify:true ~strategy
              circuit
          in
          (not (List.exists Qlint.Diagnostic.is_error r.Compiler.diagnostics))
          && Option.fold ~none:false ~some:Qcert.Certificate.ok
               r.Compiler.certificate
          && check_result ~topology ~width circuit r)
        (topologies n))

let failure_injection_cases =
  [ case "compiling an empty circuit" (fun () ->
        let r =
          Compiler.compile ~strategy:Strategy.Cls_aggregation (Circuit.empty 3)
        in
        check_float "zero latency" 0. r.Compiler.latency;
        check_int "no instructions" 0 r.Compiler.n_instructions);
    case "single-gate circuit" (fun () ->
        let r =
          Compiler.compile ~strategy:Strategy.Cls_aggregation
            (Circuit.make 1 [ Gate.h 0 ])
        in
        check_int "one instruction" 1 r.Compiler.n_instructions);
    case "circuit with idle qubits" (fun () ->
        (* qubits 1..3 never touched: compiles and schedules fine *)
        let r =
          Compiler.compile ~strategy:Strategy.Cls_aggregation
            (Circuit.make 4 [ Gate.x 0 ])
        in
        check_bool "latency positive" true (r.Compiler.latency > 0.));
    case "device too small raises" (fun () ->
        let config =
          { Backend.default with
            Backend.topology = Some (Qmap.Topology.line 2) }
        in
        check_bool "raises" true
          (try
             ignore
               (Compiler.compile ~config ~strategy:Strategy.Isa
                  (Circuit.make 3 [ Gate.cnot 0 2 ]));
             false
           with Invalid_argument _ -> true));
    case "duplicate-angle degenerate rotations survive" (fun () ->
        (* zero-angle rotations must not break costing or scheduling *)
        let c =
          Circuit.make 2 [ Gate.rz 0. 0; Gate.rx 0. 1; Gate.cnot 0 1; Gate.rz 0. 1 ]
        in
        let r = Compiler.compile ~strategy:Strategy.Cls_aggregation c in
        check_bool "finite" true (Float.is_finite r.Compiler.latency)) ]

let suites =
  [ ("pipeline.fuzz",
     List.map fuzz_strategy Strategy.all @ failure_injection_cases) ]
