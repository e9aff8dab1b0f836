(* tests for the Qlint static checkers: diagnostics, the five checker
   families, and the compiler's ~check:true mode *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Schedule = Qsched.Schedule
module D = Qlint.Diagnostic

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags
let errors diags = List.filter D.is_error diags

(* hand-built records bypass the constructors' validation, standing in
   for IR corrupted by a buggy pass *)
let raw_gate kind qubits = { Gate.kind; qubits }
let raw_inst id gates qubits latency = { Inst.id; gates; qubits; latency }

let entry id gates start finish =
  { Schedule.inst = Inst.make ~id ~latency:(finish -. start) gates;
    start;
    finish }

let diagnostic_cases =
  [ case "report sorts errors first and counts" (fun () ->
        let w = D.make ~code:"QL013" ~severity:D.Warning "w" in
        let e = D.make ~code:"QL030" ~severity:D.Error "e" in
        let r = Qlint.Report.of_list [ w; e ] in
        (match Qlint.Report.diagnostics r with
         | [ first; _ ] -> check_bool "error first" true (D.is_error first)
         | _ -> Alcotest.fail "expected two diagnostics");
        check_bool "has errors" true (Qlint.Report.has_errors r);
        Alcotest.(check string) "summary" "1 error, 1 warning"
          (Qlint.Report.summary r));
    case "json escapes and carries location" (fun () ->
        let d =
          D.make ~stage:"cls" ~insts:[ 3; 7 ] ~qubits:[ 2 ]
            ~interval:(1., 2.5) ~code:"QL030" ~severity:D.Error "say \"hi\""
        in
        let j = D.to_json d in
        check_bool "escaped quote" true
          (let rec has i =
             i + 9 <= String.length j
             && (String.sub j i 9 = "say \\\"hi\\" || has (i + 1))
           in
           has 0);
        check_bool "insts listed" true
          (let rec has i =
             i + 5 <= String.length j
             && (String.sub j i 5 = "[3,7]" || has (i + 1))
           in
           has 0)) ]

let circuit_cases =
  [ case "clean circuit has no findings" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1 ] in
        check_int "none" 0 (List.length (Qlint.Check_circuit.run c)));
    case "out-of-range and duplicate operands" (fun () ->
        let gates =
          [ raw_gate Gate.H [ 5 ]; raw_gate Gate.Cnot [ 1; 1 ] ]
        in
        Alcotest.(check (list string)) "codes" [ "QL010"; "QL011" ]
          (List.sort compare
             (codes (Qlint.Check_circuit.check_gates ~n_qubits:2 gates))));
    case "arity mismatch" (fun () ->
        let gates = [ raw_gate Gate.Cnot [ 0 ] ] in
        check_bool "QL012" true
          (List.mem "QL012"
             (codes (Qlint.Check_circuit.check_gates ~n_qubits:2 gates))));
    case "unused register qubit is a warning" (fun () ->
        let c = Circuit.make 3 [ Gate.h 0; Gate.x 1 ] in
        let diags = Qlint.Check_circuit.run ~warn_unused:true c in
        Alcotest.(check (list string)) "codes" [ "QL013" ] (codes diags);
        check_int "no errors" 0 (List.length (errors diags)));
    case "qasm parse failure is QL015" (fun () ->
        let diags = Qlint.Check_circuit.lint_qasm_string "qreg q[" in
        Alcotest.(check (list string)) "codes" [ "QL015" ] (codes diags));
    case "qasm repeated operand is QL011" (fun () ->
        let diags =
          Qlint.Check_circuit.lint_qasm_string
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n"
        in
        Alcotest.(check (list string)) "codes" [ "QL011" ] (codes diags)) ]

let gdg_cases =
  [ case "well-formed gdg has no findings" (fun () ->
        let g =
          Gdg.of_circuit
            ~latency:(fun _ -> 1.)
            (Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1 ])
        in
        check_int "none" 0 (List.length (Qlint.Check_gdg.run g)));
    case "repeated qubit is QL024" (fun () ->
        (* a support listing qubit 0 twice would thread the node onto
           chain 0 twice, which [Gdg.of_insts] refuses *)
        let i = raw_inst 0 [ Gate.h 0 ] [ 0; 0 ] 1. in
        let diags = Qlint.Check_gdg.check_insts ~n_qubits:1 [ i ] in
        check_bool "QL024" true (List.mem "QL024" (codes diags)));
    case "duplicate instruction id is QL025" (fun () ->
        let i = Inst.of_gate ~id:4 ~latency:1. (Gate.h 0) in
        let diags = Qlint.Check_gdg.check_insts ~n_qubits:1 [ i; i ] in
        check_bool "QL025" true (List.mem "QL025" (codes diags)));
    case "empty block and negative latency" (fun () ->
        let empty = raw_inst 0 [] [] 1. in
        let negative = raw_inst 1 [ Gate.h 0 ] [ 0 ] (-2.) in
        let diags =
          Qlint.Check_gdg.check_insts ~n_qubits:1 [ empty; negative ]
        in
        check_bool "QL027" true (List.mem "QL027" (codes diags));
        check_bool "QL028" true (List.mem "QL028" (codes diags))) ]

let schedule_cases =
  [ case "corrupted schedule names pair, qubit and interval" (fun () ->
        (* the required acceptance case: two instructions double-book
           qubit 2 over [3, 5] *)
        let s =
          Schedule.make ~n_qubits:3
            [ entry 0 [ Gate.h 2 ] 0. 5.; entry 1 [ Gate.x 2 ] 3. 8. ]
        in
        (match errors (Qlint.Check_schedule.run s) with
         | [ d ] ->
           Alcotest.(check string) "code" "QL030" d.D.code;
           Alcotest.(check (list int)) "both instructions" [ 0; 1 ]
             d.D.loc.D.insts;
           Alcotest.(check (list int)) "shared qubit" [ 2 ] d.D.loc.D.qubits;
           (match d.D.loc.D.interval with
            | Some (lo, hi) ->
              check_float "overlap start" 3. lo;
              check_float "overlap end" 5. hi
            | None -> Alcotest.fail "missing interval")
         | l -> Alcotest.failf "expected one error, got %d" (List.length l));
        ());
    case "legal back-to-back schedule is clean" (fun () ->
        let s =
          Schedule.make ~n_qubits:1
            [ entry 0 [ Gate.h 0 ] 0. 2.; entry 1 [ Gate.x 0 ] 2. 4. ]
        in
        check_int "none" 0 (List.length (Qlint.Check_schedule.run s)));
    case "duration != latency is a warning" (fun () ->
        let e = entry 0 [ Gate.h 0 ] 0. 2. in
        let stretched = { e with Schedule.finish = 3. } in
        let s = Schedule.make ~n_qubits:1 [ stretched ] in
        let diags = Qlint.Check_schedule.run s in
        check_bool "QL032" true (List.mem "QL032" (codes diags));
        check_int "warning only" 0 (List.length (errors diags)));
    case "scheduling an instruction twice is QL036" (fun () ->
        let e = entry 0 [ Gate.h 0 ] 0. 1. in
        let late = { e with Schedule.start = 5.; finish = 6. } in
        let s = Schedule.make ~n_qubits:1 [ e; late ] in
        check_bool "QL036" true
          (List.mem "QL036" (codes (Qlint.Check_schedule.run s))));
    case "chain-order violation is QL031" (fun () ->
        let g =
          Gdg.of_circuit
            ~latency:(fun _ -> 1.)
            (Circuit.make 1 [ Gate.h 0; Gate.x 0 ])
        in
        (* schedule the successor before its chain predecessor, with a
           gap so no QL030 fires *)
        let a = Gdg.find g 0 and b = Gdg.find g 1 in
        let s =
          Schedule.make ~n_qubits:1
            [ { Schedule.inst = b; start = 0.; finish = 1. };
              { Schedule.inst = a; start = 2.; finish = 3. } ]
        in
        let diags = Qlint.Check_schedule.run ~original:g s in
        Alcotest.(check (list string)) "codes" [ "QL031" ]
          (codes (errors diags));
        (* the same inversion is legal once declared commuting *)
        check_int "commuting pair is fine" 0
          (List.length
             (errors
                (Qlint.Check_schedule.run ~original:g
                   ~reorderable:(fun _ _ -> true)
                   s))));
    case "schedule / gdg coverage mismatch is QL034" (fun () ->
        let g =
          Gdg.of_circuit
            ~latency:(fun _ -> 1.)
            (Circuit.make 2 [ Gate.h 0; Gate.h 1 ])
        in
        let s =
          Schedule.make ~n_qubits:2
            [ { Schedule.inst = Gdg.find g 0; start = 0.; finish = 1. };
              { Schedule.inst = Inst.of_gate ~id:9 ~latency:1. (Gate.x 1);
                start = 0.;
                finish = 1. } ]
        in
        let qcodes = codes (Qlint.Check_schedule.run ~original:g s) in
        check_int "one missing + one foreign" 2
          (List.length (List.filter (fun c -> c = "QL034") qcodes)));
    case "altered members are QL034" (fun () ->
        let g =
          Gdg.of_circuit
            ~latency:(fun _ -> 1.)
            (Circuit.make 1 [ Gate.h 0; Gate.x 0 ])
        in
        (* id 1 keeps its slot and latency but runs other gates *)
        let s =
          Schedule.make ~n_qubits:1
            [ { Schedule.inst = Gdg.find g 0; start = 0.; finish = 1. };
              { Schedule.inst = Inst.of_gate ~id:1 ~latency:1. (Gate.z 0);
                start = 1.;
                finish = 2. } ]
        in
        match errors (Qlint.Check_schedule.run ~original:g s) with
        | [ d ] ->
          Alcotest.(check string) "code" "QL034" d.D.code;
          Alcotest.(check (list int)) "instruction" [ 1 ] d.D.loc.D.insts
        | l -> Alcotest.failf "expected one error, got %d" (List.length l));
    case "zero-duration tie with a non-commuting successor is QL031"
      (fun () ->
        (* the pair and qubit the certifier refutes as QC030 *)
        let g, s = zero_latency_tie () in
        let groups = Qgdg.Comm_group.build g in
        match
          errors
            (Qlint.Check_schedule.run ~original:g
               ~reorderable:(Qgdg.Comm_group.reorderable groups)
               s)
        with
        | [ d ] ->
          Alcotest.(check string) "code" "QL031" d.D.code;
          Alcotest.(check (list int)) "pair" [ 1; 0 ] d.D.loc.D.insts;
          Alcotest.(check (list int)) "qubit" [ 0 ] d.D.loc.D.qubits
        | l -> Alcotest.failf "expected one error, got %d" (List.length l)) ]

let mapping_cases =
  let inst_blocks insts = Qcc.Ir.blocks (Qcc.Ir.Insts insts) in
  let gate_blocks gates = List.map (fun g -> ([ g ], None)) gates in
  let logical gates = List.map (fun g -> [ g ]) gates in
  [ case "non-adjacent gate is QL040" (fun () ->
        let topology = Qmap.Topology.line 3 in
        let i = Inst.of_gate ~id:0 ~latency:1. (Gate.cnot 0 2) in
        let diags =
          Qlint.Check_mapping.check_adjacency ~topology (inst_blocks [ i ])
        in
        Alcotest.(check (list string)) "codes" [ "QL040" ] (codes diags));
    case "non-adjacent gate in a gate stream is located by index" (fun () ->
        let topology = Qmap.Topology.line 3 in
        let diags =
          Qlint.Check_mapping.check_adjacency ~topology
            (gate_blocks [ Gate.cnot 0 1; Gate.cnot 0 2 ])
        in
        Alcotest.(check (list string)) "codes" [ "QL040" ] (codes diags);
        Alcotest.(check (list (option int))) "gate index" [ Some 1 ]
          (List.map (fun (d : D.t) -> d.D.loc.D.gate_index) diags));
    case "corrupted placement is QL041" (fun () ->
        let topology = Qmap.Topology.line 2 in
        let p = Qmap.Placement.identity ~n_logical:2 topology in
        p.Qmap.Placement.site_to_logical.(0) <- 1;
        check_bool "QL041" true
          (List.mem "QL041"
             (codes (Qlint.Check_mapping.check_placement ~topology p))));
    case "stray occupant is QL041, and the replay is skipped" (fun () ->
        (* both directions of the bijection are checked: site 2 records a
           logical qubit the placement does not have, which a SWAP on
           site 2 would dereference *)
        let topology = Qmap.Topology.line 3 in
        let p = Qmap.Placement.identity ~n_logical:2 topology in
        p.Qmap.Placement.site_to_logical.(2) <- 5;
        let diags =
          Qlint.Check_mapping.run ~topology ~initial:p ~final:p ~logical:[]
            (gate_blocks [ Gate.swap 1 2 ])
        in
        Alcotest.(check (list string)) "codes" [ "QL041"; "QL041" ]
          (codes diags));
    case "site outside the device is QL043" (fun () ->
        let topology = Qmap.Topology.line 2 in
        let i = raw_inst 0 [ raw_gate Gate.Cnot [ 0; 5 ] ] [ 0; 5 ] 1. in
        check_bool "QL043" true
          (List.mem "QL043"
             (codes
                (Qlint.Check_mapping.check_adjacency ~topology
                   (inst_blocks [ i ])))));
    case "routing replay accepts the real router" (fun () ->
        let topology = Qmap.Topology.line 4 in
        let circuit =
          Circuit.make 4 [ Gate.cnot 0 3; Gate.cnot 1 2; Gate.cnot 0 1 ]
        in
        let initial = Qmap.Placement.initial topology circuit in
        let physical, final =
          Qmap.Router.route_circuit ~placement:initial ~topology circuit
        in
        check_int "clean replay" 0
          (List.length
             (Qlint.Check_mapping.check_routing ~initial ~final
                ~logical:(logical (Circuit.gates circuit))
                (gate_blocks (Circuit.gates physical)))));
    case "dropped swap fails the replay with QL042" (fun () ->
        let topology = Qmap.Topology.line 4 in
        let circuit = Circuit.make 4 [ Gate.cnot 0 3; Gate.cnot 0 1 ] in
        let initial = Qmap.Placement.initial topology circuit in
        let physical, final =
          Qmap.Router.route_circuit ~placement:initial ~topology circuit
        in
        let drop_first_swap gates =
          let rec go = function
            | [] -> []
            | (g : Gate.t) :: rest when g.Gate.kind = Gate.Swap -> rest
            | g :: rest -> g :: go rest
          in
          go gates
        in
        let doctored = drop_first_swap (Circuit.gates physical) in
        check_bool "swap was there to drop" true
          (List.length doctored < List.length (Circuit.gates physical));
        check_bool "QL042" true
          (List.mem "QL042"
             (codes
                (Qlint.Check_mapping.check_routing ~initial ~final
                   ~logical:(logical (Circuit.gates circuit))
                   (gate_blocks doctored)))));
    case "out-of-range routed swap site is QL042, not an exception"
      (fun () ->
        let ident =
          Qmap.Placement.identity ~n_logical:3 (Qmap.Topology.line 3)
        in
        let diags =
          Qlint.Check_mapping.check_routing ~initial:ident ~final:ident
            ~logical:(logical [ Gate.cnot 0 1 ])
            (gate_blocks [ Gate.swap 1 7; Gate.cnot 0 1 ])
        in
        Alcotest.(check (list string)) "codes" [ "QL042" ] (codes diags);
        Alcotest.(check (list (option int))) "gate index" [ Some 0 ]
          (List.map (fun (d : D.t) -> d.D.loc.D.gate_index) diags));
    case "out-of-range logical qubit is QL042, not an exception" (fun () ->
        let ident =
          Qmap.Placement.identity ~n_logical:3 (Qmap.Topology.line 3)
        in
        let diags =
          Qlint.Check_mapping.check_routing ~initial:ident ~final:ident
            ~logical:(logical [ raw_gate Gate.Cnot [ 0; 5 ] ])
            (inst_blocks [ Inst.of_gate ~id:4 ~latency:1. (Gate.cnot 0 1) ])
        in
        Alcotest.(check (list string)) "codes" [ "QL042" ] (codes diags);
        Alcotest.(check (list (list int))) "instruction id" [ [ 4 ] ]
          (List.map (fun (d : D.t) -> d.D.loc.D.insts) diags)) ]

let agg_cases =
  [ case "width over the limit is QL050" (fun () ->
        let i =
          Inst.make ~id:0 ~latency:1. [ Gate.cnot 0 1; Gate.cnot 2 3 ]
        in
        let g = Gdg.of_insts ~n_qubits:4 [ i ] in
        check_bool "QL050" true
          (List.mem "QL050" (codes (Qlint.Check_agg.run ~width_limit:3 g))));
    case "support not the member union is QL051" (fun () ->
        let i = raw_inst 0 [ Gate.cnot 0 1 ] [ 0 ] 1. in
        let g = Gdg.of_insts ~n_qubits:2 [ i ] in
        check_bool "QL051" true
          (List.mem "QL051" (codes (Qlint.Check_agg.run ~width_limit:4 g))));
    case "legal blocks are clean" (fun () ->
        let g =
          Gdg.of_insts ~n_qubits:2
            [ Inst.make ~id:0 ~latency:1. [ Gate.cnot 0 1; Gate.rz 0.3 1 ] ]
        in
        check_int "none" 0
          (List.length (Qlint.Check_agg.run ~width_limit:2 g))) ]

let compiler_cases =
  [ case "check mode passes on a real benchmark" (fun () ->
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let r =
          Qcc.Compiler.compile ~check:true
            ~strategy:Qcc.Strategy.Cls_aggregation circuit
        in
        check_int "no diagnostics" 0 (List.length r.Qcc.Compiler.diagnostics));
    case "check mode is off by default" (fun () ->
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "sqrt-n3") in
        let r = Qcc.Compiler.compile ~strategy:Qcc.Strategy.Isa circuit in
        check_int "empty" 0 (List.length r.Qcc.Compiler.diagnostics)) ]

(* perturb a legal schedule onto a neighbor's busy interval and require
   the detector to name exactly that pair and qubit *)
let perturbation_prop seed =
  let rng = Qgraph.Rand.create seed in
  let n = 3 + Qgraph.Rand.int rng 3 in
  let gates = random_unitary_gates rng n 12 in
  let g = Gdg.of_circuit ~latency:(fun _ -> 1.) (Circuit.make n gates) in
  let s = Qsched.Asap.schedule g in
  if Schedule.conflicts s <> [] then false
  else begin
    (* pick a qubit with at least two entries and slide the second onto
       the first's interval *)
    let on_qubit q =
      List.filter
        (fun (e : Schedule.entry) -> Inst.acts_on e.Schedule.inst q)
        s.Schedule.entries
    in
    let rec pick q =
      if q >= n then None
      else
        match on_qubit q with
        | a :: b :: _ -> Some (q, a, b)
        | _ -> pick (q + 1)
    in
    match pick 0 with
    | None -> true (* nothing to corrupt on this draw *)
    | Some (q, a, b) ->
      let duration = b.Schedule.finish -. b.Schedule.start in
      let start = (a.Schedule.start +. a.Schedule.finish) /. 2. in
      let moved = { b with Schedule.start; finish = start +. duration } in
      let corrupted =
        Schedule.make ~n_qubits:s.Schedule.n_qubits
          (List.map
             (fun (e : Schedule.entry) ->
               if e.Schedule.inst.Inst.id = b.Schedule.inst.Inst.id then moved
               else e)
             s.Schedule.entries)
      in
      let expected =
        List.sort compare
          [ a.Schedule.inst.Inst.id; b.Schedule.inst.Inst.id ]
      in
      List.exists
        (fun (x, y, cq) ->
          cq = q
          && List.sort compare
               [ x.Schedule.inst.Inst.id; y.Schedule.inst.Inst.id ]
             = expected)
        (Schedule.conflicts corrupted)
      && List.exists
           (fun (d : D.t) ->
             d.D.code = "QL030" && d.D.loc.D.qubits = [ q ]
             && List.sort compare d.D.loc.D.insts = expected)
           (Qlint.Check_schedule.run corrupted)
  end

let property_cases =
  [ qcheck ~count:60 "perturbed schedules are pinpointed"
      QCheck.(int_range 0 100_000)
      perturbation_prop ]

let suites =
  [ ("qlint.diagnostic", diagnostic_cases);
    ("qlint.circuit", circuit_cases);
    ("qlint.gdg", gdg_cases);
    ("qlint.schedule", schedule_cases);
    ("qlint.mapping", mapping_cases);
    ("qlint.agg", agg_cases);
    ("qlint.compiler", compiler_cases);
    ("qlint.property", property_cases) ]
