(* tests for the optimizer, partial compilation, Trotter builder and the
   visualization/export tooling *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Compiler = Qcc.Compiler
module Backend = Qcc.Backend

let nelder_mead_cases =
  [ case "quadratic bowl" (fun () ->
        let f x = ((x.(0) -. 3.) ** 2.) +. ((x.(1) +. 1.) ** 2.) in
        let r = Qopt.Nelder_mead.minimize ~f [| 0.; 0. |] in
        check_bool "converged" true r.Qopt.Nelder_mead.converged;
        check_float ~eps:1e-3 "x0" 3. r.Qopt.Nelder_mead.x.(0);
        check_float ~eps:1e-3 "x1" (-1.) r.Qopt.Nelder_mead.x.(1));
    case "rosenbrock valley" (fun () ->
        let f x =
          (100. *. ((x.(1) -. (x.(0) ** 2.)) ** 2.)) +. ((1. -. x.(0)) ** 2.)
        in
        let r = Qopt.Nelder_mead.minimize ~max_iterations:5000 ~f [| -1.2; 1. |] in
        check_bool "near optimum" true (r.Qopt.Nelder_mead.value < 1e-4));
    case "1d function" (fun () ->
        let r = Qopt.Nelder_mead.minimize ~f:(fun x -> Float.cos x.(0)) [| 2.5 |] in
        check_float ~eps:1e-3 "pi" Float.pi r.Qopt.Nelder_mead.x.(0));
    case "empty start raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Nelder_mead.minimize: empty start point") (fun () ->
            ignore (Qopt.Nelder_mead.minimize ~f:(fun _ -> 0.) [||])));
    case "golden section" (fun () ->
        let x, v =
          Qopt.Nelder_mead.minimize_scalar ~f:(fun x -> (x -. 1.5) ** 2.) 0. 4.
        in
        check_float ~eps:1e-6 "argmin" 1.5 x;
        check_float ~eps:1e-9 "min" 0. v);
    case "deterministic" (fun () ->
        let f x = ((x.(0) -. 0.5) ** 2.) +. (0.3 *. Float.sin x.(0)) in
        let a = Qopt.Nelder_mead.minimize ~f [| 2. |] in
        let b = Qopt.Nelder_mead.minimize ~f [| 2. |] in
        check_float ~eps:0. "same" a.Qopt.Nelder_mead.value b.Qopt.Nelder_mead.value) ]

let line n =
  { Backend.default with
    Backend.topology = Some (Qmap.Topology.line n) }

let partial_cases =
  [ case "rebinding preserves structure" (fun () ->
        let circuit = Qapps.Qaoa.circuit (Qapps.Graphs.line 4) in
        let base =
          Compiler.compile ~config:(line 4) ~strategy:Qcc.Strategy.Cls_aggregation
            circuit
        in
        let rebound = Qcc.Partial.rebind_rotations ~config:(line 4) base ~gamma:1.0 ~beta:0.3 in
        check_int "same instruction count" base.Compiler.n_instructions
          rebound.Compiler.n_instructions;
        check_bool "schedule valid" true
          (Qsched.Schedule.conflicts rebound.Compiler.schedule = []));
    case "rebinding changes semantics as requested" (fun () ->
        let circuit = Qapps.Qaoa.circuit ~gamma:0.7 ~beta:0.2 (Qapps.Graphs.line 3) in
        let base =
          Compiler.compile ~config:(line 3) ~strategy:Qcc.Strategy.Cls_aggregation
            circuit
        in
        let rebound = Qcc.Partial.rebind_rotations ~config:(line 3) base ~gamma:1.3 ~beta:0.4 in
        (* the rebound blocks must equal a fresh compile of the new-angle
           circuit semantically *)
        let reference = Qapps.Qaoa.circuit ~gamma:1.3 ~beta:0.4 (Qapps.Graphs.line 3) in
        let compiled =
          Circuit.make 3 (List.concat (Compiler.blocks rebound))
        in
        let p_init =
          Qmap.Placement.permutation_unitary ~n_qubits:3
            rebound.Compiler.initial_placement
        in
        let p_final =
          Qmap.Placement.permutation_unitary ~n_qubits:3
            rebound.Compiler.final_placement
        in
        check_mat_phase ~eps:1e-8 "semantics"
          (Qnum.Cmat.mul p_final (Circuit.unitary reference))
          (Qnum.Cmat.mul (Circuit.unitary compiled) p_init));
    case "identity rebinding is a fixpoint" (fun () ->
        (* every strategy re-costs and reschedules its own way, so the
           latency must come back bit for bit *)
        let circuit = Lazy.force (Qapps.Suite.find "maxcut-reg4").Qapps.Suite.circuit in
        List.iter
          (fun strategy ->
            let base = Compiler.compile ~strategy circuit in
            let same = Qcc.Partial.reparameterize base (fun g -> g) in
            check_bool
              (Qcc.Strategy.to_string strategy ^ " latency unchanged")
              true
              (Int64.equal
                 (Int64.bits_of_float base.Compiler.latency)
                 (Int64.bits_of_float same.Compiler.latency)))
          Qcc.Strategy.all);
    case "rebinding drops the certificate" (fun () ->
        let circuit = Qapps.Qaoa.circuit (Qapps.Graphs.line 3) in
        let base =
          Compiler.compile ~config:(line 3) ~certify:true
            ~strategy:Qcc.Strategy.Cls_aggregation circuit
        in
        check_bool "compile certified" true
          (Option.is_some base.Compiler.certificate);
        let rebound =
          Qcc.Partial.rebind_rotations ~config:(line 3) base ~gamma:1.3 ~beta:0.4
        in
        check_bool "no certificate" true
          (Option.is_none rebound.Compiler.certificate));
    case "shape-changing rebinding raises" (fun () ->
        let circuit = Qapps.Qaoa.circuit (Qapps.Graphs.line 3) in
        let base =
          Compiler.compile ~config:(line 3) ~strategy:Qcc.Strategy.Cls_aggregation
            circuit
        in
        Alcotest.check_raises "raises"
          (Invalid_argument
             "Partial.reparameterize: rebinding must preserve gate kind and qubits")
          (fun () ->
            ignore
              (Qcc.Partial.reparameterize ~config:(line 3) base (fun g ->
                   match g.Gate.kind with
                   | Gate.Rz _ -> Gate.h (List.hd (Gate.qubits g))
                   | _ -> g)))) ]

let trotter_cases =
  [ case "first order approximates exact" (fun () ->
        let n = 3 in
        let terms = Qapps.Ising.hamiltonian_terms n in
        let exact = Trotter.exact ~n ~time:0.4 terms in
        let approx =
          Circuit.unitary (Trotter.circuit ~n ~time:0.4 ~steps:20 terms)
        in
        check_bool "close" true (Qnum.Cmat.fidelity exact approx > 0.999));
    case "second order beats first at equal steps" (fun () ->
        let n = 3 in
        let terms = Qapps.Ising.hamiltonian_terms n in
        let exact = Trotter.exact ~n ~time:0.8 terms in
        let err order =
          1.
          -. Qnum.Cmat.fidelity exact
               (Circuit.unitary
                  (Trotter.circuit ~order ~n ~time:0.8 ~steps:4 terms))
        in
        check_bool "ordering" true
          (err Trotter.Second < err Trotter.First));
    case "error shrinks with steps" (fun () ->
        let n = 2 in
        let terms =
          [ Qgate.Pauli.of_string 0.7 "ZZ"; Qgate.Pauli.of_string 0.4 "XI";
            Qgate.Pauli.of_string 0.3 "IY" ]
        in
        let exact = Trotter.exact ~n ~time:1.0 terms in
        let err steps =
          1.
          -. Qnum.Cmat.fidelity exact
               (Circuit.unitary (Trotter.circuit ~n ~time:1.0 ~steps terms))
        in
        check_bool "monotone-ish" true (err 16 < err 2));
    case "bad inputs raise" (fun () ->
        Alcotest.check_raises "steps"
          (Invalid_argument "Trotter.circuit: non-positive step count") (fun () ->
            ignore (Trotter.circuit ~n:2 ~time:1. ~steps:0 []));
        Alcotest.check_raises "register"
          (Invalid_argument "Trotter.circuit: term register size mismatch")
          (fun () ->
            ignore
              (Trotter.circuit ~n:3 ~time:1. ~steps:1
                 [ Qgate.Pauli.of_string 1. "ZZ" ]))) ]

let compiled_line () =
  Compiler.compile ~config:(line 4) ~strategy:Qcc.Strategy.Cls_aggregation
    (Qapps.Qaoa.circuit (Qapps.Graphs.line 4))

let viz_cases =
  [ case "dot output is structurally sound" (fun () ->
        let r = compiled_line () in
        let dot = Qviz.Dot.of_gdg r.Compiler.gdg in
        check_bool "digraph" true
          (String.length dot > 20 && String.sub dot 0 7 = "digraph");
        (* one node line per instruction *)
        let count needle =
          let re = Str.regexp_string needle in
          let rec go pos acc =
            match Str.search_forward re dot pos with
            | pos -> go (pos + 1) (acc + 1)
            | exception Not_found -> acc
          in
          go 0 0
        in
        ignore count;
        check_bool "balanced braces" true
          (String.contains dot '{' && dot.[String.length dot - 2] = '}'));
    case "dot marks the critical path" (fun () ->
        let r = compiled_line () in
        let dot = Qviz.Dot.of_gdg r.Compiler.gdg in
        check_bool "has highlight" true
          (try
             ignore (Str.search_forward (Str.regexp_string "#ffb3b3") dot 0);
             true
           with Not_found -> false));
    case "json has one entry per instruction" (fun () ->
        let r = compiled_line () in
        let json = Qviz.Timeline.to_json r.Compiler.schedule in
        let count =
          let re = Str.regexp_string "\"id\":" in
          let rec go pos acc =
            match Str.search_forward re json pos with
            | pos -> go (pos + 1) (acc + 1)
            | exception Not_found -> acc
          in
          go 0 0
        in
        check_int "entries" r.Compiler.n_instructions count);
    case "svg timeline is well formed" (fun () ->
        let r = compiled_line () in
        let svg = Qviz.Timeline.to_svg r.Compiler.schedule in
        check_bool "svg element" true
          (String.sub svg 0 4 = "<svg");
        check_bool "closes" true
          (try
             ignore (Str.search_forward (Str.regexp_string "</svg>") svg 0);
             true
           with Not_found -> false);
        (* one rect per (instruction, qubit) plus the background *)
        let rects =
          let re = Str.regexp_string "<rect" in
          let rec go pos acc =
            match Str.search_forward re svg pos with
            | pos -> go (pos + 1) (acc + 1)
            | exception Not_found -> acc
          in
          go 0 0
        in
        let expected =
          1
          + List.fold_left
              (fun acc (e : Qsched.Schedule.entry) ->
                acc + Qgdg.Inst.width e.Qsched.Schedule.inst)
              0 r.Compiler.schedule.Qsched.Schedule.entries
        in
        check_int "rect count" expected rects);
    case "pulse svg renders all channels" (fun () ->
        let pulse =
          Qcontrol.Pulse.constant ~dt:1. ~labels:[| "x0"; "y0"; "xy0-1" |]
            ~steps:10 [| 0.05; -0.02; 0.01 |]
        in
        let svg = Qviz.Pulse_plot.to_svg pulse in
        let polylines =
          let re = Str.regexp_string "<polyline" in
          let rec go pos acc =
            match Str.search_forward re svg pos with
            | pos -> go (pos + 1) (acc + 1)
            | exception Not_found -> acc
          in
          go 0 0
        in
        check_int "three channels" 3 polylines) ]

let suites =
  [ ("qopt.nelder_mead", nelder_mead_cases);
    ("qcc.partial", partial_cases);
    ("qapps.trotter", trotter_cases);
    ("qviz", viz_cases) ]
