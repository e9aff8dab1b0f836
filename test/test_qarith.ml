(* tests for the reversible-arithmetic substrate *)

open Qarith
open Util
module Rev_sim = Qref.Rev_sim
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit

let rev_sim_cases =
  [ case "x flips a bit" (fun () ->
        let c = Circuit.make 2 [ Gate.x 1 ] in
        check_int "flip" 1 (Rev_sim.run_int c ~n_qubits:2 0));
    case "cnot copies" (fun () ->
        let c = Circuit.make 2 [ Gate.cnot 0 1 ] in
        check_int "10 -> 11" 3 (Rev_sim.run_int c ~n_qubits:2 2);
        check_int "00 -> 00" 0 (Rev_sim.run_int c ~n_qubits:2 0));
    case "ccx truth table" (fun () ->
        let c = Circuit.make 3 [ Gate.ccx 0 1 2 ] in
        check_int "110 -> 111" 7 (Rev_sim.run_int c ~n_qubits:3 6);
        check_int "100 -> 100" 4 (Rev_sim.run_int c ~n_qubits:3 4));
    case "swap exchanges" (fun () ->
        let c = Circuit.make 2 [ Gate.swap 0 1 ] in
        check_int "10 -> 01" 1 (Rev_sim.run_int c ~n_qubits:2 2));
    case "non-classical raises" (fun () ->
        check_bool "raises" true
          (try
             ignore (Rev_sim.run (Circuit.make 1 [ Gate.h 0 ]) [| false |]);
             false
           with Invalid_argument _ -> true));
    case "is_classical" (fun () ->
        check_bool "ccx" true (Rev_sim.is_classical (Gate.ccx 0 1 2));
        check_bool "h" false (Rev_sim.is_classical (Gate.h 0)));
    case "bit conversions" (fun () ->
        check_int "roundtrip" 11 (Rev_sim.int_of_bits (Rev_sim.bits_of_int ~width:4 11));
        Alcotest.(check (list bool)) "lsb first" [ true; true; false; true ]
          (Rev_sim.bits_of_int ~width:4 11)) ]

let run_adder n a b =
  let a_reg = List.init n (fun k -> k) and b_reg = List.init n (fun k -> n + k) in
  let anc = 2 * n and cout = (2 * n) + 1 in
  let circ =
    Circuit.make ((2 * n) + 2)
      (Adder.ripple_add ~a:a_reg ~b:b_reg ~ancilla:anc ~carry_out:cout)
  in
  let input = Array.make ((2 * n) + 2) false in
  List.iteri (fun k q -> input.(q) <- (a lsr k) land 1 = 1) a_reg;
  List.iteri (fun k q -> input.(q) <- (b lsr k) land 1 = 1) b_reg;
  let out = Rev_sim.run circ input in
  let b_out = Rev_sim.int_of_bits (List.map (fun q -> out.(q)) b_reg) in
  let a_out = Rev_sim.int_of_bits (List.map (fun q -> out.(q)) a_reg) in
  let carry = out.(cout) in
  let ancilla_clean = not out.(anc) in
  (a_out, b_out, carry, ancilla_clean)

let adder_cases =
  [ case "exhaustive 3-bit addition" (fun () ->
        for a = 0 to 7 do
          for b = 0 to 7 do
            let a_out, b_out, carry, clean = run_adder 3 a b in
            check_int "sum" ((a + b) mod 8) b_out;
            check_bool "carry" ((a + b) >= 8) carry;
            check_int "a preserved" a a_out;
            check_bool "ancilla restored" true clean
          done
        done);
    case "modular adder drops carry" (fun () ->
        let n = 3 in
        let a_reg = List.init n (fun k -> k) and b_reg = List.init n (fun k -> n + k) in
        let circ =
          Circuit.make ((2 * n) + 1)
            (Adder.ripple_add_mod ~a:a_reg ~b:b_reg ~ancilla:(2 * n))
        in
        let input = Array.make ((2 * n) + 1) false in
        List.iteri (fun k q -> input.(q) <- (6 lsr k) land 1 = 1) a_reg;
        List.iteri (fun k q -> input.(q) <- (5 lsr k) land 1 = 1) b_reg;
        let out = Rev_sim.run circ input in
        check_int "6+5 mod 8" 3
          (Rev_sim.int_of_bits (List.map (fun q -> out.(q)) b_reg)));
    case "adder is reversible" (fun () ->
        let n = 3 in
        let a_reg = List.init n (fun k -> k) and b_reg = List.init n (fun k -> n + k) in
        let gates = Adder.ripple_add_mod ~a:a_reg ~b:b_reg ~ancilla:(2 * n) in
        let forward = Circuit.make ((2 * n) + 1) gates in
        let backward = Circuit.make ((2 * n) + 1) (List.rev gates) in
        (* MAJ/UMA blocks are made of self-inverse gates *)
        for v = 0 to 63 do
          let mid = Rev_sim.run_int forward ~n_qubits:7 (v * 2) in
          let back = Rev_sim.run_int backward ~n_qubits:7 mid in
          check_int "roundtrip" (v * 2) back
        done);
    case "register overlap raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Adder: overlapping registers")
          (fun () ->
            ignore (Adder.ripple_add_mod ~a:[ 0; 1 ] ~b:[ 1; 2 ] ~ancilla:3)));
    case "width mismatch raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Adder: registers must have equal non-zero width")
          (fun () -> ignore (Adder.ripple_add_mod ~a:[ 0 ] ~b:[ 1; 2 ] ~ancilla:3))) ]

let mcx_cases =
  [ case "two controls is toffoli" (fun () ->
        match Mcx.mcx ~controls:[ 0; 1 ] ~target:2 ~ancillas:[] with
        | [ g ] -> check_bool "ccx" true (Gate.equal (Gate.ccx 0 1 2) g)
        | _ -> Alcotest.fail "expected one gate");
    case "exhaustive 4-control mcx" (fun () ->
        let circ =
          Circuit.make 7 (Mcx.mcx ~controls:[ 0; 1; 2; 3 ] ~target:4 ~ancillas:[ 5; 6 ])
        in
        for v = 0 to 15 do
          let input = Array.make 7 false in
          List.iteri (fun k q -> input.(q) <- (v lsr k) land 1 = 1) [ 0; 1; 2; 3 ];
          let out = Rev_sim.run circ input in
          check_bool "target" (v = 15) out.(4);
          check_bool "ancillas clean" true (not out.(5) && not out.(6))
        done);
    case "too few ancillas raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Mcx.mcx: not enough ancillas")
          (fun () ->
            ignore (Mcx.mcx ~controls:[ 0; 1; 2; 3 ] ~target:4 ~ancillas:[ 5 ])));
    case "flip_zero_controls" (fun () ->
        (* value 5 = 101 (lsb first on [0;1;2]): bit 1 is zero *)
        let gates = Mcx.flip_zero_controls [ 0; 1; 2 ] ~value:5 in
        check_int "one flip" 1 (List.length gates);
        check_bool "on qubit 1" true (Gate.equal (Gate.x 1) (List.hd gates))) ]

let squarer_cases =
  [ case "exhaustive squaring up to 4 bits" (fun () ->
        List.iter
          (fun n ->
            let l = Square.layout n in
            let circ = Circuit.make l.Square.total_qubits (Square.circuit l) in
            for x = 0 to (1 lsl n) - 1 do
              let input = Array.make l.Square.total_qubits false in
              List.iteri (fun k q -> input.(q) <- (x lsr k) land 1 = 1) l.Square.x;
              let out = Rev_sim.run circ input in
              let acc = Rev_sim.int_of_bits (List.map (fun q -> out.(q)) l.Square.acc) in
              let x_back = Rev_sim.int_of_bits (List.map (fun q -> out.(q)) l.Square.x) in
              check_int "square" (x * x) acc;
              check_int "input preserved" x x_back;
              check_bool "scratch clean" true
                (List.for_all (fun q -> not out.(q)) l.Square.row && not out.(l.Square.carry))
            done)
          [ 2; 3; 4 ]);
    case "uncompute inverts" (fun () ->
        let l = Square.layout 3 in
        let circ =
          Circuit.make l.Square.total_qubits (Square.circuit l @ Square.uncompute l)
        in
        for x = 0 to 7 do
          let input = Array.make l.Square.total_qubits false in
          List.iteri (fun k q -> input.(q) <- (x lsr k) land 1 = 1) l.Square.x;
          let out = Rev_sim.run circ input in
          check_bool "identity" true (out = input)
        done);
    case "layout sizes" (fun () ->
        let l = Square.layout 3 in
        check_int "17 qubits (paper sqrt-n3)" 17 l.Square.total_qubits;
        check_int "acc width" 6 (List.length l.Square.acc));
    case "too narrow raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Square.layout: width must be at least 2") (fun () ->
            ignore (Square.layout 1))) ]

let comparator_cases =
  [ case "exhaustive 3-bit less-than" (fun () ->
        let n = 3 in
        let a_reg = List.init n (fun k -> k) and b_reg = List.init n (fun k -> n + k) in
        let ancilla = 2 * n and flag = (2 * n) + 1 in
        let circ =
          Circuit.make ((2 * n) + 2)
            (Comparator.less_than ~a:a_reg ~b:b_reg ~ancilla ~flag)
        in
        for a = 0 to 7 do
          for b = 0 to 7 do
            let input = Array.make ((2 * n) + 2) false in
            List.iteri (fun k q -> input.(q) <- (a lsr k) land 1 = 1) a_reg;
            List.iteri (fun k q -> input.(q) <- (b lsr k) land 1 = 1) b_reg;
            let out = Rev_sim.run circ input in
            check_bool "flag" (a < b) out.(flag);
            check_int "a restored" a
              (Rev_sim.int_of_bits (List.map (fun q -> out.(q)) a_reg));
            check_int "b restored" b
              (Rev_sim.int_of_bits (List.map (fun q -> out.(q)) b_reg));
            check_bool "ancilla clean" true (not out.(ancilla))
          done
        done);
    case "less-than xors a set flag" (fun () ->
        let circ =
          Circuit.make 6
            (Comparator.less_than ~a:[ 0; 1 ] ~b:[ 2; 3 ] ~ancilla:4 ~flag:5)
        in
        (* a = 1, b = 3 (a < b), flag preset to 1: must flip to 0 *)
        let input = [| true; false; true; true; false; true |] in
        check_bool "flag flipped off" false (Rev_sim.run circ input).(5));
    case "equal_const exhaustive" (fun () ->
        let a_reg = [ 0; 1; 2 ] and ancillas = [ 3 ] and flag = 4 in
        let circ =
          Circuit.make 5 (Comparator.equal_const ~a:a_reg ~value:5 ~ancillas ~flag)
        in
        for a = 0 to 7 do
          let input = Array.make 5 false in
          List.iteri (fun k q -> input.(q) <- (a lsr k) land 1 = 1) a_reg;
          let out = Rev_sim.run circ input in
          check_bool "flag" (a = 5) out.(flag);
          check_bool "ancilla clean" true (not out.(3))
        done);
    case "overlap raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Comparator: overlapping qubits") (fun () ->
            ignore
              (Comparator.less_than ~a:[ 0; 1 ] ~b:[ 1; 2 ] ~ancilla:3 ~flag:4))) ]

let suites =
  [ ("qarith.rev_sim", rev_sim_cases);
    ("qarith.comparator", comparator_cases);
    ("qarith.adder", adder_cases);
    ("qarith.mcx", mcx_cases);
    ("qarith.square", squarer_cases) ]
