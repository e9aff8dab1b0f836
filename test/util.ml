(* shared helpers for the test suite *)

open Qnum

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_mat ?(eps = 1e-9) name expected actual =
  if not (Cmat.equal ~eps expected actual) then
    Alcotest.failf "%s: matrices differ by %g (eps %g)" name
      (Cmat.max_abs_diff expected actual)
      eps

let check_mat_phase ?(eps = 1e-9) name expected actual =
  if not (Cmat.equal_up_to_phase ~eps expected actual) then
    Alcotest.failf "%s: matrices differ up to phase" name

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  (* pin the generator seed so runs are reproducible *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |])
    (QCheck.Test.make ~count ~name gen prop)

(* deterministic random unitary on [n] qubits built from a seeded gate walk *)
let random_unitary_gates rng n depth =
  let gates = ref [] in
  for _ = 1 to depth do
    let q = Qgraph.Rand.int rng n in
    let choice = Qgraph.Rand.int rng 5 in
    let angle = Qgraph.Rand.float rng (2. *. Float.pi) in
    let g =
      match choice with
      | 0 -> Qgate.Gate.rx angle q
      | 1 -> Qgate.Gate.ry angle q
      | 2 -> Qgate.Gate.rz angle q
      | 3 -> Qgate.Gate.h q
      | _ ->
        if n < 2 then Qgate.Gate.rx angle q
        else begin
          let r = (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
          Qgate.Gate.cnot q r
        end
    in
    gates := g :: !gates
  done;
  List.rev !gates

let random_unitary rng n depth =
  Qgate.Unitary.of_gates ~n_qubits:n (random_unitary_gates rng n depth)

(* a zero-duration instruction tied at the same start with its
   non-commuting chain successor, which has the lower id: schedules order
   ties by id, so the successor runs first and the chain pair (1, 0) on
   qubit 0 is inverted (CLS ties zero-latency identity blocks this way on
   uccsd-n6) *)
let zero_latency_tie () =
  let pred = Qgdg.Inst.make ~id:1 ~latency:0. [ Qgate.Gate.h 0 ] in
  let succ = Qgdg.Inst.make ~id:0 ~latency:1. [ Qgate.Gate.t 0 ] in
  let g = Qgdg.Gdg.of_insts ~n_qubits:1 [ pred; succ ] in
  ( g,
    Qsched.Schedule.make ~n_qubits:1
      [ { Qsched.Schedule.inst = pred; start = 0.; finish = 0. };
        { Qsched.Schedule.inst = succ; start = 0.; finish = 1. } ] )
