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

(* one gate from the whole vocabulary on n ≥ 2 qubits, angles included:
   a 1-qubit kind acts on [q], a 2-qubit kind on (q, r), a Toffoli (only
   when n ≥ 3) on q, r and the lowest other qubit *)
let random_vocabulary_gate_on rng n q r =
  let module Gate = Qgate.Gate in
  let angle () = Qgraph.Rand.float rng (2. *. Float.pi) in
  match Qgraph.Rand.int rng (if n >= 3 then 23 else 22) with
  | 0 -> Gate.id q
  | 1 -> Gate.x q
  | 2 -> Gate.y q
  | 3 -> Gate.z q
  | 4 -> Gate.h q
  | 5 -> Gate.s q
  | 6 -> Gate.sdg q
  | 7 -> Gate.t q
  | 8 -> Gate.tdg q
  | 9 -> Gate.rx (angle ()) q
  | 10 -> Gate.ry (angle ()) q
  | 11 -> Gate.rz (angle ()) q
  | 12 -> Gate.phase (angle ()) q
  | 13 -> Gate.cnot q r
  | 14 -> Gate.cz q r
  | 15 -> Gate.cphase (angle ()) q r
  | 16 -> Gate.swap q r
  | 17 -> Gate.iswap q r
  | 18 -> Gate.sqrt_iswap q r
  | 19 -> Gate.rxx (angle ()) q r
  | 20 -> Gate.ryy (angle ()) q r
  | 21 -> Gate.rzz (angle ()) q r
  | _ ->
    let s = List.find (fun s -> s <> q && s <> r) (List.init n Fun.id) in
    Gate.ccx q r s

let random_pair rng n =
  let q = Qgraph.Rand.int rng n in
  (q, (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n)

let random_vocabulary_gate rng n =
  let q, r = random_pair rng n in
  random_vocabulary_gate_on rng n q r

(* a block that fuses: 1–4 runs of 1–6 vocabulary gates, each run on one
   random pair, so 1-qubit gates land before, between and after the
   pair's 2-qubit gates (one after folds into the pair's 2-qubit kernel),
   and runs on overlapping pairs interleave *)
let random_fusing_block rng n =
  List.concat
    (List.init (1 + Qgraph.Rand.int rng 4) (fun _ ->
         let q, r = random_pair rng n in
         List.init (1 + Qgraph.Rand.int rng 6) (fun _ ->
             if Qgraph.Rand.bool rng then random_vocabulary_gate_on rng n q r
             else random_vocabulary_gate_on rng n r q)))

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
