(* tests for the gate dependence graph, commutation and diagonal blocks *)

open Qgdg
open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit

let unit_latency _ = 1.0
let sum_latency gates = float_of_int (List.length gates)

let zz a b = [ Gate.cnot a b; Gate.rz 5.67 b; Gate.cnot a b ]

(* generators for the algebraic commutation fast paths: Clifford blocks
   exercise the tableau route, CNOT+Rz blocks the phase-polynomial route *)
let random_clifford_gates rng n depth =
  List.init depth (fun _ ->
      let q = Qgraph.Rand.int rng n in
      let other () = (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
      match Qgraph.Rand.int rng 8 with
      | 0 -> Gate.h q
      | 1 -> Gate.s q
      | 2 -> Gate.sdg q
      | 3 -> Gate.x q
      | 4 -> Gate.z q
      | 5 -> Gate.cnot q (other ())
      | 6 -> Gate.cz q (other ())
      | _ -> Gate.swap q (other ()))

let random_cnot_rz_gates rng n depth =
  List.init depth (fun _ ->
      let q = Qgraph.Rand.int rng n in
      if Qgraph.Rand.bool rng then Gate.rz (Qgraph.Rand.float rng 6.28) q
      else Gate.cnot q ((q + 1 + Qgraph.Rand.int rng (n - 1)) mod n))

(* a block that commutes with [a]: its inverse, or a² when [a] holds an
   iswap-family gate (which has no in-vocabulary adjoint) *)
let commuting_partner a =
  let iswap_family (g : Gate.t) =
    match g.Gate.kind with Gate.Iswap | Gate.Sqrt_iswap -> true | _ -> false
  in
  if List.exists iswap_family a then a @ a
  else List.rev_map Gate.adjoint a

let qaoa_triangle () =
  Gdg.of_circuit ~latency:unit_latency (Qapps.Qaoa.triangle_example ())

let inst_cases =
  [ case "make computes support" (fun () ->
        let i = Inst.make ~id:0 ~latency:1.0 [ Gate.cnot 3 1; Gate.h 3 ] in
        Alcotest.(check (list int)) "sorted support" [ 1; 3 ] i.Inst.qubits;
        check_int "width" 2 (Inst.width i));
    case "empty raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Inst.make: empty gate list")
          (fun () -> ignore (Inst.make ~id:0 ~latency:1.0 [])));
    case "non-finite latency raises" (fun () ->
        (* [nan] slips past a [latency < 0.] test and would surface later
           as a CLS deadlock or a nan ASAP makespan *)
        List.iter
          (fun latency ->
            Alcotest.check_raises (Printf.sprintf "%h" latency)
              (Invalid_argument "Inst.make: non-finite latency") (fun () ->
                ignore (Inst.make ~id:0 ~latency [ Gate.h 0 ])))
          [ nan; infinity; neg_infinity ]);
    case "merge keeps order" (fun () ->
        let a = Inst.of_gate ~id:0 ~latency:1. (Gate.h 0) in
        let b = Inst.of_gate ~id:1 ~latency:1. (Gate.cnot 0 1) in
        let m = Inst.merge ~id:2 ~latency:2. a b in
        check_bool "h first" true (Gate.equal (Gate.h 0) (List.hd m.Inst.gates));
        check_int "two members" 2 (List.length m.Inst.gates));
    case "unitary on support" (fun () ->
        let i = Inst.make ~id:0 ~latency:1.0 (zz 4 2) in
        let support, u = Inst.unitary_on_support i in
        Alcotest.(check (list int)) "support" [ 2; 4 ] support;
        check_bool "diagonal" true (Qnum.Cmat.is_diagonal ~eps:1e-9 u)) ]

let commute_cases =
  [ case "disjoint gates commute" (fun () ->
        check_bool "h0 vs h1" true (Oracle.gates (Gate.h 0) (Gate.h 1)));
    case "diagonal gates commute" (fun () ->
        check_bool "rz vs cz" true (Oracle.gates (Gate.rz 0.3 0) (Gate.cz 0 1));
        check_bool "rzz vs rzz shared" true
          (Oracle.gates (Gate.rzz 0.5 0 1) (Gate.rzz 0.7 1 2)));
    case "table 2: control commutes with rz" (fun () ->
        check_bool "rz on control" true (Oracle.gates (Gate.rz 0.4 0) (Gate.cnot 0 1));
        check_bool "rz on target" false (Oracle.gates (Gate.rz 0.4 1) (Gate.cnot 0 1)));
    case "table 2: cnots with shared control" (fun () ->
        check_bool "shared control" true (Oracle.gates (Gate.cnot 0 1) (Gate.cnot 0 2));
        check_bool "shared target" true (Oracle.gates (Gate.cnot 0 2) (Gate.cnot 1 2));
        check_bool "control-target clash" false
          (Oracle.gates (Gate.cnot 0 1) (Gate.cnot 1 2)));
    case "x and rx commute" (fun () ->
        check_bool "same axis" true (Oracle.gates (Gate.x 0) (Gate.rx 1.1 0)));
    case "h and x do not commute" (fun () ->
        check_bool "h x" false (Oracle.gates (Gate.h 0) (Gate.x 0)));
    case "blocks: zz structures commute" (fun () ->
        check_bool "zz 01 vs zz 12" true (Oracle.blocks (zz 0 1) (zz 1 2)));
    case "blocks: cnot chains do not" (fun () ->
        check_bool "cnot vs zz on target" false
          (Oracle.blocks [ Gate.cnot 0 1 ] (zz 1 2) |> fun r ->
           (* cnot(0,1) vs diagonal zz(1,2): cnot's target is in zz support *)
           r));
    case "is_diagonal_block" (fun () ->
        check_bool "zz block" true (Qref.is_diagonal_block (zz 0 1));
        check_bool "with stray h" false
          (Qref.is_diagonal_block (zz 0 1 @ [ Gate.h 0 ]));
        check_bool "empty" true (Qref.is_diagonal_block []));
    (* the matrix-free dense check and the whole oracle against full
       unitaries, on blocks over the whole vocabulary on 3–6 qubits (so
       General-class blocks reach the dense route): half are 1–4 gates,
       each on its own random pair (single gates and scattered short
       blocks), half up to 24 gates built as runs on one pair so that the
       dense check's kernels fuse; half the pairs are built to commute, so
       every column gets compared and not only up to the first mismatch *)
    qcheck ~count:400 "commute agrees with dense check" QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 3 + Qgraph.Rand.int rng 4 in
        let block () =
          if Qgraph.Rand.bool rng then
            List.init (1 + Qgraph.Rand.int rng 4) (fun _ ->
                random_vocabulary_gate rng n)
          else random_fusing_block rng n
        in
        let a = block () in
        let b = if Qgraph.Rand.bool rng then commuting_partner a else block () in
        let dense =
          Qnum.Cmat.commute ~eps:1e-9
            (Qgate.Unitary.of_gates ~n_qubits:n a)
            (Qgate.Unitary.of_gates ~n_qubits:n b)
        in
        Oracle.dense_on ~n_qubits:n a b = dense
        && Oracle.blocks a b = dense
        &&
        match (a, b) with
        | [ ga ], [ gb ] -> Oracle.gates ga gb = dense
        | _ -> true);
    (* the dispatching oracle (tableau / phase-polynomial fast paths plus
       the embedded dense fallback) against the one-shot dense check, on
       blocks whose joint support stays within the 8-qubit check width *)
    qcheck ~count:25 "blocks agrees with dense on random Clifford blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 7 in
        let a = random_clifford_gates rng n 5 in
        let b = random_clifford_gates rng n 5 in
        Oracle.blocks a b = Qref.dense_commute a b);
    qcheck ~count:25 "blocks agrees with dense on CNOT+Rz blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 7 in
        let a = random_cnot_rz_gates rng n 6 in
        let b = random_cnot_rz_gates rng n 6 in
        Oracle.blocks a b = Qref.dense_commute a b);
    case "blocks: anti-commuting Paulis rejected" (fun () ->
        check_bool "x vs z" false (Oracle.blocks [ Gate.x 0 ] [ Gate.z 0 ]);
        check_bool "x vs y" false (Oracle.blocks [ Gate.x 0 ] [ Gate.y 0 ]);
        check_bool "h vs h" true (Oracle.blocks [ Gate.h 0 ] [ Gate.h 0 ]));
    (* the oracle dispatcher against the retained pre-oracle decision
       chain: memoization, summary shortcuts and route dispatch must not
       change a single verdict *)
    qcheck ~count:25 "blocks matches blocks_reference on Clifford blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 5 in
        let a = random_clifford_gates rng n 5 in
        let b = random_clifford_gates rng n 5 in
        Oracle.blocks a b = Qref.blocks_reference a b);
    qcheck ~count:25 "blocks matches blocks_reference on CNOT+Rz blocks"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 5 in
        let a = random_cnot_rz_gates rng n 6 in
        let b = random_cnot_rz_gates rng n 6 in
        Oracle.blocks a b = Qref.blocks_reference a b);
    (* QL070's algebraic-only query: whenever it decides, it must agree
       with the dense comparison (joint width ≤ 6, so the dense check
       always runs) *)
    qcheck ~count:100 "algebraic agrees with dense when it decides"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 5 in
        let block () =
          let depth = 1 + Qgraph.Rand.int rng 5 in
          if Qgraph.Rand.bool rng then random_clifford_gates rng n depth
          else random_cnot_rz_gates rng n depth
        in
        let a = block () and b = block () in
        let summary gs = fst (Oracle.of_gates gs) in
        match Oracle.algebraic ~sa:(summary a) ~sb:(summary b) a b with
        | Some r -> r = Qref.dense_commute a b
        | None -> true) ]

let memo_key_cases =
  [ (* summaries and decisions are keyed by value: one float box shared
       by both rotations and two equal boxes are the same block *)
    case "summary digest ignores float sharing" (fun () ->
        Oracle.reset_memos ();
        let block t1 t2 = [ Gate.rz t1 0; Gate.rz t2 1; Gate.cnot 0 1 ] in
        let shared = Float.of_string "0.7" in
        let s1, _ = Oracle.of_gates (block shared shared) in
        let s2, hit =
          Oracle.of_gates (block (Float.of_string "0.7") (Float.of_string "0.7"))
        in
        Alcotest.(check string) "digest" s1.Oracle.digest s2.Oracle.digest;
        check_bool "classify hit" true hit);
    case "pair memo key ignores string sharing" (fun () ->
        Oracle.reset_memos ();
        let a = [ Gate.h 0; Gate.cnot 0 1 ] in
        let s = fst (Oracle.of_gates a) in
        let m = Qobs.Metrics.create () in
        Qobs.Metrics.with_ambient m (fun () ->
            ignore (Oracle.blocks ~sa:s ~sb:s a a);
            ignore (Oracle.blocks a a));
        check_int "second query hits" 1
          (Qobs.Metrics.counter_value m "commute.route.memo")) ]

(* a block template on [k] local wires from a vocabulary with no
   diagonal gate, so that most pairs of placed copies reach the pair
   memo *)
let random_template rng =
  let k = 1 + Qgraph.Rand.int rng 3 in
  let gate () =
    let q = Qgraph.Rand.int rng k in
    if k = 1 || Qgraph.Rand.bool rng then
      match Qgraph.Rand.int rng 3 with
      | 0 -> Gate.h q
      | 1 -> Gate.x q
      | _ -> Gate.rx 0.5 q
    else Gate.cnot q ((q + 1 + Qgraph.Rand.int rng (k - 1)) mod k)
  in
  (k, List.init (1 + Qgraph.Rand.int rng 3) (fun _ -> gate ()))

(* the template on [k] distinct random wires of six, in random order *)
let place rng (k, gs) =
  let wires = Array.of_list (Qgraph.Rand.pick_distinct rng k 6) in
  List.map (Gate.map_qubits (Array.get wires)) gs

let shift c gs = List.map (Gate.map_qubits (( + ) c)) gs

(* one query's route counters *)
let routed a b =
  let m = Qobs.Metrics.create () in
  Qobs.Metrics.with_ambient m (fun () -> ignore (Oracle.blocks a b));
  fun r -> Qobs.Metrics.counter_value m ("commute.route." ^ r) = 1

(* a query that got as far as the pair memo *)
let keyed route = List.exists route [ "memo"; "phase_poly"; "tableau"; "dense" ]

let ref_pair_key a b =
  Qref.pair_key (Qref.support_of (a @ b)) (Qref.summary a) (Qref.summary b)

let oracle_cases =
  [ (* the allocation-free keys partition blocks and pairs exactly as the
       string keys do: a second pair hits the first one's memo entry iff
       the two get equal string keys. The first pair is drawn until it
       reaches the pair memo; the second is a congruent copy of it on
       shifted wires, or it with one or both blocks re-placed (equal
       digests, other embeddings) *)
    qcheck ~count:500 "memo keys partition like the string keys"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let rec first () =
          let ta = random_template rng and tb = random_template rng in
          let a1 = place rng ta and b1 = place rng tb in
          if keyed (routed a1 b1) then (ta, tb, a1, b1) else first ()
        in
        let ta, tb, a1, b1 = first () in
        let a2, b2 =
          match Qgraph.Rand.int rng 4 with
          | 0 ->
            let c = 1 + Qgraph.Rand.int rng 5 in
            (shift c a1, shift c b1)
          | 1 -> (a1, place rng tb)
          | 2 -> (place rng ta, b1)
          | _ -> (place rng ta, place rng tb)
        in
        Oracle.reset_memos ();
        let blocks = [ a1; b1; a2; b2 ] in
        let digests_agree =
          List.for_all
            (fun x ->
              List.for_all
                (fun y ->
                  (fst (Oracle.of_gates x)).Oracle.digest
                  = (fst (Oracle.of_gates y)).Oracle.digest
                  = ((Qref.summary x).Qref.digest = (Qref.summary y).Qref.digest))
                blocks)
            blocks
        in
        Oracle.reset_memos ();
        ignore (Oracle.blocks a1 b1);
        let r2 = routed a2 b2 in
        let same = ref_pair_key a1 b1 = ref_pair_key a2 b2 in
        digests_agree
        &&
        if keyed r2 then r2 "memo" = same else not same);
    (* joint positions past the mask's width fold into its last digit,
       which still tells meeting supports from disjoint ones *)
    case "wide joints: meeting vs disjoint supports" (fun () ->
        let wide = List.init 40 Gate.h in
        let route b =
          let m = Qobs.Metrics.create () in
          let r = Qobs.Metrics.with_ambient m (fun () -> Oracle.blocks wide b) in
          let routes =
            List.filter
              (fun r -> Qobs.Metrics.counter_value m ("commute.route." ^ r) = 1)
              [ "structural"; "oversize" ]
          in
          (r, routes)
        in
        check_bool "meets at wire 39: oversize" true
          (route [ Gate.x 39 ] = (false, [ "oversize" ]));
        check_bool "disjoint at wire 40: structural" true
          (route [ Gate.x 40 ] = (true, [ "structural" ])));
    (* a memo hit on precomputed summaries builds no key string, table or
       sorted list: only the optional-argument boxes, the key tuple and
       the lookup's option *)
    case "memo hit allocates at most 32 words" (fun () ->
        Oracle.reset_memos ();
        let a = [ Gate.h 3; Gate.cnot 3 5; Gate.rx 0.3 5 ] in
        let b = [ Gate.cnot 5 7; Gate.ry 0.2 7 ] in
        let sa = fst (Oracle.of_gates a) and sb = fst (Oracle.of_gates b) in
        ignore (Oracle.blocks ~sa ~sb a b);
        let m = Qobs.Metrics.create () in
        Qobs.Metrics.with_ambient m (fun () -> ignore (Oracle.blocks ~sa ~sb a b));
        check_int "a memo hit" 1 (Qobs.Metrics.counter_value m "commute.route.memo");
        let calls = 1000 in
        let w0 = Gc.minor_words () in
        for _ = 1 to calls do
          ignore (Oracle.blocks ~sa ~sb a b)
        done;
        let words = (Gc.minor_words () -. w0) /. float_of_int calls in
        check_bool (Printf.sprintf "%.1f minor words per hit" words) true
          (words <= 32.)) ]

let gdg_cases =
  [ case "of_circuit sizes" (fun () ->
        let g = qaoa_triangle () in
        check_int "one node per gate" 15 (Gdg.size g);
        check_int "qubits" 3 (Gdg.n_qubits g));
    case "chains in program order" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let chain0 = List.map (fun i -> i.Inst.id) (Gdg.chain g 0) in
        Alcotest.(check (list int)) "qubit 0" [ 0; 1 ] chain0;
        let chain1 = List.map (fun i -> i.Inst.id) (Gdg.chain g 1) in
        Alcotest.(check (list int)) "qubit 1" [ 1; 2 ] chain1);
    case "parents and children" (fun () ->
        let c = Circuit.make 3 [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        check_int "cnot01 has one parent" 1 (List.length (Gdg.parents g 1));
        check_int "h has no parents" 0 (List.length (Gdg.parents g 0));
        check_int "cnot01 has one child" 1 (List.length (Gdg.children g 1)));
    case "asap makespan unit latencies" (fun () ->
        let c = Circuit.make 3 [ Gate.h 0; Gate.h 1; Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        check_float "depth 3" 3. (Timing.create g).makespan);
    case "asap respects latencies" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1 ] in
        let g = Gdg.of_circuit ~latency:(fun gs ->
            if List.exists (fun x -> Gate.arity x = 2) gs then 10. else 2.) c in
        check_float "2 + 10" 12. (Timing.create g).makespan);
    case "merge combines and keeps acyclicity" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let merged = Gdg.merge g ~latency:2.0 0 1 in
        check_int "size shrinks" 2 (Gdg.size g);
        check_int "two members" 2 (List.length merged.Inst.gates);
        Gdg.validate g);
    case "merge cycle rollback" (fun () ->
        (* A(0,1) ; B(1,2) ; C(0,2): merging A with C around B creates a
           cycle through B and must be rejected, leaving the graph valid *)
        let c = Circuit.make 3 [ Gate.cnot 0 1; Gate.cnot 1 2; Gate.cnot 0 2 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        check_bool "raises" true
          (try
             ignore (Gdg.merge g ~latency:2.0 0 2);
             false
           with Invalid_argument _ -> true);
        Gdg.validate g;
        check_int "unchanged" 3 (Gdg.size g));
    case "merge self raises" (fun () ->
        let g = qaoa_triangle () in
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.merge: cannot merge a node with itself")
          (fun () -> ignore (Gdg.merge g ~latency:1.0 2 2)));
    case "all_gates preserves count" (fun () ->
        let g = qaoa_triangle () in
        check_int "15 gates" 15 (List.length (Gdg.all_gates g)));
    case "set_latency" (fun () ->
        let g = qaoa_triangle () in
        Gdg.set_latency g 0 42.0;
        check_float "updated" 42.0 (Gdg.find g 0).Inst.latency);
    case "set_latency rejects nan" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.set_latency: non-finite latency")
          (fun () -> Gdg.set_latency (qaoa_triangle ()) 0 nan));
    case "set_latency rejects infinity" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.set_latency: non-finite latency")
          (fun () -> Gdg.set_latency (qaoa_triangle ()) 0 infinity));
    case "set_latency rejects a negative latency" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.set_latency: negative latency")
          (fun () -> Gdg.set_latency (qaoa_triangle ()) 0 (-1.)));
    case "pred_on and succ_on read the chains" (fun () ->
        let g = qaoa_triangle () in
        let id = Option.map (fun (i : Inst.t) -> i.Inst.id) in
        for q = 0 to Gdg.n_qubits g - 1 do
          let chain = Array.of_list (Gdg.chain_ids g q) in
          let n = Array.length chain in
          Array.iteri
            (fun k x ->
              check_bool "pred" true
                (id (Gdg.pred_on g x ~qubit:q)
                 = if k = 0 then None else Some chain.(k - 1));
              check_bool "succ" true
                (id (Gdg.succ_on g x ~qubit:q)
                 = if k = n - 1 then None else Some chain.(k + 1)))
            chain
        done);
    case "of_insts rejects a repeated qubit" (fun () ->
        let i =
          { (Inst.of_gate ~id:0 ~latency:1. (Gate.h 0)) with Inst.qubits = [ 0; 0 ] }
        in
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.of_insts: repeated qubit")
          (fun () -> ignore (Gdg.of_insts ~n_qubits:1 [ i ])));
    case "of_insts rejects an empty gate list" (fun () ->
        let i = { (Inst.of_gate ~id:0 ~latency:1. (Gate.h 0)) with Inst.gates = [] } in
        Alcotest.check_raises "raises"
          (Invalid_argument "Gdg.of_insts: empty gate list")
          (fun () -> ignore (Gdg.of_insts ~n_qubits:1 [ i ]))) ]

(* the graph's maintained order is a topological order: [order] and
   [pos] are inverse over the live ids, every other slot is a hole, and
   every chain edge runs from a lower to a higher position *)
let order_topological g =
  let live = Gdg.insts g in
  List.for_all
    (fun (i : Inst.t) ->
      let x = i.Inst.id in
      let p = g.Gdg.pos.(x) in
      p >= 0
      && g.Gdg.order.(p) = x
      && List.for_all
           (fun (c : Inst.t) -> g.Gdg.pos.(c.Inst.id) > p)
           (Gdg.children g x))
    live
  && Array.for_all (fun x -> x < 0 || Gdg.mem g x) g.Gdg.order
  && List.length (List.filter (fun x -> x >= 0) (Array.to_list g.Gdg.order))
     = List.length live

(* the links of [g] against a list model of its chains: each chain read
   backward ([Gdg.chain_ids]) and forward (head and successors) equals
   the model, predecessor, successor, head and end agree, and positions
   in the graph's order strictly increase along every chain *)
let links_agree g (model : int list array) =
  let slots x = g.Gdg.links.(x) in
  let field x q off =
    let l = slots x in
    let w = Array.length l / 3 in
    let rec go k = if k >= w then None else if l.(k) = q then Some l.((off * w) + k) else go (k + 1) in
    go 0
  in
  (* head to end through the successors; a node off the chain ends the
     walk with an id no chain holds *)
  let rec forward q x =
    if x < 0 then []
    else match field x q 2 with Some s -> x :: forward q s | None -> [ x; -2 ]
  in
  List.for_all
    (fun q ->
      let chain = model.(q) in
      let arr = Array.of_list chain in
      let n = Array.length arr in
      Gdg.chain_ids g q = chain
      && forward q g.Gdg.head.(q) = chain
      && g.Gdg.head.(q) = (if n = 0 then -1 else arr.(0))
      && g.Gdg.last.(q) = (if n = 0 then -1 else arr.(n - 1))
      && List.for_all Fun.id
           (List.init n (fun k ->
                let x = arr.(k) in
                field x q 1 = Some (if k = 0 then -1 else arr.(k - 1))
                && field x q 2 = Some (if k = n - 1 then -1 else arr.(k + 1))
                && (k = 0 || g.Gdg.pos.(arr.(k - 1)) < g.Gdg.pos.(x)))))
    (List.init (Gdg.n_qubits g) Fun.id)
  && List.for_all
       (fun (i : Inst.t) ->
         Array.to_list (Array.sub (slots i.Inst.id) 0 (Inst.width i)) = i.Inst.qubits)
       (Gdg.insts g)
  && order_topological g

(* the node table: [iter_insts] visits exactly the topologically ordered
   ids, ascending, and [size] counts them *)
let node_table_agrees g =
  let visited = ref [] in
  Gdg.iter_insts g (fun i -> visited := i.Inst.id :: !visited);
  let visited = List.rev !visited in
  visited = List.sort compare (List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g))
  && List.length visited = Gdg.size g

let links_cases =
  [ (* random merges, accepted or rejected: the links must track a list
       model of the chains and the order must stay topological, an
       accepted merge must shrink the size by one and a rejected one
       leave links, order, positions, size and next id untouched, the
       node table must stay in step, and every verdict must equal Kahn's
       algorithm on the merged model chains *)
    qcheck ~count:100 "links match chains after every merge"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 3 + Qgraph.Rand.int rng 3 in
        let g =
          Gdg.of_circuit ~latency:unit_latency
            (Circuit.make n
               (List.init
                  (15 + Qgraph.Rand.int rng 40)
                  (fun _ -> random_vocabulary_gate rng n)))
        in
        let model = Array.init n (Gdg.chain_ids g) in
        let pick xs = List.nth xs (Qgraph.Rand.int rng (List.length xs)) in
        let ids () = List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g) in
        let model_ok = ref (links_agree g model) in
        for _ = 1 to 25 do
          let a = pick (ids ()) and b = pick (ids ()) in
          if a <> b then begin
            let before = Array.map Array.copy g.Gdg.links in
            let order = Array.copy g.Gdg.order and pos = Array.copy g.Gdg.pos in
            let size = Gdg.size g and next = Gdg.next_id g in
            let merged_model = Qref.merge_chains model a b next in
            let accepted =
              match Gdg.merge g ~latency:1. a b with
              | _ -> true
              | exception Invalid_argument _ -> false
            in
            let verdict_ok = accepted = Qref.acyclic_chains merged_model in
            let state_ok =
              if accepted then begin
                Array.blit merged_model 0 model 0 n;
                Gdg.size g = size - 1
              end
              else
                Gdg.size g = size && Gdg.next_id g = next
                && g.Gdg.order = order
                && Array.sub g.Gdg.pos 0 (Array.length pos) = pos
                && List.for_all
                     (fun x -> before.(x) = g.Gdg.links.(x))
                     (List.init (Array.length before) Fun.id)
            in
            model_ok :=
              !model_ok && verdict_ok && state_ok && links_agree g model
              && node_table_agrees g
          end
        done;
        Gdg.validate g;
        !model_ok) ]

(* 3–5 qubits, 20–60 gates, mostly mutually commuting (ZZ blocks, Rzz,
   Rz) with CNOT and H to break runs: long commutation groups whose
   boundaries move when a splice changes their content *)
let random_commuting_gdg rng =
  let n = 3 + Qgraph.Rand.int rng 3 in
  let gates =
    List.concat
      (List.init
         (20 + Qgraph.Rand.int rng 41)
         (fun _ ->
           let q = Qgraph.Rand.int rng n in
           let r = (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
           let angle = Qgraph.Rand.float rng 3. in
           match Qgraph.Rand.int rng 6 with
           | 0 -> zz (min q r) (max q r)
           | 1 | 2 -> [ Gate.rzz angle q r ]
           | 3 -> [ Gate.rz angle q ]
           | 4 -> [ Gate.cnot q r ]
           | _ -> [ Gate.h q ]))
  in
  Gdg.of_circuit ~latency:unit_latency (Circuit.make n gates)

(* [Gdg.merge] of [a] and [b], then the regroup of that merge; returns
   the chain elements the regroup examined *)
let merge_and_refresh g groups a b =
  let la = g.Gdg.links.(a) and lb = g.Gdg.links.(b) in
  let merged = Gdg.merge g ~latency:1.0 a b in
  Comm_group.refresh groups ~a ~la ~b ~lb merged

(* the partition of [groups] equals a fresh build's on every qubit: the
   same group lists, the same ids on each chain ([-1] for merged-away
   ids) and the same [same_group] answer for every pair on a chain.
   Labels themselves may differ after a refresh. *)
let same_partition g groups =
  let fresh = Comm_group.build g in
  List.for_all
    (fun q ->
      let chain = Gdg.chain_ids g q in
      Comm_group.groups_on groups q = Comm_group.groups_on fresh q
      && List.for_all
           (fun id ->
             Comm_group.lookup groups ~qubit:q id >= 0
             = (Comm_group.lookup fresh ~qubit:q id >= 0))
           (List.init (Gdg.next_id g) Fun.id)
      && List.for_all
           (fun x ->
             List.for_all
               (fun y ->
                 Comm_group.same_group groups ~qubit:q x y
                 = Comm_group.same_group fresh ~qubit:q x y)
               chain)
           chain)
    (List.init (Gdg.n_qubits g) Fun.id)

(* merge a random node with one of the next three on one of its chains
   and regroup; [false] when the graph has one node or the merge would
   close a cycle *)
let random_splice rng g groups =
  let ids = List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g) in
  if List.length ids < 2 then false
  else
    let a = List.nth ids (Qgraph.Rand.int rng (List.length ids)) in
    let ia = Gdg.find g a in
    let q = List.nth ia.Inst.qubits (Qgraph.Rand.int rng (Inst.width ia)) in
    let rec after = function
      | x :: rest when x = a -> rest
      | _ :: rest -> after rest
      | [] -> []
    in
    match after (Gdg.chain_ids g q) with
    | [] -> false
    | later ->
      let k = Qgraph.Rand.int rng (min 3 (List.length later)) in
      (match merge_and_refresh g groups a (List.nth later k) with
       | _ -> true
       | exception Invalid_argument _ -> false)

let comm_group_cases =
  [ case "cnot-rz-cnot groups on control vs target" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        (* the two CNOTs share a group on the control qubit... *)
        check_bool "same group on control" true (Comm_group.same_group groups ~qubit:0 0 2);
        (* ...but not on the target, where the Rz separates them *)
        check_bool "split on target" false (Comm_group.same_group groups ~qubit:1 0 2));
    case "group count on serial chain" (fun () ->
        let c = Circuit.make 1 [ Gate.h 0; Gate.x 0; Gate.h 0 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        check_int "three singleton groups" 3 (List.length (Comm_group.groups_on groups 0)));
    case "commuting run forms one group" (fun () ->
        let c = Circuit.make 3 [ Gate.rzz 0.1 0 1; Gate.rzz 0.2 1 2; Gate.rz 0.3 1 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        check_int "one group on qubit 1" 1 (List.length (Comm_group.groups_on groups 1)));
    case "reorderable requires all common qubits" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let groups = Comm_group.build g in
        check_bool "cnots not reorderable" false
          (Comm_group.reorderable groups (Gdg.find g 0) (Gdg.find g 2)));
    (* a chain of random splices, each followed by the merge-aware
       refresh: the window walk must reproduce a fresh build's partition
       on every qubit, including the [-1] entries of merged-away ids *)
    qcheck ~count:100 "refresh matches rebuild" QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let g = random_commuting_gdg rng in
        let groups = Comm_group.build g in
        List.for_all
          (fun _ -> (not (random_splice rng g groups)) || same_partition g groups)
          (List.init 25 Fun.id));
    (* the window's edges, one merge each on a small graph; ids are gate
       indices. Each must leave a fresh build's partition. *)
    case "refresh: earlier endpoint at its chain head" (fun () ->
        let g =
          Gdg.of_circuit ~latency:unit_latency
            (Circuit.make 2
               [ Gate.rz 0.1 0; Gate.rzz 0.2 0 1; Gate.h 0; Gate.rz 0.3 0;
                 Gate.h 1 ])
        in
        let groups = Comm_group.build g in
        ignore (merge_and_refresh g groups 0 1);
        check_bool "partition" true (same_partition g groups));
    case "refresh: later endpoint at its chain end" (fun () ->
        let g =
          Gdg.of_circuit ~latency:unit_latency
            (Circuit.make 2
               [ Gate.h 0; Gate.rz 0.1 0; Gate.rzz 0.2 0 1; Gate.x 0;
                 Gate.cnot 0 1 ])
        in
        let groups = Comm_group.build g in
        ignore (merge_and_refresh g groups 3 4);
        check_bool "partition" true (same_partition g groups));
    case "refresh: endpoints not adjacent on a shared qubit" (fun () ->
        (* the rzz between the two rz stays between them on qubit 0 *)
        let g =
          Gdg.of_circuit ~latency:unit_latency
            (Circuit.make 2
               [ Gate.h 0; Gate.rz 0.1 0; Gate.rzz 0.2 0 1; Gate.rz 0.3 0;
                 Gate.h 0; Gate.x 1 ])
        in
        let groups = Comm_group.build g in
        ignore (merge_and_refresh g groups 1 3);
        check_bool "partition" true (same_partition g groups));
    case "refresh: a qubit carries only one endpoint" (fun () ->
        (* qubit 0 carries only the first cnot, qubit 2 only the second *)
        let g =
          Gdg.of_circuit ~latency:unit_latency
            (Circuit.make 3
               [ Gate.rz 0.1 0; Gate.cnot 0 1; Gate.cnot 1 2; Gate.rz 0.2 0;
                 Gate.rz 0.3 2; Gate.h 2 ])
        in
        let groups = Comm_group.build g in
        ignore (merge_and_refresh g groups 1 2);
        check_bool "partition" true (same_partition g groups));
    case "refresh walks the window, not the chain" (fun () ->
        (* 200 singleton groups on one qubit; a merge in the middle
           regroups a few nodes around it *)
        let g =
          Gdg.of_circuit ~latency:unit_latency
            (Circuit.make 1
               (List.init 200 (fun k -> if k mod 2 = 0 then Gate.h 0 else Gate.x 0)))
        in
        let groups = Comm_group.build g in
        let visits = merge_and_refresh g groups 100 101 in
        check_bool "partition" true (same_partition g groups);
        check_bool (Printf.sprintf "%d visits" visits) true (visits <= 4));
    case "oracle build matches reference on every suite circuit" (fun () ->
        List.iter
          (fun (b : Qapps.Suite.benchmark) ->
            let circuit = Qapps.Suite.lowered b in
            let g = Gdg.of_circuit ~latency:sum_latency circuit in
            let oracle = Comm_group.build g in
            let reference = Comm_group.build ~commute:Qref.insts_reference g in
            for q = 0 to Gdg.n_qubits g - 1 do
              Alcotest.(check (list (list int)))
                (Printf.sprintf "%s qubit %d" b.Qapps.Suite.name q)
                (Comm_group.groups_on reference q)
                (Comm_group.groups_on oracle q)
            done)
          Qapps.Suite.all) ]

let diagonal_cases =
  [ case "contracts cnot-rz-cnot" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let merges = Diagonal.detect_and_contract ~latency:sum_latency g in
        check_bool "merged" true (merges >= 1);
        check_int "single block" 1 (Gdg.size g);
        Gdg.validate g);
    case "contracted block is diagonal" (fun () ->
        let c = Circuit.make 2 (zz 0 1) in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        ignore (Diagonal.detect_and_contract ~latency:sum_latency g);
        List.iter
          (fun (i : Inst.t) ->
            if List.length i.Inst.gates > 1 then
              check_bool "diagonal" true (Qref.is_diagonal_block i.Inst.gates))
          (Gdg.insts g));
    case "does not contract non-diagonal runs" (fun () ->
        let c = Circuit.make 2 [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] in
        let g = Gdg.of_circuit ~latency:unit_latency c in
        let merges = Diagonal.detect_and_contract ~latency:sum_latency g in
        check_int "no merges" 0 merges;
        check_int "unchanged" 3 (Gdg.size g));
    case "respects run gate budget" (fun () ->
        (* a long diagonal chain on one pair: blocks stay <= max_run_gates *)
        let gates = List.concat (List.init 8 (fun _ -> zz 0 1)) in
        let g = Gdg.of_circuit ~latency:unit_latency (Circuit.make 2 gates) in
        ignore (Diagonal.detect_and_contract ~latency:sum_latency g);
        List.iter
          (fun (i : Inst.t) ->
            check_bool "size bounded" true
              (List.length i.Inst.gates <= Diagonal.max_run_gates))
          (Gdg.insts g));
    case "triangle qaoa contracts three blocks" (fun () ->
        let g = qaoa_triangle () in
        let merges = Diagonal.detect_and_contract ~latency:sum_latency g in
        check_int "three zz merges" 3 merges;
        Gdg.validate g);
    case "semantics preserved" (fun () ->
        let circuit = Qapps.Qaoa.triangle_example () in
        let g = Gdg.of_circuit ~latency:unit_latency circuit in
        ignore (Diagonal.detect_and_contract ~latency:sum_latency g);
        let after = Circuit.make 3 (Gdg.all_gates g) in
        check_bool "unitary equal" true (Circuit.equal_semantics circuit after));
    (* run growth: the table-backed production bookkeeping against the
       list-based reference, plus the structural invariants every run
       must satisfy *)
    qcheck ~count:30 "grow_run matches reference and its invariants"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 2 + Qgraph.Rand.int rng 4 in
        let gates = random_unitary_gates rng n (10 + Qgraph.Rand.int rng 30) in
        let g = Gdg.of_circuit ~latency:unit_latency (Circuit.make n gates) in
        List.for_all
          (fun (i : Inst.t) ->
            let run = Diagonal.grow_run g i.Inst.id in
            let reference = Qref.grow_run_reference g i.Inst.id in
            let support =
              List.sort_uniq compare
                (List.concat_map
                   (fun id -> (Gdg.find g id).Inst.qubits)
                   run)
            in
            let gate_count =
              List.fold_left
                (fun acc id ->
                  acc + List.length (Gdg.find g id).Inst.gates)
                0 run
            in
            run = reference
            && List.hd run = i.Inst.id
            && List.length support <= 2
            && gate_count <= Diagonal.max_run_gates)
          (Gdg.insts g));
    case "oracle detect matches reference on every suite circuit" (fun () ->
        let shape g =
          List.map
            (fun (i : Inst.t) -> (i.Inst.id, i.Inst.qubits, i.Inst.gates))
            (Gdg.insts g)
        in
        List.iter
          (fun (b : Qapps.Suite.benchmark) ->
            let circuit = Qapps.Suite.lowered b in
            let g_new = Gdg.of_circuit ~latency:sum_latency circuit in
            let g_ref = Gdg.of_circuit ~latency:sum_latency circuit in
            let merges_new =
              Diagonal.detect_and_contract ~latency:sum_latency g_new
            in
            let merges_ref =
              Qref.detect_and_contract_reference ~latency:sum_latency g_ref
            in
            check_int
              (Printf.sprintf "%s merges" b.Qapps.Suite.name)
              merges_ref merges_new;
            check_bool
              (Printf.sprintf "%s graphs identical" b.Qapps.Suite.name)
              true
              (shape g_new = shape g_ref);
            Gdg.validate g_new;
            (* the contracted graphs must also schedule identically *)
            check_float
              (Printf.sprintf "%s cls makespan" b.Qapps.Suite.name)
              (Qsched.Cls.makespan g_ref) (Qsched.Cls.makespan g_new))
          Qapps.Suite.all);
    (* detect contracts through [Gdg.merge], which repairs the graph's
       order on every contraction: the order stays topological on the
       lowered graph (cls, cls+aggregation) and on the routed graph
       (aggregation; the isa result is that graph, uncontracted) of
       every suite benchmark *)
    slow_case "detect leaves a topological order on every suite graph" (fun () ->
        let total = ref 0 in
        List.iter
          (fun (b : Qapps.Suite.benchmark) ->
            let circuit = Qapps.Suite.lowered b in
            let routed =
              (Qcc.Compiler.compile ~strategy:Qcc.Strategy.Isa circuit)
                .Qcc.Compiler.gdg
            in
            List.iter
              (fun (what, g) ->
                let g = Gdg.copy g in
                total := !total + Diagonal.detect_and_contract ~latency:sum_latency g;
                check_bool
                  (Printf.sprintf "%s %s order" b.Qapps.Suite.name what)
                  true (order_topological g))
              [ ("lowered", Gdg.of_circuit ~latency:sum_latency circuit);
                ("routed", routed) ])
          Qapps.Suite.all;
        check_bool "some contractions" true (!total > 0)) ]

(* bit-for-bit float equality *)
let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* [Asap.schedule] against the list fold of [Qref.asap]: the same
   (start, finish) for every node and the same makespan, bit for bit *)
let asap_agrees g =
  let times, makespan = Qref.asap g in
  let s = Qsched.Asap.schedule g in
  same s.Qsched.Schedule.makespan makespan
  && List.length s.Qsched.Schedule.entries = List.length times
  && List.for_all
       (fun (e : Qsched.Schedule.entry) ->
         let start, finish = List.assoc e.inst.Inst.id times in
         same e.start start && same e.finish finish)
       s.Qsched.Schedule.entries

(* [t]'s tables against a from-scratch [Timing.create] on the same graph,
   float entries compared bit for bit; the fresh tables are themselves
   checked against the [Qref.asap] fold, as is [Asap.schedule], and every
   merged-away id must have no start *)
let timing_agrees (t : Timing.t) g =
  let f = Timing.create g in
  let asap, makespan = Qref.asap g in
  same t.makespan f.makespan
  && same f.makespan makespan
  && List.for_all
       (fun (x, (s, fin)) -> same f.start.(x) s && same f.finish.(x) fin)
       asap
  && asap_agrees g
  && List.for_all
       (fun (i : Inst.t) ->
         let x = i.Inst.id in
         List.for_all
           (fun (a, b) -> same a.(x) b.(x))
           [ (t.start, f.start); (t.finish, f.finish); (t.tail, f.tail) ])
       (Gdg.insts g)
  && List.for_all
       (fun x -> Gdg.mem g x || Float.is_nan t.start.(x))
       (List.init (Gdg.next_id g) Fun.id)

let timing_cases =
  [ (* random merges through [Timing.merge], each validated by the
       merge's window search: the patched tables must equal a fresh pass
       after every step, and the graph's order must stay topological.
       Pairs are either chain-near (mostly accepted) or arbitrary (often
       cyclic, so rejected merges must leave [t] and the graph's order
       alone); latencies are random, zero included, so ties and
       re-timed tails both occur *)
    qcheck ~count:100 "Timing.merge matches create after every merge"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 3 + Qgraph.Rand.int rng 3 in
        let latency () =
          if Qgraph.Rand.int rng 5 = 0 then 0.
          else Qgraph.Rand.float rng 100.
        in
        let g =
          Gdg.of_circuit
            ~latency:(fun _ -> latency ())
            (Circuit.make n
               (List.init
                  (15 + Qgraph.Rand.int rng 40)
                  (fun _ -> random_vocabulary_gate rng n)))
        in
        let t = Timing.create g in
        let pick xs = List.nth xs (Qgraph.Rand.int rng (List.length xs)) in
        let partner a =
          if Qgraph.Rand.bool rng then
            pick (List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g))
          else
            let q = pick (Gdg.find g a).Inst.qubits in
            let rec after = function
              | x :: rest when x = a -> rest
              | _ :: rest -> after rest
              | [] -> []
            in
            match after (Gdg.chain_ids g q) with
            | [] -> a
            | later -> List.nth later (Qgraph.Rand.int rng (min 3 (List.length later)))
        in
        List.for_all
          (fun _ ->
            let a = pick (List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g)) in
            let b = partner a in
            let order = Array.copy g.Gdg.order in
            (a = b
            ||
            match Timing.merge t ~latency:(latency ()) a b with
            | exception Invalid_argument _ -> g.Gdg.order = order
            | _, visits -> visits >= 1)
            && timing_agrees t g
            && order_topological g)
          (List.init 25 Fun.id));
    (* the schedulers' timing against the list folds of the test-scope
       specification on random graphs and random latencies, zero
       included: ASAP bit for bit, and the ALAP slack (the makespan minus
       a tail, a different summation order) within rounding *)
    qcheck ~count:100 "Asap and Alap match the Qref folds"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 3 + Qgraph.Rand.int rng 3 in
        let g =
          Gdg.of_circuit
            ~latency:(fun _ ->
              if Qgraph.Rand.int rng 5 = 0 then 0.
              else Qgraph.Rand.float rng 100.)
            (Circuit.make n
               (List.init
                  (1 + Qgraph.Rand.int rng 60)
                  (fun _ -> random_vocabulary_gate rng n)))
        in
        let sl = Qref.slack g in
        let slack = Qsched.Alap.slack g in
        asap_agrees g
        && List.length slack = Gdg.size g
        && List.for_all
             (fun (id, s) ->
               Float.abs
                 (s
                 -. (Hashtbl.find sl.Qref.latest_start id
                    -. Hashtbl.find sl.Qref.start id))
               <= 1e-9)
             slack) ]

let suites =
  [ ("qgdg.inst", inst_cases);
    ("qgdg.commute", commute_cases);
    ("qgdg.memo_key", memo_key_cases);
    ("qgdg.oracle", oracle_cases);
    ("qgdg.gdg", gdg_cases);
    ("qgdg.links", links_cases);
    ("qgdg.comm_group", comm_group_cases);
    ("qgdg.timing", timing_cases);
    ("qgdg.diagonal", diagonal_cases) ]
