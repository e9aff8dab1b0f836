(* tests for the Qflow abstract-interpretation engine and the semantic /
   aggregation-opportunity lints it powers (QL06x / QL07x), plus the
   diagnostic registry, report determinism and SARIF output *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Oracle = Qgdg.Oracle
module A = Qflow.Absval
module T = Qflow.Transfer
module D = Qlint.Diagnostic

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags

let count_code c diags =
  List.length (List.filter (fun (d : D.t) -> d.D.code = c) diags)

(* ---------- lattice laws ---------- *)

let lattice_cases =
  [ case "chain order: rank is monotone and leq total on the chain" (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check_bool
                  (Printf.sprintf "leq %s %s" (A.to_string a) (A.to_string b))
                  (A.rank a <= A.rank b) (A.leq a b))
              A.all)
          A.all);
    case "join is least upper bound" (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let j = A.join a b in
                check_bool "upper a" true (A.leq a j);
                check_bool "upper b" true (A.leq b j);
                check_bool "commutes" true (A.equal j (A.join b a));
                (* least: any other upper bound dominates the join *)
                List.iter
                  (fun u ->
                    if A.leq a u && A.leq b u then
                      check_bool "least" true (A.leq j u))
                  A.all)
              A.all)
          A.all);
    case "bottom and top bracket the chain" (fun () ->
        List.iter
          (fun v ->
            check_bool "bottom leq" true (A.leq A.bottom v);
            check_bool "leq top" true (A.leq v A.top))
          A.all);
    case "to_string / of_string round-trip" (fun () ->
        List.iter
          (fun v ->
            match A.of_string (A.to_string v) with
            | Some v' -> check_bool (A.to_string v) true (A.equal v v')
            | None -> Alcotest.failf "of_string failed on %s" (A.to_string v))
          A.all) ]

(* ---------- transfer functions ---------- *)

let st n = Array.make n A.Zero

let transfer_cases =
  [ case "x promotes Zero to Basis, h to Stabilizer, t to Diag" (fun () ->
        let s = st 1 in
        T.apply s (Gate.x 0);
        check_bool "x" true (A.equal s.(0) A.Basis);
        T.apply s (Gate.h 0);
        check_bool "h" true (A.equal s.(0) A.Stabilizer);
        T.apply s (Gate.t 0);
        check_bool "t" true (A.equal s.(0) A.Diag));
    case "clifford diagonal keeps Stabilizer, rz leaves Basis alone" (fun () ->
        let s = st 1 in
        T.apply s (Gate.h 0);
        T.apply s (Gate.s 0);
        check_bool "s on stab" true (A.equal s.(0) A.Stabilizer);
        let s = st 1 in
        T.apply s (Gate.x 0);
        T.apply s (Gate.rz 0.3 0);
        check_bool "rz on basis" true (A.equal s.(0) A.Basis));
    case "entangling gates send both qubits to Top" (fun () ->
        let s = st 2 in
        T.apply s (Gate.h 0);
        T.apply s (Gate.cnot 0 1);
        check_bool "control" true (A.equal s.(0) A.Top);
        check_bool "target" true (A.equal s.(1) A.Top));
    case "cnot with definite control stays a product state" (fun () ->
        let s = st 2 in
        T.apply s (Gate.x 0);
        T.apply s (Gate.h 1);
        T.apply s (Gate.cnot 0 1);
        check_bool "control kept" true (A.equal s.(0) A.Basis);
        check_bool "target in class" true (A.equal s.(1) A.Stabilizer));
    case "deadness: zero-controlled and full-turn gates" (fun () ->
        let s = st 2 in
        check_bool "cnot zero control" true (T.dead s (Gate.cnot 0 1));
        check_bool "cz zero side" true (T.dead s (Gate.cz 0 1));
        check_bool "swap on zeros" true (T.dead s (Gate.swap 0 1));
        check_bool "rz full turn" true
          (T.dead s (Gate.rz (2. *. Float.pi) 0));
        check_bool "z on zero" true (T.dead s (Gate.z 0));
        check_bool "h not dead" false (T.dead s (Gate.h 0));
        check_bool "x not dead" false (T.dead s (Gate.x 0)));
    case "rzz with one Zero qubit is NOT dead" (fun () ->
        (* Rzz(θ) on |0⟩⊗ψ applies Rz(-ish) phases to ψ — a relative
           phase, not a global one *)
        let s = st 2 in
        T.apply s (Gate.h 1);
        check_bool "not dead" false (T.dead s (Gate.rzz 0.7 0 1));
        (* but with BOTH qubits ⊑ Basis it only contributes a global
           phase *)
        let s = st 2 in
        T.apply s (Gate.x 1);
        check_bool "dead on basis pair" true (T.dead s (Gate.rzz 0.7 0 1)));
    case "dead gates are exactly identity up to global phase" (fun () ->
        (* concrete spot-check of the soundness claim: prefix then a
           dead gate; statevector unchanged up to phase *)
        let prefix = [ Gate.x 0; Gate.h 1 ] in
        let s = st 3 in
        List.iter (T.apply s) prefix;
        let g = Gate.cnot 2 1 in
        check_bool "dead" true (T.dead s g);
        let sv gs =
          Qsim.State.of_vec 3
            (Qnum.Vec.of_array (Qgate.Unitary.state_of_gates ~n_qubits:3 gs))
        in
        let fid = Qsim.State.fidelity (sv (prefix @ [ g ])) (sv prefix) in
        check_float ~eps:1e-9 "fidelity" 1.0 fid) ]

(* ---------- analysis drivers ---------- *)

let analysis_cases =
  [ case "circuit analysis finds dead zero-controlled prefix gates" (fun () ->
        let c = Circuit.make 2 [ Gate.cnot 0 1; Gate.h 0; Gate.cnot 0 1 ] in
        let r = Qflow.Analysis.circuit c in
        (match r.Qflow.Analysis.dead with
         | [ (0, _) ] -> ()
         | l -> Alcotest.failf "expected gate 0 dead, got %d" (List.length l));
        check_bool "q0 top" true (A.equal r.Qflow.Analysis.final.(0) A.Top));
    case "gdg analysis agrees with circuit analysis on singletons" (fun () ->
        let gates = [ Gate.h 0; Gate.cnot 0 1; Gate.t 2; Gate.x 2 ] in
        let c = Circuit.make 3 gates in
        let cr = Qflow.Analysis.circuit c in
        let g = Gdg.of_circuit ~latency:(fun _ -> 10.) c in
        let gr = Qflow.Analysis.gdg g in
        Array.iteri
          (fun q v ->
            check_bool
              (Printf.sprintf "q%d" q)
              true
              (A.equal v gr.Qflow.Analysis.final.(q)))
          cr.Qflow.Analysis.final;
        check_int "steps = insts on a DAG" (List.length gates)
          gr.Qflow.Analysis.steps);
    case "gdg analysis flags dead members inside blocks" (fun () ->
        let insts =
          [ Inst.make ~id:0 ~latency:10. [ Gate.x 0 ];
            Inst.make ~id:1 ~latency:20. [ Gate.cnot 1 0; Gate.h 1 ] ]
        in
        let g = Gdg.of_insts ~n_qubits:2 insts in
        let r = Qflow.Analysis.gdg g in
        let info =
          List.find
            (fun (i : Qflow.Analysis.inst_info) -> i.Qflow.Analysis.inst_id = 1)
            r.Qflow.Analysis.insts
        in
        (* q1 is still Zero when inst 1 runs, so its cnot is dead *)
        check_bool "member 0 dead" true
          (List.mem 0 info.Qflow.Analysis.dead_members)) ]

(* ---------- summaries ---------- *)

let summary_cases =
  [ case "klass classification by cheapest domain" (fun () ->
        let k gs = (fst (Oracle.of_gates gs)).Oracle.klass in
        check_bool "identity" true (k [ Gate.h 0; Gate.h 0 ] = Oracle.Identity);
        check_bool "diagonal" true (k [ Gate.t 0; Gate.cz 0 1 ] = Oracle.Diagonal);
        check_bool "clifford" true (k [ Gate.h 0; Gate.cnot 0 1 ] = Oracle.Clifford);
        check_bool "phase-linear" true
          (k [ Gate.cnot 0 1; Gate.t 1 ] = Oracle.Phase_linear);
        check_bool "general" true (k [ Gate.rx 0.3 0 ] = Oracle.General));
    case "summaries are content-addressed across qubit relabelings" (fun () ->
        (* three congruent blocks on disjoint qubits: the analysis
           classifies the first and hits the oracle's memo twice *)
        Oracle.reset_memos ();
        let template q r = [ Gate.h q; Gate.cnot q r; Gate.t r ] in
        let g =
          Gdg.of_insts ~n_qubits:8
            (List.mapi
               (fun id (q, r) -> Inst.make ~id ~latency:1. (template q r))
               [ (0, 1); (4, 7); (2, 3) ])
        in
        let m = Qobs.Metrics.create () in
        let r = Qobs.Metrics.with_ambient m (fun () -> Qflow.Analysis.gdg g) in
        check_int "one miss" 1 (Qobs.Metrics.counter_value m "qflow.summary.miss");
        check_int "two hits" 2 (Qobs.Metrics.counter_value m "qflow.summary.hit");
        let summary id =
          (List.find
             (fun (i : Qflow.Analysis.inst_info) -> i.Qflow.Analysis.inst_id = id)
             r.Qflow.Analysis.insts)
            .Qflow.Analysis.summary
        in
        let s1 = summary 0 and s2 = summary 1 in
        Alcotest.(check string) "same digest" s1.Oracle.digest s2.Oracle.digest;
        check_bool "different support" false
          (s1.Oracle.support = s2.Oracle.support));
    (* QL070's algebraic-only pair query *)
    case "commutes: disjoint, diagonal pairs, and anti-commuting paulis"
      (fun () ->
        let s gs = fst (Oracle.of_gates gs) in
        let a = [ Gate.h 0 ] and b = [ Gate.h 5 ] in
        check_bool "disjoint" true
          (Oracle.algebraic ~sa:(s a) ~sb:(s b) a b = Some true);
        let a = [ Gate.t 0; Gate.rzz 0.4 0 1 ] and b = [ Gate.cz 1 2 ] in
        check_bool "diagonal x diagonal" true
          (Oracle.algebraic ~sa:(s a) ~sb:(s b) a b = Some true);
        let a = [ Gate.z 0 ] and b = [ Gate.x 0 ] in
        check_bool "z vs x" true
          (Oracle.algebraic ~sa:(s a) ~sb:(s b) a b = Some false);
        let a = [ Gate.z 0 ] and b = [ Gate.cnot 0 1 ] in
        check_bool "z vs control of cnot" true
          (Oracle.algebraic ~sa:(s a) ~sb:(s b) a b = Some true);
        let a = [ Gate.z 0 ] and b = [ Gate.cnot 1 0 ] in
        check_bool "z vs target of cnot" true
          (Oracle.algebraic ~sa:(s a) ~sb:(s b) a b = Some false)) ]

(* ---------- QL06x / QL07x lints: seeded witnesses per code ---------- *)

let probabilities_of gates n =
  let s =
    List.fold_left Qsim.State.apply_gate (Qsim.State.zero n) gates
  in
  Qsim.State.probabilities s

let semantic_cases =
  [ case "QL060 witness: zero-controlled cnot" (fun () ->
        let c = Circuit.make 2 [ Gate.cnot 0 1 ] in
        let ds = Qlint.Check_semantic.run c in
        check_int "one QL060" 1 (count_code "QL060" ds));
    case "QL061 witness: adjacent x;x pair, reported once" (fun () ->
        let c = Circuit.make 1 [ Gate.x 0; Gate.x 0 ] in
        let ds = Qlint.Check_semantic.run c in
        check_int "one QL061" 1 (count_code "QL061" ds);
        check_int "no QL060" 0 (count_code "QL060" ds));
    case "QL060/QL061 mutual exclusion: dead pair reports dead only"
      (fun () ->
        (* both cnots are zero-controlled, hence dead — not a pair *)
        let c = Circuit.make 2 [ Gate.cnot 0 1; Gate.cnot 0 1 ] in
        let ds = Qlint.Check_semantic.run c in
        check_int "two QL060" 2 (count_code "QL060" ds);
        check_int "no QL061" 0 (count_code "QL061" ds));
    case "QL062 witness: trailing t preserves all probabilities" (fun () ->
        let gates = [ Gate.h 0; Gate.cnot 0 1; Gate.t 1 ] in
        let c = Circuit.make 2 gates in
        let ds = Qlint.Check_semantic.run c in
        check_int "one QL062" 1 (count_code "QL062" ds);
        let with_t = probabilities_of gates 2
        and without = probabilities_of [ Gate.h 0; Gate.cnot 0 1 ] 2 in
        Array.iteri
          (fun k p -> check_float ~eps:1e-9 (string_of_int k) p without.(k))
          with_t);
    case "QL063 witness: dirtied ancilla flagged, clean one not" (fun () ->
        let dirty = Circuit.make 2 [ Gate.x 1 ] in
        check_int "flagged" 1
          (count_code "QL063" (Qlint.Check_semantic.run ~ancillas:[ 1 ] dirty));
        let clean = Circuit.make 2 [ Gate.h 0 ] in
        check_int "clean" 0
          (count_code "QL063" (Qlint.Check_semantic.run ~ancillas:[ 1 ] clean));
        check_int "undeclared never fires" 0
          (count_code "QL063" (Qlint.Check_semantic.run dirty)));
    case "QL070 witness: adjacent diagonal singletons" (fun () ->
        let g =
          Gdg.of_insts ~n_qubits:1
            [ Inst.make ~id:0 ~latency:10. [ Gate.t 0 ];
              Inst.make ~id:1 ~latency:10. [ Gate.s 0 ] ]
        in
        let ds = Qlint.Check_aggop.run ~width_limit:4 g in
        check_int "one QL070" 1 (count_code "QL070" ds));
    case "QL070 silent on non-commuting neighbors" (fun () ->
        let g =
          Gdg.of_insts ~n_qubits:1
            [ Inst.make ~id:0 ~latency:10. [ Gate.z 0 ];
              Inst.make ~id:1 ~latency:10. [ Gate.x 0 ] ]
        in
        check_int "none" 0
          (count_code "QL070" (Qlint.Check_aggop.run ~width_limit:4 g)));
    case "QL071 witness: serially-costed diagonal aggregate" (fun () ->
        let cost _ = 25. in
        let block = [ Gate.rz 0.3 0; Gate.rz 0.4 1 ] in
        let serial = Gdg.of_insts ~n_qubits:2
            [ Inst.make ~id:0 ~latency:50. block ]
        and packed = Gdg.of_insts ~n_qubits:2
            [ Inst.make ~id:0 ~latency:25. block ]
        in
        check_int "serial flagged" 1
          (count_code "QL071"
             (Qlint.Check_aggop.run ~gate_time:cost ~width_limit:4 serial));
        check_int "packed clean" 0
          (count_code "QL071"
             (Qlint.Check_aggop.run ~gate_time:cost ~width_limit:4 packed));
        check_int "skipped without a cost model" 0
          (count_code "QL071" (Qlint.Check_aggop.run ~width_limit:4 serial))) ]

(* ---------- the dead-gate-removal property ---------- *)

(* random circuits biased toward zero-controlled / diagonal-on-basis
   structure so QL060 fires often; ≤ 6 qubits keeps the dense check
   cheap *)
let random_lintable_gates rng n depth =
  let gates = ref [] in
  for _ = 1 to depth do
    let q = Qgraph.Rand.int rng n in
    let r = (q + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
    let angle = Qgraph.Rand.float rng (4. *. Float.pi) in
    let g =
      match Qgraph.Rand.int rng 10 with
      | 0 -> Gate.h q
      | 1 -> Gate.x q
      | 2 -> Gate.z q
      | 3 -> Gate.t q
      | 4 -> Gate.rz angle q
      | 5 | 6 -> Gate.cnot q r
      | 7 -> Gate.cz q r
      | 8 -> Gate.rzz angle q r
      | _ -> Gate.swap q r
    in
    gates := g :: !gates
  done;
  List.rev !gates

let property_cases =
  [ qcheck ~count:60 "removing QL060-dead gates preserves the statevector"
      QCheck.(pair (int_range 2 6) (int_bound 0xFFFFFF))
      (fun (n, seed) ->
        let rng = Qgraph.Rand.create (seed + 1) in
        let gates = random_lintable_gates rng n 25 in
        let r = Qflow.Analysis.gates ~n_qubits:n gates in
        let dead = Hashtbl.create 8 in
        List.iter
          (fun (k, _) -> Hashtbl.replace dead k ())
          r.Qflow.Analysis.dead;
        let kept =
          List.filteri (fun i _ -> not (Hashtbl.mem dead i)) gates
        in
        let sv gs =
          Qsim.State.of_vec n
            (Qnum.Vec.of_array (Qgate.Unitary.state_of_gates ~n_qubits:n gs))
        in
        let fid = Qsim.State.fidelity (sv gates) (sv kept) in
        fid > 1. -. 1e-9);
    qcheck ~count:40 "dropping QL062 trailing-diagonal gates preserves output \
                      probabilities"
      QCheck.(pair (int_range 2 5) (int_bound 0xFFFFFF))
      (fun (n, seed) ->
        let rng = Qgraph.Rand.create (seed + 7) in
        let gates = random_lintable_gates rng n 20 in
        let ds = Qlint.Check_semantic.run (Circuit.make n gates) in
        let drop = Hashtbl.create 8 in
        List.iter
          (fun (d : D.t) ->
            if d.D.code = "QL062" then
              match d.D.loc.D.gate_index with
              | Some k -> Hashtbl.replace drop k ()
              | None -> ())
          ds;
        let kept = List.filteri (fun i _ -> not (Hashtbl.mem drop i)) gates in
        let p_all = probabilities_of gates n
        and p_kept = probabilities_of kept n in
        Array.for_all
          (fun ok -> ok)
          (Array.mapi (fun k p -> Float.abs (p -. p_kept.(k)) < 1e-9) p_all)) ]

(* ---------- registry / docs ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let mli_of_family = function
  | "circuit" -> "check_circuit.mli"
  | "gdg" -> "check_gdg.mli"
  | "schedule" -> "check_schedule.mli"
  | "mapping" -> "check_mapping.mli"
  | "aggregation" -> "check_agg.mli"
  | "semantic" -> "check_semantic.mli"
  | "aggop" -> "check_aggop.mli"
  (* DS0xx is emitted by tools/domlint, not a qlint checker; the codes
     are documented where they are registered *)
  | "domain-safety" -> "registry.mli"
  | f -> Alcotest.failf "unknown family %s" f

let registry_cases =
  [ case "codes are unique and sorted" (fun () ->
        let cs =
          List.map (fun (e : Qlint.Registry.entry) -> e.Qlint.Registry.code)
            Qlint.Registry.all
        in
        check_bool "sorted" true (List.sort compare cs = cs);
        check_int "unique" (List.length cs)
          (List.length (List.sort_uniq compare cs)));
    case "every code explains and belongs to a titled family" (fun () ->
        List.iter
          (fun (e : Qlint.Registry.entry) ->
            (match Qlint.Registry.explain e.Qlint.Registry.code with
             | Some _ -> ()
             | None -> Alcotest.failf "no explain for %s" e.Qlint.Registry.code);
            ignore (Qlint.Registry.family_title e.Qlint.Registry.family))
          Qlint.Registry.all;
        check_bool "unknown rejected" true (Qlint.Registry.find "QL999" = None));
    case "every code is documented in its family's .mli" (fun () ->
        List.iter
          (fun (e : Qlint.Registry.entry) ->
            let doc =
              read_file
                (Filename.concat "../lib/qlint"
                   (mli_of_family e.Qlint.Registry.family))
            in
            check_bool e.Qlint.Registry.code true
              (contains ~needle:e.Qlint.Registry.code doc))
          Qlint.Registry.all);
    case "README glossary block is registry-derived" (fun () ->
        let readme = read_file "../README.md" in
        let begin_mark = "<!-- ql-glossary:begin -->\n"
        and end_mark = "<!-- ql-glossary:end -->" in
        let rec find_from i needle =
          if i + String.length needle > String.length readme then
            Alcotest.failf "README marker %s missing" needle
          else if String.sub readme i (String.length needle) = needle then i
          else find_from (i + 1) needle
        in
        let b = find_from 0 begin_mark + String.length begin_mark in
        let e = find_from b end_mark in
        Alcotest.(check string) "glossary in sync"
          (Qlint.Registry.markdown_glossary ())
          (String.sub readme b (e - b))) ]

(* ---------- report determinism + SARIF ---------- *)

let mk ?stage ?insts ?gate_index code severity msg =
  D.make ?stage ?insts ?gate_index ~code ~severity msg

let report_cases =
  [ case "of_list is order-insensitive and dedups exact duplicates" (fun () ->
        let d1 = mk ~stage:"cls" ~insts:[ 3 ] "QL030" D.Error "double-booked"
        and d2 = mk ~stage:"agg" ~insts:[ 1; 2 ] "QL050" D.Error "too wide"
        and d3 = mk ~stage:"input" ~gate_index:4 "QL060" D.Warning "dead"
        and d4 = mk "QL070" D.Info "merge opportunity" in
        let expect =
          Qlint.Report.diagnostics (Qlint.Report.of_list [ d1; d2; d3; d4 ])
        in
        List.iter
          (fun perm ->
            let got = Qlint.Report.diagnostics (Qlint.Report.of_list perm) in
            check_int "length" (List.length expect) (List.length got);
            List.iter2
              (fun (a : D.t) (b : D.t) ->
                check_bool "same order" true (D.equal a b))
              expect got)
          [ [ d4; d3; d2; d1 ];
            [ d2; d1; d4; d3 ];
            [ d1; d1; d2; d2; d3; d4; d4 ] ];
        check_bool "severity first" true
          (match expect with
           | first :: _ -> first.D.code = "QL030"
           | [] -> false));
    case "worst / has_at_least drive the threshold gate" (fun () ->
        let w = Qlint.Report.of_list [ mk "QL060" D.Warning "w" ] in
        check_bool "worst" true (Qlint.Report.worst w = Some D.Warning);
        check_bool "warning trips" true (Qlint.Report.has_at_least D.Warning w);
        check_bool "error does not" false (Qlint.Report.has_at_least D.Error w);
        check_bool "empty" true (Qlint.Report.worst Qlint.Report.empty = None)) ]

let sarif_cases =
  [ case "sarif output is valid 2.1.0 with a registry-derived rule catalog"
      (fun () ->
        let r =
          Qlint.Report.of_list
            [ mk ~stage:"input" ~gate_index:2 "QL060" D.Warning "dead gate";
              mk ~stage:"cls" ~insts:[ 3; 7 ] "QL030" D.Error "double-booked" ]
        in
        let s = Qlint.Sarif.to_string r in
        match Qobs.Json.of_string s with
        | Error e -> Alcotest.failf "sarif does not parse: %s" e
        | Ok j ->
          let str_member k o =
            match Qobs.Json.member k o with
            | Some (Qobs.Json.Str s) -> s
            | _ -> Alcotest.failf "missing %s" k
          in
          Alcotest.(check string) "version" "2.1.0" (str_member "version" j);
          let run0 =
            match Qobs.Json.member "runs" j with
            | Some (Qobs.Json.List [ r ]) -> r
            | _ -> Alcotest.fail "expected one run"
          in
          let driver =
            match
              Option.bind
                (Qobs.Json.member "tool" run0)
                (Qobs.Json.member "driver")
            with
            | Some d -> d
            | None -> Alcotest.fail "no driver"
          in
          (match Qobs.Json.member "rules" driver with
           | Some (Qobs.Json.List rules) ->
             check_int "two rules" 2 (List.length rules)
           | _ -> Alcotest.fail "no rules");
          (match Qobs.Json.member "results" run0 with
           | Some (Qobs.Json.List results) ->
             check_int "two results" 2 (List.length results);
             (match results with
              | first :: _ ->
                Alcotest.(check string) "errors first" "QL030"
                  (str_member "ruleId" first);
                Alcotest.(check string) "level" "error"
                  (str_member "level" first)
              | [] -> Alcotest.fail "empty results")
           | _ -> Alcotest.fail "no results")) ]

let suites =
  [ ("qflow.lattice", lattice_cases);
    ("qflow.transfer", transfer_cases);
    ("qflow.analysis", analysis_cases);
    ("qflow.summary", summary_cases);
    ("qlint.semantic", semantic_cases);
    ("qflow.properties", property_cases);
    ("qlint.registry", registry_cases);
    ("qlint.report", report_cases);
    ("qlint.sarif", sarif_cases) ]
