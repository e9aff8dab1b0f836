(* Paper-evaluation harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 5 for the experiment index),
   the ablations and the certification-overhead table. Timing, per-pass
   attribution and domain-pool scaling are measured by bench/measure
   (run.sh), not here.

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe fig9 fig10  -- selected experiments *)

module Gate = Qgate.Gate
module Compiler = Qcc.Compiler
module Backend = Qcc.Backend
module Strategy = Qcc.Strategy

let device = Qcontrol.Device.default

let header title = Printf.printf "\n==== %s ====\n%!" title
let gate_time g = Qcontrol.Latency_model.gate_time device g
let block_time gs = Qcontrol.Latency_model.block_time device gs

(* ------------------------------------------------------------------ *)
(* Table 1: instruction execution times for the QAOA example           *)

let gamma = Qapps.Qaoa.default_gamma
let beta = Qapps.Qaoa.default_beta

let table1 () =
  header "Table 1: instruction pulse times (ns) for the Fig. 4 QAOA circuit";
  let rows_gates =
    [ ("CNOT", gate_time (Gate.cnot 0 1), 47.1);
      ("SWAP", gate_time (Gate.swap 0 1), 50.1);
      ("H", gate_time (Gate.h 0), 13.7);
      (Printf.sprintf "Rz(%.2f)" gamma, gate_time (Gate.rz gamma 0), 9.8);
      (Printf.sprintf "Rx(%.2f)" beta, gate_time (Gate.rx beta 0), 6.1) ]
  in
  let zz a b = [ Gate.cnot a b; Gate.rz gamma b; Gate.cnot a b ] in
  let rows_aggregates =
    [ ("G1 = H,H + CNOT-Rz-CNOT",
       block_time ([ Gate.h 0; Gate.h 1 ] @ zz 0 1), 54.9);
      ("G2 = H", block_time [ Gate.h 0 ], 13.7);
      ("G3 = SWAP + CNOT-Rz-CNOT",
       block_time (Gate.swap 1 2 :: zz 0 1), 42.0);
      ("G4 = CNOT-Rz-CNOT", block_time (zz 0 1), 31.4);
      ("G5 = Rx", block_time [ Gate.rx beta 0 ], 6.1) ]
  in
  Printf.printf "%-28s %10s %10s\n" "instruction" "model" "paper";
  List.iter
    (fun (name, ours, paper) ->
      Printf.printf "%-28s %10.1f %10.1f\n" name ours paper)
    (rows_gates @ rows_aggregates);
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Fig. 4: the 3-qubit QAOA example end to end                         *)

let fig4 () =
  header "Fig. 4: QAOA triangle on a 3-qubit line";
  let circuit = Qapps.Qaoa.triangle_example () in
  let config =
    { Backend.default with
      Backend.topology = Some (Qmap.Topology.line 3) }
  in
  let results = Compiler.compile_all ~config circuit in
  List.iter
    (fun (s, r) ->
      Printf.printf "  %-16s %8.1f ns\n" (Strategy.to_string s)
        r.Compiler.latency)
    results;
  let isa = List.assoc Strategy.Isa results in
  let agg = List.assoc Strategy.Cls_aggregation results in
  Printf.printf
    "  gate-based %.1f vs aggregated %.1f: speedup %.2fx (paper: 381.9 vs 128.3 = 2.97x)\n%!"
    isa.Compiler.latency agg.Compiler.latency
    (Compiler.speedup ~baseline:isa agg)

(* ------------------------------------------------------------------ *)
(* Fig. 4(c,d): pulses for the diagonal block                          *)

let fig4_pulses () =
  header "Fig. 4(c,d): pulses for the CNOT-Rz-CNOT block (G4-style)";
  let zz = [ Gate.cnot 0 1; Gate.rz gamma 1; Gate.cnot 0 1 ] in
  let gate_based = Qcontrol.Latency_model.isa_critical_path device zz in
  let optimized = block_time zz in
  Printf.printf
    "  gate-based concatenation: %.1f ns; aggregated model: %.1f ns\n"
    gate_based optimized;
  let _, target = Qgate.Unitary.on_support zz in
  let duration = optimized *. 1.3 in
  let problem =
    { Qcontrol.Grape.n_qubits = 2;
      couplings = [ (0, 1) ];
      target;
      duration;
      n_steps = 40;
      device }
  in
  let r = Qcontrol.Grape.optimize ~target_fidelity:0.99 problem in
  Printf.printf "  GRAPE at %.1f ns: fidelity %.4f after %d iterations\n"
    duration r.Qcontrol.Grape.fidelity r.Qcontrol.Grape.iterations;
  Format.printf "%a@." Qcontrol.Pulse.pp r.Qcontrol.Grape.pulse;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Table 3: benchmarks and program characteristics                     *)

let table3 () =
  header "Table 3: benchmark characteristics";
  Printf.printf "%-15s %-12s %6s %6s %6s %6s %12s %12s %12s\n" "benchmark"
    "application" "paperQ" "ourQ" "gates" "depth" "parallel" "locality"
    "commute";
  List.iter
    (fun (b : Qapps.Suite.benchmark) ->
      let circuit = Qapps.Suite.lowered b in
      let c = Qapps.Characteristics.analyze circuit in
      let lv v l =
        Printf.sprintf "%.2f/%s" v (Qapps.Characteristics.level_to_string l)
      in
      Printf.printf "%-15s %-12s %6d %6d %6d %6d %12s %12s %12s\n%!"
        b.Qapps.Suite.name b.Qapps.Suite.application b.Qapps.Suite.paper_qubits
        c.Qapps.Characteristics.qubits c.Qapps.Characteristics.gates
        c.Qapps.Characteristics.depth
        (lv c.Qapps.Characteristics.parallelism
           c.Qapps.Characteristics.parallelism_level)
        (lv c.Qapps.Characteristics.spatial_locality
           c.Qapps.Characteristics.spatial_locality_level)
        (lv c.Qapps.Characteristics.commutativity
           c.Qapps.Characteristics.commutativity_level))
    Qapps.Suite.all

(* ------------------------------------------------------------------ *)
(* Fig. 9: normalized latency across the suite                         *)

let results_cache : (string, (Strategy.t * Compiler.result) list) Hashtbl.t =
  Hashtbl.create 16

let compile_benchmark (b : Qapps.Suite.benchmark) =
  match Hashtbl.find_opt results_cache b.Qapps.Suite.name with
  | Some r -> r
  | None ->
    let circuit = Qapps.Suite.lowered b in
    let r = Compiler.compile_all circuit in
    Hashtbl.replace results_cache b.Qapps.Suite.name r;
    r

let fig9 () =
  header "Fig. 9: normalized circuit latency (ISA = 1.0)";
  let rows =
    List.map
      (fun (b : Qapps.Suite.benchmark) ->
        Printf.printf "  compiling %s...\n%!" b.Qapps.Suite.name;
        (b.Qapps.Suite.name, compile_benchmark b))
      Qapps.Suite.all
  in
  Qcc.Report.print_speedup_table
    ~header:"(the 9 Fig. 9 benchmarks)"
    (List.filter (fun (n, _) -> n <> "ising-n60") rows);
  Printf.printf "\nall 10 Table 3 instances (including ising-n60):\n";
  Qcc.Report.print_speedup_table ~header:"" rows;
  Printf.printf
    "paper: geomean speedup 5.07x (cls+aggregation), 2.338x (cls+hand), max ~10x\n\
     note: our ISA baseline schedules the generated program order, which is\n\
     more serial than ScaffCC's for QAOA-family circuits; per-stage ratios\n\
     (CLS vs ISA, aggregation vs CLS) are the comparable quantities -- see\n\
     EXPERIMENTS.md.\n%!"

(* ------------------------------------------------------------------ *)
(* Fig. 10: allowed instruction width vs normalized latency            *)

let fig10 () =
  header "Fig. 10: instruction width vs normalized latency (cls+aggregation)";
  let widths = [ 2; 4; 6; 8; 10 ] in
  let sweep name =
    let b = Qapps.Suite.find name in
    let circuit = Qapps.Suite.lowered b in
    let isa = Compiler.compile ~strategy:Strategy.Isa circuit in
    let norms =
      List.map
        (fun w ->
          let config =
            { Backend.default with Backend.width_limit = w }
          in
          let r =
            Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit
          in
          r.Compiler.latency /. isa.Compiler.latency)
        widths
    in
    Printf.printf "  %-14s" name;
    List.iter (fun v -> Printf.printf " %8.3f" v) norms;
    Printf.printf "\n%!"
  in
  Printf.printf "  %-14s" "width:";
  List.iter (fun w -> Printf.printf " %8d" w) widths;
  Printf.printf "\n  parallel applications (expected: early saturation):\n";
  List.iter sweep [ "maxcut-line"; "maxcut-reg4"; "ising-n30" ];
  Printf.printf "  serialized applications (expected: gains up to width 10):\n";
  List.iter sweep [ "sqrt-n3"; "uccsd-n4"; "uccsd-n6" ]

(* ------------------------------------------------------------------ *)
(* Fig. 11: spatial locality vs aggregation benefit                    *)

let fig11 () =
  header "Fig. 11: aggregated latency normalized to CLS (3 MAXCUT instances)";
  Printf.printf
    "  paper trend: high locality (line) benefits least, low locality\n  (cluster) benefits most\n";
  List.iter
    (fun name ->
      let results = compile_benchmark (Qapps.Suite.find name) in
      let cls = List.assoc Strategy.Cls results in
      let agg = List.assoc Strategy.Cls_aggregation results in
      Printf.printf "  %-16s %.3f\n%!" name
        (agg.Compiler.latency /. cls.Compiler.latency))
    [ "maxcut-line"; "maxcut-reg4"; "maxcut-cluster" ]

(* ------------------------------------------------------------------ *)
(* Sec. 6.4: encoding complexity vs advantage over hand optimization   *)

let sec64 () =
  header "Sec. 6.4: latency-reduction ratio, aggregation vs hand optimization";
  Printf.printf
    "  (reduction = ISA latency - strategy latency; paper: ~1x for\n  MAXCUT-line, 3.12x for UCCSD-n4, 3.68x for square root)\n";
  List.iter
    (fun name ->
      let results = compile_benchmark (Qapps.Suite.find name) in
      let isa = (List.assoc Strategy.Isa results).Compiler.latency in
      let agg =
        (List.assoc Strategy.Cls_aggregation results).Compiler.latency
      in
      let hand = (List.assoc Strategy.Cls_hand results).Compiler.latency in
      let ratio = (isa -. agg) /. Float.max 1e-9 (isa -. hand) in
      Printf.printf "  %-16s %.2fx\n%!" name ratio)
    [ "maxcut-line"; "uccsd-n4"; "sqrt-n3" ]

(* ------------------------------------------------------------------ *)
(* Sec. 3.6: verification of sampled aggregated instructions           *)

let verify () =
  header "Sec. 3.6: verification of sampled aggregated instructions";
  let rng = Qgraph.Rand.create 2025 in
  (* pulse-level verification (GRAPE) on 2-qubit diagonal blocks: compile
     maxcut-line at width 2 so the aggregates are exactly the paper's
     Sec. 4.2 diagonal blocks *)
  let narrow =
    Compiler.compile
      ~config:{ Backend.default with Backend.width_limit = 2 }
      ~strategy:Strategy.Cls_aggregation
      (Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line"))
  in
  let two_qubit_blocks =
    List.filter
      (fun block ->
        List.length
          (List.sort_uniq compare (List.concat_map Gate.qubits block))
        = 2)
      (Compiler.blocks narrow)
  in
  let report =
    Qsim.Verify.verify_sampled ~samples:3 ~max_pulse_width:2 rng device
      two_qubit_blocks
  in
  Format.printf "  maxcut-line (width 2): @[<v>%a@]@." Qsim.Verify.pp_report
    report;
  (* unitary-level verification across the rest *)
  List.iter
    (fun name ->
      let results = compile_benchmark (Qapps.Suite.find name) in
      let agg = List.assoc Strategy.Cls_aggregation results in
      let report =
        Qsim.Verify.verify_sampled ~samples:10 ~max_pulse_width:0 rng device
          (Compiler.blocks agg)
      in
      Printf.printf "  %-16s unitary check: %d/%d ok\n%!" name
        report.Qsim.Verify.n_passed report.Qsim.Verify.n_checked)
    [ "maxcut-line"; "ising-n30"; "maxcut-cluster" ]

(* ------------------------------------------------------------------ *)
(* Latency -> fidelity: the paper's motivating claim, quantified       *)

let fidelity () =
  header "Fidelity: output fidelity under T1/T2 decoherence (Sec. 1 claim)";
  let graph =
    Qgraph.Graph.of_edges 6 (List.init 6 (fun k -> (k, (k + 1) mod 6)))
  in
  let circuit = Qapps.Qaoa.circuit ~gamma:0.4 ~beta:1.2 graph in
  let config =
    { Backend.default with
      Backend.topology = Some (Qmap.Topology.line 6) }
  in
  let noise = Qsim.Noisy_sim.default_noise in
  Printf.printf
    "  QAOA on a 6-ring, line device, T1 = %.0f ns, T2 = %.0f ns\n"
    noise.Qsim.Noisy_sim.t1 noise.Qsim.Noisy_sim.t2;
  Printf.printf "  %-18s %12s %10s %10s\n" "strategy" "latency (ns)"
    "fidelity" "analytic";
  List.iter
    (fun (s, (r : Compiler.result)) ->
      let f = Qsim.Noisy_sim.schedule_fidelity ~noise r.Compiler.schedule in
      Printf.printf "  %-18s %12.1f %10.4f %10.4f\n%!" (Strategy.to_string s)
        r.Compiler.latency f
        (Qsim.Noisy_sim.survival_estimate ~noise ~n_qubits:6
           r.Compiler.latency))
    (Compiler.compile_all ~config circuit);
  Printf.printf
    "  latency reduction converts directly into output fidelity -- the\n  paper's do-or-die argument for pulse-level compilation.\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)

let ablations () =
  header "Ablation: monotonicity bound (paper's serial pessimism vs model cost)";
  let cost gs = block_time gs in
  List.iter
    (fun name ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let run pessimism =
        let g = Qgdg.Gdg.of_circuit ~latency:cost circuit in
        ignore (Qgdg.Diagonal.detect_and_contract ~latency:cost g);
        let stats = Qagg.Aggregator.run ~pessimism ~cost g in
        stats.Qagg.Aggregator.final_makespan
      in
      Printf.printf "  %-14s serial %10.1f ns | model %10.1f ns\n%!" name
        (run `Serial) (run `Model))
    [ "maxcut-line"; "uccsd-n4"; "sqrt-n3" ];

  header "Ablation: initial placement (recursive bisection vs identity)";
  List.iter
    (fun name ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let topology = Qmap.Topology.grid_for (Qgate.Circuit.n_qubits circuit) in
      let swaps placement =
        let routed, _ = Qmap.Router.route_circuit ?placement ~topology circuit in
        Qgate.Circuit.count (fun g -> g.Gate.kind = Gate.Swap) routed
      in
      let identity =
        Qmap.Placement.identity
          ~n_logical:(Qgate.Circuit.n_qubits circuit) topology
      in
      Printf.printf "  %-14s bisection %5d swaps | identity %5d swaps\n%!"
        name (swaps None) (swaps (Some identity)))
    [ "maxcut-reg4"; "maxcut-cluster"; "sqrt-n3" ];

  header "Ablation: physical architecture (paper Appendix A)";
  Printf.printf "  cls+aggregation latency of the Fig. 4 example per coupling:\n";
  let circuit = Qapps.Qaoa.triangle_example () in
  List.iter
    (fun interaction ->
      let config =
        { Backend.default with
          Backend.device =
            Qcontrol.Device.with_interaction interaction Qcontrol.Device.default;
          topology = Some (Qmap.Topology.line 3) }
      in
      let isa = Compiler.compile ~config ~strategy:Strategy.Isa circuit in
      let agg =
        Compiler.compile ~config ~strategy:Strategy.Cls_aggregation circuit
      in
      Printf.printf "  %-45s isa %8.1f ns | cls+agg %8.1f ns (%.2fx)\n%!"
        (Qcontrol.Device.interaction_name interaction)
        isa.Compiler.latency agg.Compiler.latency
        (Compiler.speedup ~baseline:isa agg))
    [ Qcontrol.Device.Xy; Qcontrol.Device.Zz; Qcontrol.Device.Heisenberg ];

  header "Ablation: fermion encoding (Sec. 5.2: Jordan-Wigner vs Bravyi-Kitaev)";
  List.iter
    (fun n ->
      let run encoding =
        let circuit =
          Qgate.Decompose.to_isa (Qapps.Uccsd.circuit ~encoding n)
        in
        let isa = Compiler.compile ~strategy:Strategy.Isa circuit in
        let agg =
          Compiler.compile ~strategy:Strategy.Cls_aggregation circuit
        in
        (Qgate.Circuit.n_gates circuit, isa.Compiler.latency,
         agg.Compiler.latency)
      in
      let jw_g, jw_isa, jw_agg = run Qapps.Fermion.Jordan_wigner in
      let bk_g, bk_isa, bk_agg = run Qapps.Fermion.Bravyi_kitaev in
      Printf.printf
        "  uccsd-n%d  JW: %4d gates, isa %8.1f, cls+agg %8.1f (%.2fx) | BK: %4d gates, isa %8.1f, cls+agg %8.1f (%.2fx)\n%!"
        n jw_g jw_isa jw_agg (jw_isa /. jw_agg) bk_g bk_isa bk_agg
        (bk_isa /. bk_agg))
    [ 4; 6 ];

  header "Ablation: commutativity detection off (aggregation on raw gates)";
  List.iter
    (fun name ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
      let with_detection detect =
        let g = Qgdg.Gdg.of_circuit ~latency:cost circuit in
        if detect then
          ignore (Qgdg.Diagonal.detect_and_contract ~latency:cost g);
        ignore (Qagg.Aggregator.run ~cost g);
        Qsched.Cls.makespan g
      in
      Printf.printf "  %-14s with detection %10.1f ns | without %10.1f ns\n%!"
        name (with_detection true) (with_detection false))
    [ "maxcut-line"; "ising-n30" ]

(* ------------------------------------------------------------------ *)
(* Certification overhead: plain vs certified compile of each cell     *)

let certify_overhead () =
  header
    "Certification overhead: plain compile vs ~certify:true, per strategy";
  List.iter
    (fun bench ->
      let circuit = Qapps.Suite.lowered (Qapps.Suite.find bench) in
      List.iter
        (fun strategy ->
          (* both compiles start from cold memos: otherwise the certified
             one reuses the commutation and latency memos the plain one
             warmed, and the ratio understates certification cost *)
          Compiler.reset_all_memos ();
          let t0 = Qobs.Clock.now_ns () in
          ignore (Compiler.compile ~strategy circuit);
          let plain = Qobs.Clock.now_ns () -. t0 in
          Compiler.reset_all_memos ();
          let t1 = Qobs.Clock.now_ns () in
          let r = Compiler.compile ~certify:true ~strategy circuit in
          let certified = Qobs.Clock.now_ns () -. t1 in
          let facts =
            match r.Compiler.certificate with
            | Some c -> c.Qcert.Certificate.facts
            | None -> 0
          in
          Printf.printf
            "  %-14s %-16s plain %8.1f ms | certified %8.1f ms (%5.1fx) | %6d facts\n%!"
            bench
            (Strategy.to_string strategy)
            (plain /. 1e6) (certified /. 1e6)
            (certified /. plain) facts)
        Strategy.all)
    [ "maxcut-line"; "ising-n30"; "uccsd-n4" ]

let experiments =
  [ ("table1", table1);
    ("fig4", fig4);
    ("fig4_pulses", fig4_pulses);
    ("table3", table3);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("sec64", sec64);
    ("verify", verify);
    ("fidelity", fidelity);
    ("ablations", ablations);
    ("certify-overhead", certify_overhead) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested
