(* Quickstart: compile a small circuit under every strategy.

   Builds the paper's Fig. 4 example (QAOA for MAXCUT on a triangle,
   mapped to a 3-qubit line), compiles it five ways and prints the pulse
   latencies, then shows the aggregated instructions the full pipeline
   produced.

     dune exec examples/quickstart.exe *)

let () =
  let circuit = Qapps.Qaoa.triangle_example () in
  Printf.printf "input circuit: %d qubits, %d gates\n"
    (Qgate.Circuit.n_qubits circuit)
    (Qgate.Circuit.n_gates circuit);
  List.iter
    (fun g -> Printf.printf "  %s\n" (Qgate.Gate.to_string g))
    (Qgate.Circuit.gates circuit);

  let config =
    { Qcc.Backend.default with
      Qcc.Backend.topology = Some (Qmap.Topology.line 3) }
  in
  let results = Qcc.Compiler.compile_all ~config circuit in
  let isa = List.assoc Qcc.Strategy.Isa results in

  Printf.printf "\n%-18s %12s %10s %8s\n" "strategy" "latency (ns)" "speedup"
    "blocks";
  List.iter
    (fun (s, r) ->
      Printf.printf "%-18s %12.1f %9.2fx %8d\n" (Qcc.Strategy.to_string s)
        r.Qcc.Compiler.latency
        (Qcc.Compiler.speedup ~baseline:isa r)
        r.Qcc.Compiler.n_instructions)
    results;

  let agg = List.assoc Qcc.Strategy.Cls_aggregation results in
  Printf.printf
    "\naggregated instructions of the full pipeline (paper Fig. 4(b)):\n";
  List.iteri
    (fun k block ->
      Printf.printf "  G%d: %s\n" (k + 1)
        (String.concat "; " (List.map Qgate.Gate.to_string block)))
    (Qcc.Compiler.blocks agg);

  Printf.printf
    "\npaper reference: gate-based 381.9 ns, aggregated 128.3 ns (2.97x)\n"
