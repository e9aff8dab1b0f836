(* A full hybrid variational loop with partial compilation.

   QAOA and VQE re-run the same circuit structure with new angles on
   every optimizer step; recompiling from scratch each time is the
   compile-time problem the paper's §9 raises, and partial compilation is
   its proposed answer. This example optimizes the (γ, β) angles of a
   6-vertex ring MAXCUT QAOA with Nelder–Mead, rebinding the angles of
   the *already aggregated* schedule at each step (Qcc.Partial), and
   compares the cost of a rebind against a from-scratch compile.

     dune exec examples/variational_loop.exe *)

module Compiler = Qcc.Compiler
module Backend = Qcc.Backend
module State = Qsim.State

let () =
  let n = 6 in
  let graph =
    Qgraph.Graph.of_edges n (List.init n (fun k -> (k, (k + 1) mod n)))
  in
  let config =
    { Backend.default with
      Backend.topology = Some (Qmap.Topology.line n) }
  in
  (* one full compilation fixes the instruction structure and mapping *)
  let t0 = Sys.time () in
  let base =
    Compiler.compile ~config ~strategy:Qcc.Strategy.Cls_aggregation
      (Qapps.Qaoa.circuit graph)
  in
  let full_compile_time = Sys.time () -. t0 in

  (* the measurement side: expected cut of the compiled program's output *)
  let site_graph =
    Qgraph.Graph.of_edges n
      (List.map
         (fun (u, v, _) ->
           ( Qmap.Placement.site_of base.Compiler.final_placement u,
             Qmap.Placement.site_of base.Compiler.final_placement v ))
         (Qgraph.Graph.edges graph))
  in
  let rebind_time = ref 0. in
  let expected_cut gamma beta =
    let t0 = Sys.time () in
    let r = Qcc.Partial.rebind_rotations ~config base ~gamma ~beta in
    rebind_time := !rebind_time +. (Sys.time () -. t0);
    let circuit = Qgate.Circuit.make n (List.concat (Compiler.blocks r)) in
    let st = State.apply_circuit (State.zero n) circuit in
    Qapps.Qaoa.cut_expectation site_graph (State.probability st)
  in

  let objective x = -.expected_cut x.(0) x.(1) in
  let result =
    Qopt.Nelder_mead.minimize ~max_iterations:120 ~tolerance:1e-6
      ~f:objective [| 0.5; 0.5 |]
  in
  let gamma = result.Qopt.Nelder_mead.x.(0)
  and beta = result.Qopt.Nelder_mead.x.(1) in
  let best = -.result.Qopt.Nelder_mead.value in
  let optimal, _ = Qapps.Graphs.max_cut_brute_force graph in

  Printf.printf "optimized angles: gamma = %.4f, beta = %.4f\n" gamma beta;
  Printf.printf "expected cut %.3f of optimal %.1f (ratio %.3f)\n" best optimal
    (best /. optimal);
  Printf.printf "optimizer: %d evaluations in %d iterations (converged %b)\n"
    result.Qopt.Nelder_mead.evaluations result.Qopt.Nelder_mead.iterations
    result.Qopt.Nelder_mead.converged;
  let final = Qcc.Partial.rebind_rotations ~config base ~gamma ~beta in
  Printf.printf "final schedule latency: %.1f ns (%d aggregated instructions)\n"
    final.Compiler.latency final.Compiler.n_instructions;
  Printf.printf
    "partial compilation: %.1f ms per rebind vs %.1f ms full compile (%.0fx)\n"
    (1000. *. !rebind_time /. float_of_int result.Qopt.Nelder_mead.evaluations)
    (1000. *. full_compile_time)
    (full_compile_time
    /. (!rebind_time /. float_of_int result.Qopt.Nelder_mead.evaluations))
