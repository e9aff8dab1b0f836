(* tests for topologies, placement and routing *)

open Qmap
open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit

(* the placement lint finds nothing *)
let consistent topology p = Qlint.Check_mapping.check_placement ~topology p = []

let respects_topology topology c =
  List.for_all (Router.gate_respects_topology ~topology) (Circuit.gates c)

let topology_cases =
  [ case "line connectivity" (fun () ->
        let t = Topology.line 5 in
        check_bool "adjacent" true (Topology.connected t 2 3);
        check_bool "not adjacent" false (Topology.connected t 0 2));
    case "full connectivity" (fun () ->
        let t = Topology.full 4 in
        check_bool "any pair" true (Topology.connected t 0 3);
        check_bool "not self" false (Topology.connected t 1 1));
    case "grid_for covers" (fun () ->
        let t = Topology.grid_for 7 in
        check_bool "enough sites" true (Topology.n_sites t >= 7));
    case "path endpoints and adjacency" (fun () ->
        let t = Topology.grid_for 9 in
        let p = Topology.path t 0 8 in
        check_int "starts at 0" 0 (List.hd p);
        check_int "ends at 8" 8 (List.nth p (List.length p - 1));
        let rec steps = function
          | a :: (b :: _ as rest) ->
            check_bool "each hop adjacent" true (Topology.connected t a b);
            steps rest
          | _ -> ()
        in
        steps p);
    case "distance on line" (fun () ->
        check_int "0 to 4" 4 (Topology.distance (Topology.line 5) 0 4)) ]

let placement_cases =
  [ case "identity placement" (fun () ->
        let p = Placement.identity ~n_logical:3 (Topology.line 5) in
        check_int "q1 on site 1" 1 (Placement.site_of p 1);
        check_bool "consistent" true (consistent (Topology.line 5) p);
        check_bool "site 4 empty" true (Placement.logical_at p 4 = None));
    case "too small device raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Placement.identity: device too small") (fun () ->
            ignore (Placement.identity ~n_logical:5 (Topology.line 3))));
    case "initial placement is a valid assignment" (fun () ->
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let topology = Topology.grid_for 20 in
        let p = Placement.initial topology circuit in
        check_bool "consistent" true (consistent topology p));
    case "initial placement puts interacting qubits close" (fun () ->
        (* a line interaction graph placed on a grid: average distance of
           interacting pairs must be far below random placement (~3.0) *)
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let topo = Topology.grid_for 20 in
        let p = Placement.initial topo circuit in
        let interaction = Circuit.interaction_graph circuit in
        let dists =
          List.map
            (fun (u, v, _) ->
              float_of_int
                (Topology.distance topo (Placement.site_of p u) (Placement.site_of p v)))
            (Qgraph.Graph.edges interaction)
        in
        let mean = List.fold_left ( +. ) 0. dists /. float_of_int (List.length dists) in
        check_bool "mean distance < 1.7" true (mean < 1.7));
    case "apply_swap exchanges occupants" (fun () ->
        let p = Placement.identity ~n_logical:2 (Topology.line 3) in
        let p = Placement.apply_swap p 0 2 in
        check_int "q0 moved" 2 (Placement.site_of p 0);
        check_bool "consistent" true (consistent (Topology.line 3) p);
        check_bool "site 0 now empty" true (Placement.logical_at p 0 = None));
    case "snake order visits adjacent cells" (fun () ->
        let topo = Topology.grid_for 9 in
        let order = Placement.site_order topo in
        let g = Topology.graph topo in
        for k = 0 to Array.length order - 2 do
          check_bool "consecutive adjacent" true
            (Qgraph.Graph.has_edge g order.(k) order.(k + 1))
        done) ]

let router_cases =
  [ case "already-local circuit unchanged" (fun () ->
        let c = Circuit.make 3 [ Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let placement = Placement.identity ~n_logical:3 (Topology.line 3) in
        let routed, _ = Router.route_circuit ~placement ~topology:(Topology.line 3) c in
        check_int "no swaps" 2 (Circuit.n_gates routed));
    case "inserts swaps for distant pair" (fun () ->
        let c = Circuit.make 4 [ Gate.cnot 0 3 ] in
        let placement = Placement.identity ~n_logical:4 (Topology.line 4) in
        let routed, final = Router.route_circuit ~placement ~topology:(Topology.line 4) c in
        check_bool "swaps added" true (Circuit.n_gates routed > 1);
        check_bool "topology respected" true
          (respects_topology (Topology.line 4) routed);
        check_bool "final placement consistent" true
          (consistent (Topology.line 4) final));
    case "routing preserves semantics up to final placement" (fun () ->
        (* undo the final permutation with swaps and compare unitaries *)
        let c =
          Circuit.make 4
            [ Gate.h 0; Gate.cnot 0 3; Gate.rz 0.7 3; Gate.cnot 1 2; Gate.cnot 0 2 ]
        in
        let topology = Topology.line 4 in
        let placement = Placement.identity ~n_logical:4 topology in
        let routed, final = Router.route_circuit ~placement ~topology c in
        (* routed = P . logical, with P the permutation sending logical
           qubit q's bit to its final site *)
        let perm = Array.init 4 (fun q -> Placement.site_of final q) in
        let remap idx =
          let out = ref 0 in
          for q = 0 to 3 do
            if (idx lsr (3 - q)) land 1 = 1 then
              out := !out lor (1 lsl (3 - perm.(q)))
          done;
          !out
        in
        let p =
          Qnum.Cmat.init 16 16 (fun r c ->
              if r = remap c then Qnum.Cx.one else Qnum.Cx.zero)
        in
        let u_routed = Circuit.unitary routed in
        let u_expected = Qnum.Cmat.mul p (Circuit.unitary c) in
        check_mat_phase ~eps:1e-8 "semantics" u_expected u_routed);
    case "full topology never inserts swaps" (fun () ->
        let c = Circuit.make 5 [ Gate.cnot 0 4; Gate.cnot 1 3 ] in
        let routed, _ = Router.route_circuit ~topology:(Topology.full 5) c in
        check_int "same gates" 2 (Circuit.n_gates routed));
    case "benchmark circuit routes onto grid" (fun () ->
        let c = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-cluster") in
        let topology = Topology.grid_for 30 in
        let routed, _ = Router.route_circuit ~topology c in
        check_bool "respects topology" true
          (respects_topology topology routed));
    qcheck ~count:20 "random circuits route validly onto lines"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 5 12 in
        let c = Circuit.make 5 gates in
        let topology = Topology.line 5 in
        let routed, final = Router.route_circuit ~topology c in
        respects_topology topology routed && consistent topology final) ]

let suites =
  [ ("qmap.topology", topology_cases);
    ("qmap.placement", placement_cases);
    ("qmap.router", router_cases) ]
