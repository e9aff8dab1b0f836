(** The pass catalog: every transformation the five strategies compose.

    Each entry bundles the work with its span, lint check and
    certification boundary exactly where the hand-written pipelines had
    them; {!Strategy.passes} picks sequences from this catalog and
    {!Pipeline.run} interprets them. Behavioral variants of a pass
    (serial vs. modeled cost, gate vs. instruction input) are distinct
    catalog entries with distinct fingerprints so the stage cache never
    conflates them, while sharing the span name the paper's terminology
    uses. A strategy is a {!Pass.seq} from the source circuit to a
    scheduled artifact, so the type checker proves its stages line up. *)

module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg

(* ---- cost models, resolved against the backend in the context ---- *)

type cost = Serial | Model

let cost_tag = function Serial -> "serial" | Model -> "model"

let backend_cost = function
  | Serial -> Backend.serial_cost
  | Model -> Backend.block_cost

let cost_fn cost ctx = backend_cost cost ctx.Pass.backend

let topology ctx (l : Ir.lowered) = Backend.topology_for ctx.Pass.backend l.base

let program_gates p = List.concat_map fst (Ir.blocks p)

(* the routed program as one gate stream over the device *)
let flat_circuit ctx (a : Ir.routed) =
  match a.rprogram with
  | Ir.Gates c -> c
  | Ir.Insts _ as p ->
    Circuit.make (Qmap.Topology.n_sites (topology ctx a.l)) (program_gates p)

(* ---- lint boundaries (pure producers; Pipeline checkpoints them) ---- *)

let logical_schedule_diags gdg schedule =
  let groups = Qgdg.Comm_group.build gdg in
  Qlint.Check_schedule.run ~stage:"cls" ~original:gdg
    ~reorderable:(Qgdg.Comm_group.reorderable groups)
    schedule

let aggregate_diags ~width_limit gdg =
  (* diagonal detection may build 2-qubit blocks below any limit *)
  Qlint.Check_agg.run ~stage:"aggregate" ~width_limit:(max width_limit 2) gdg
  @ Qlint.Check_gdg.run ~stage:"aggregate" gdg

(* the last boundary re-checks everything the earlier passes could have
   invalidated: graph structure, block policy, site adjacency and the
   final schedule's legality modulo declared commutations *)
let final_diags ctx (b : Ir.scheduled) =
  let topology = topology ctx b.l in
  let groups = Qgdg.Comm_group.build b.gdg in
  Qlint.Check_gdg.run ~stage:"schedule" b.gdg
  @ Qlint.Check_agg.run ~stage:"schedule"
      ~width_limit:(max ctx.Pass.backend.Backend.width_limit 2)
      b.gdg
  @ Qlint.Check_mapping.check_adjacency ~stage:"schedule" ~topology
      (Ir.blocks (Ir.Insts (Gdg.insts b.gdg)))
  @ Qlint.Check_schedule.run ~stage:"schedule" ~original:b.gdg
      ~reorderable:(Qgdg.Comm_group.reorderable groups)
      b.schedule

(* ---- the passes ---- *)

let lower =
  Pass.make ~name:"lower" ~fingerprint:"lower" ~out:Ir.Lowered
    ~check:(fun _ _ (b : Ir.lowered) ->
      Qlint.Check_circuit.run ~stage:"lower" b.circuit)
    ~certify:
      (Pass.Cert
         (fun _ c src (b : Ir.lowered) ->
           Qcert.Pipeline.lower c ~src ~dst:b.circuit))
    (fun _ src ->
      let base = Qgate.Decompose.to_isa src in
      { Ir.base; circuit = base })

let handopt_pre =
  Pass.make ~name:"handopt-pre" ~fingerprint:"handopt-pre" ~out:Ir.Lowered
    ~check:(fun _ _ (b : Ir.lowered) ->
      Qlint.Check_circuit.run ~stage:"handopt" b.circuit)
    ~certify:
      (Pass.Cert
         (fun _ c (a : Ir.lowered) (b : Ir.lowered) ->
           Qcert.Pipeline.handopt c ~name:"handopt-pre" ~src:a.circuit
             ~dst:b.circuit))
    (fun _ (a : Ir.lowered) ->
      { a with circuit = Handopt.optimize a.circuit })

(* [lint] controls whether the structural check runs here or later: the
   strategies that contract the graph right after building it check once
   after [detect] instead *)
let gdg_of_lowered ~cost ~lint =
  Pass.make ~name:"gdg"
    ~fingerprint:("gdg@lowered:" ^ cost_tag cost)
    ~out:Ir.Gdg_built
    ~note:(fun ctx _ (b : Ir.gdg_built) -> Pass.note_gdg ctx b.gdg)
    ?check:
      (if lint then
         Some
           (fun _ _ (b : Ir.gdg_built) ->
             Qlint.Check_gdg.run ~stage:"gdg" b.gdg)
       else None)
    ~certify:
      (Pass.Cert
         (fun _ c (a : Ir.lowered) (b : Ir.gdg_built) ->
           Qcert.Pipeline.gdg_build c ~name:"gdg" ~circuit:a.circuit
             ~gdg:b.gdg))
    (fun ctx (a : Ir.lowered) ->
      { Ir.l = a;
        gdg = Gdg.of_circuit ~latency:(cost_fn cost ctx) a.circuit;
        merges = 0;
        route = None })

let gdg_of_routed ~cost ~lint =
  Pass.make ~name:"gdg"
    ~fingerprint:("gdg@routed:" ^ cost_tag cost)
    ~out:Ir.Gdg_built
    ~note:(fun ctx _ (b : Ir.gdg_built) -> Pass.note_gdg ctx b.gdg)
    ?check:
      (if lint then
         Some
           (fun _ _ (b : Ir.gdg_built) ->
             Qlint.Check_gdg.run ~stage:"gdg" b.gdg)
       else None)
    ~certify:
      (Pass.Cert
         (fun ctx c (a : Ir.routed) (b : Ir.gdg_built) ->
           Qcert.Pipeline.gdg_build c ~name:"gdg"
             ~circuit:(flat_circuit ctx a) ~gdg:b.gdg))
    (fun ctx (a : Ir.routed) ->
      match a.rprogram with
      | Ir.Gates physical ->
        { Ir.l = a.l;
          gdg = Gdg.of_circuit ~latency:(cost_fn cost ctx) physical;
          merges = a.merges;
          route = Some a.route }
      | Ir.Insts _ -> invalid_arg "Stages.gdg_of_routed: instruction input")

(* Diagonal-block contraction on the commutation oracle's windowed
   scanner: every detection query ticks [detect.checks] plus exactly one
   [detect.route.*] counter (structural / memo / phase_poly / dense /
   oversize, with a matching [.ms] histogram), mirroring the
   [commute.route.*] attribution — [qcc stats] aggregates both and
   checks the partition. *)
let detect ~cost =
  Pass.make ~name:"detect"
    ~fingerprint:("detect:" ^ cost_tag cost)
    ~out:Ir.Gdg_built ~mutates:Pass.In_place
    ~note:(fun ctx (a : Ir.gdg_built) (b : Ir.gdg_built) ->
      Pass.note_int ctx "contractions" (b.merges - a.merges))
    ~check:(fun _ _ (b : Ir.gdg_built) ->
      Qlint.Check_gdg.run ~stage:"gdg" b.gdg)
    ~certify:
      (Pass.Cert_pre
         ( (fun (a : Ir.gdg_built) -> Gdg.insts a.gdg),
           fun _ c before (b : Ir.gdg_built) ->
             Qcert.Pipeline.contraction c ~before ~gdg:b.gdg ))
    (fun ctx (a : Ir.gdg_built) ->
      let n =
        Qgdg.Diagonal.detect_and_contract ~latency:(cost_fn cost ctx) a.gdg
      in
      { a with merges = a.merges + n })

let cls_schedule =
  Pass.make ~name:"cls" ~fingerprint:"cls" ~out:Ir.Scheduled
    ~check:(fun _ _ (b : Ir.scheduled) ->
      logical_schedule_diags b.gdg b.schedule)
    ~certify:
      (Pass.Cert
         (fun _ c _ (b : Ir.scheduled) ->
           Qcert.Pipeline.schedule c ~name:"cls" ~gdg:b.gdg b.schedule))
    (fun _ (a : Ir.gdg_built) ->
      { Ir.l = a.l;
        gdg = a.gdg;
        schedule = Qsched.Cls.schedule a.gdg;
        merges = a.merges;
        route = a.route })

let place_of_lowered =
  Pass.make ~name:"place" ~fingerprint:"place@lowered" ~out:Ir.Placed
    (fun ctx (a : Ir.lowered) ->
      { Ir.l = a;
        placement = Qmap.Placement.initial (topology ctx a) a.circuit;
        program = Ir.Gates a.circuit;
        merges = 0 })

let place_of_scheduled =
  Pass.make ~name:"place" ~fingerprint:"place@scheduled" ~out:Ir.Placed
    (fun ctx (a : Ir.scheduled) ->
      { Ir.l = a.l;
        placement = Qmap.Placement.initial (topology ctx a.l) a.l.circuit;
        program = Ir.Insts (Qsched.Schedule.linearize a.schedule);
        merges = a.merges })

(* relabel instructions to fresh consecutive ids (after routing mixes
   logical instructions with inserted swaps) *)
let renumber insts =
  List.mapi
    (fun id (i : Inst.t) -> Inst.make ~id ~latency:i.Inst.latency i.Inst.gates)
    insts

(* the routing boundary: both the lint and the certifier replay the
   routed block stream against the placed one *)
let route =
  let logical (a : Ir.placed) = List.map fst (Ir.blocks a.program) in
  Pass.make ~name:"route" ~fingerprint:"route" ~out:Ir.Routed
    ~note:(fun ctx _ (b : Ir.routed) ->
      Pass.note_int ctx "swaps" b.route.swaps)
    ~check:(fun ctx (a : Ir.placed) (b : Ir.routed) ->
      Qlint.Check_mapping.run ~stage:"route" ~topology:(topology ctx a.l)
        ~initial:b.route.initial ~final:b.route.final ~logical:(logical a)
        (Ir.blocks b.rprogram))
    ~certify:
      (Pass.Cert
         (fun _ c (a : Ir.placed) (b : Ir.routed) ->
           Qcert.Pipeline.route c ~initial:b.route.initial
             ~final:b.route.final ~logical:(logical a)
             ~routed:(Ir.blocks b.rprogram)))
    (fun ctx (a : Ir.placed) ->
      let topology = topology ctx a.l in
      (* both program shapes count the SWAPs the router builds *)
      let swaps = ref 0 in
      let route_items ~support ~remap ~swap items =
        Qmap.Router.route ~topology ~placement:a.placement ~support ~remap
          ~make_swap:(fun p q ->
            incr swaps;
            swap p q)
          items
      in
      let rprogram, final =
        match a.program with
        | Ir.Gates c ->
          let gates, final =
            route_items ~support:Gate.qubits ~remap:Gate.map_qubits
              ~swap:Gate.swap (Circuit.gates c)
          in
          (Ir.Gates (Circuit.make (Qmap.Topology.n_sites topology) gates),
           final)
        | Ir.Insts insts ->
          let swap_latency =
            Backend.gate_cost ctx.Pass.backend (Gate.swap 0 1)
          in
          let routed, final =
            route_items
              ~support:(fun (i : Inst.t) -> i.Inst.qubits)
              ~remap:(fun f (i : Inst.t) ->
                Inst.make ~id:i.Inst.id ~latency:i.Inst.latency
                  (List.map (Gate.map_qubits f) i.Inst.gates))
              ~swap:(fun p q ->
                Inst.make ~id:(-1) ~latency:swap_latency [ Gate.swap p q ])
              insts
          in
          (Ir.Insts (renumber routed), final)
      in
      { Ir.l = a.l;
        route = { Ir.initial = a.placement; final; swaps = !swaps };
        rprogram;
        merges = a.merges })

(* a second peephole pass over the routed stream (swaps enable new
   cancellations) *)
let handopt_post =
  Pass.make ~name:"handopt-post" ~fingerprint:"handopt-post" ~out:Ir.Routed
    ~check:(fun ctx _ (b : Ir.routed) ->
      Qlint.Check_circuit.run ~stage:"handopt" (flat_circuit ctx b))
    ~certify:
      (Pass.Cert
         (fun ctx c (a : Ir.routed) (b : Ir.routed) ->
           Qcert.Pipeline.handopt c ~name:"handopt-post"
             ~src:(flat_circuit ctx a) ~dst:(flat_circuit ctx b)))
    (fun ctx (a : Ir.routed) ->
      let optimized = Handopt.optimize (flat_circuit ctx a) in
      { a with rprogram = Ir.Gates optimized })

(* both rebuilds: the new graph's linearization is the routed stream's
   word under the dependence relation *)
let rebuild_cert =
  Pass.Cert
    (fun _ c (a : Ir.routed) (b : Ir.gdg_built) ->
      Qcert.Pipeline.rebuild c ~src:(program_gates a.rprogram) ~gdg:b.gdg)

(* expand blocks back to gates so the final schedule recovers gate-level
   overlap; the commutativity gain is already baked into the routed
   order *)
let rebuild_serial =
  Pass.make ~name:"rebuild" ~fingerprint:"rebuild:serial" ~out:Ir.Gdg_built
    ~certify:rebuild_cert
    (fun ctx (a : Ir.routed) ->
      { Ir.l = a.l;
        gdg =
          Gdg.of_circuit ~latency:(cost_fn Serial ctx) (flat_circuit ctx a);
        merges = a.merges;
        route = Some a.route })

(* keep the routed blocks as instructions — aggregation continues from
   the grouping routing preserved *)
let rebuild_insts =
  Pass.make ~name:"rebuild" ~fingerprint:"rebuild:insts" ~out:Ir.Gdg_built
    ~certify:rebuild_cert
    (fun ctx (a : Ir.routed) ->
      match a.rprogram with
      | Ir.Insts insts ->
        let n_sites = Qmap.Topology.n_sites (topology ctx a.l) in
        { Ir.l = a.l;
          gdg = Gdg.of_insts ~n_qubits:n_sites insts;
          merges = a.merges;
          route = Some a.route }
      | Ir.Gates _ -> invalid_arg "Stages.rebuild_insts: gate input")

let aggregate =
  Pass.make ~name:"aggregate" ~fingerprint:"aggregate"
    ~out:Ir.Gdg_built ~mutates:Pass.In_place
    ~note:(fun ctx (a : Ir.gdg_built) (b : Ir.gdg_built) ->
      Pass.note_int ctx "merges" (b.merges - a.merges))
    ~check:(fun ctx _ (b : Ir.gdg_built) ->
      aggregate_diags ~width_limit:ctx.Pass.backend.Backend.width_limit
        b.gdg)
    ~certify:
      (Pass.Cert_pre
         ( (fun (a : Ir.gdg_built) -> Gdg.insts a.gdg),
           fun ctx c before (b : Ir.gdg_built) ->
             Qcert.Pipeline.aggregation c
               ~width_limit:(max ctx.Pass.backend.Backend.width_limit 2)
               ~before ~gdg:b.gdg ))
    (fun ctx (a : Ir.gdg_built) ->
      if Option.is_none a.route then
        invalid_arg "Stages.aggregate: unrouted GDG";
      let stats =
        Qagg.Aggregator.run
          ~width_limit:ctx.Pass.backend.Backend.width_limit
          ~cost:(cost_fn Model ctx) a.gdg
      in
      { a with merges = a.merges + stats.Qagg.Aggregator.merges })

(* the two final-schedule passes share name, hooks and shape; only the
   scheduler differs *)
let final_schedule ~fingerprint ~sched =
  Pass.make ~name:"schedule" ~fingerprint ~out:Ir.Scheduled
    ~check:(fun ctx _ (b : Ir.scheduled) -> final_diags ctx b)
    ~certify:
      (Pass.Cert
         (fun _ c _ (b : Ir.scheduled) ->
           Qcert.Pipeline.schedule c ~name:"schedule" ~gdg:b.gdg b.schedule))
    (fun _ (a : Ir.gdg_built) ->
      { Ir.l = a.l;
        gdg = a.gdg;
        schedule = sched a.gdg;
        merges = a.merges;
        route = a.route })

let asap_final =
  final_schedule ~fingerprint:"schedule:asap@gdg" ~sched:Qsched.Asap.schedule

let cls_final =
  final_schedule ~fingerprint:"schedule:cls@gdg" ~sched:Qsched.Cls.schedule

(* ---- the five strategies as typed pass sequences ---- *)

(* ISA baseline: program order, per-gate pulses, ASAP *)
let isa : (Circuit.t, Ir.scheduled) Pass.seq =
  [ lower; place_of_lowered; route;
    gdg_of_routed ~cost:Serial ~lint:true; asap_final ]

(* commutativity detection + CLS, gates still pulsed individually *)
let cls : (Circuit.t, Ir.scheduled) Pass.seq =
  [ lower; gdg_of_lowered ~cost:Serial ~lint:false; detect ~cost:Serial;
    cls_schedule; place_of_scheduled; route; rebuild_serial; cls_final ]

(* aggregation without commutativity-aware scheduling *)
let aggregation : (Circuit.t, Ir.scheduled) Pass.seq =
  [ lower; place_of_lowered; route; gdg_of_routed ~cost:Model ~lint:false;
    detect ~cost:Model; aggregate; asap_final ]

(* the full pipeline *)
let cls_aggregation : (Circuit.t, Ir.scheduled) Pass.seq =
  [ lower; gdg_of_lowered ~cost:Model ~lint:false; detect ~cost:Model;
    cls_schedule; place_of_scheduled; route; rebuild_insts; aggregate;
    cls_final ]

(* CLS + mechanical hand optimization *)
let cls_hand : (Circuit.t, Ir.scheduled) Pass.seq =
  [ lower; handopt_pre; gdg_of_lowered ~cost:Serial ~lint:true; cls_schedule;
    place_of_scheduled; route; handopt_post; rebuild_serial; cls_final ]
