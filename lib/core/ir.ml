(** Typed stage artifacts flowing through the pass manager.

    Each artifact records everything downstream passes may need, so a
    pass is a pure function from one artifact to the next and the driver
    ({!Pipeline}) never has to thread loose tuples around. Artifacts
    accumulate context as compilation proceeds: the lowered circuit rides
    along from [lowered] to [costed] (the end-to-end certifier needs it),
    merge counts survive scheduling and routing, and the route survives
    rebuilds and aggregation.

    Composition is a type fact: a pass is an [('a, 'b) Pass.t] and a
    strategy a {!Pass.seq} from [Circuit.t] to {!scheduled}, so a
    sequence whose stages do not line up does not compile. The GADT
    {!stage} names a pass's output type at the value level for the one
    place types are erased at run time — the stage cache, which types a
    hit via {!equal_stage} and copies a mutable input via {!clone}. *)

module Circuit = Qgate.Circuit
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg

(** What routing established: where logical qubits started, where they
    ended up, and how many SWAPs the router paid. *)
type route_info = {
  initial : Qmap.Placement.t;
  final : Qmap.Placement.t;
  swaps : int;
}

(** Output of lowering. [base] is the circuit as lowered to the ISA and
    never changes afterwards (the topology default and the end-to-end
    certificate are derived from it); [circuit] is the current gate
    stream, which peephole passes ([handopt-pre]) may replace. *)
type lowered = { base : Circuit.t; circuit : Circuit.t }

(** The two program representations that flow into placement/routing: a
    plain gate stream, or a linearized instruction stream whose grouping
    must survive routing. *)
type program = Gates of Circuit.t | Insts of Inst.t list

(** The program as a block stream — a gate stream is a stream of
    singleton blocks — each block paired with its instruction id, which
    only instruction streams have. The routing boundary's lint and
    certifier, and every pass that flattens a program, read this one
    shape. *)
let blocks = function
  | Gates c -> List.map (fun g -> ([ g ], None)) (Circuit.gates c)
  | Insts insts ->
    List.map (fun (i : Inst.t) -> (i.Inst.gates, Some i.Inst.id)) insts

(** A dependence graph (plus the contractions performed so far) —
    [route] is [Some] once the gates in the graph are physical. Both
    in-place passes, [detect] and [aggregate], map this artifact to
    itself; [aggregate] requires the route. *)
type gdg_built = {
  l : lowered;
  gdg : Gdg.t;
  merges : int;
  route : route_info option;
}

type placed = {
  l : lowered;
  placement : Qmap.Placement.t;
  program : program;
  merges : int;
}

type routed = {
  l : lowered;
  route : route_info;
  rprogram : program;  (** the program, rewritten over device sites *)
  merges : int;
}

type scheduled = {
  l : lowered;
  gdg : Gdg.t;
  schedule : Qsched.Schedule.t;
  merges : int;
  route : route_info option;
}

(** The final artifact the driver returns: a routed, scheduled program
    with its headline cost. It is {!Pipeline.run}'s result, not a stage:
    no pass consumes or produces it. *)
type costed = {
  l : lowered;
  gdg : Gdg.t;
  schedule : Qsched.Schedule.t;
  latency : float;
  merges : int;
  route : route_info;
}

type _ stage =
  | Lowered : lowered stage
  | Gdg_built : gdg_built stage
  | Placed : placed stage
  | Routed : routed stage
  | Scheduled : scheduled stage

type (_, _) eq = Eq : ('a, 'a) eq

let equal_stage : type a b. a stage -> b stage -> (a, b) eq option =
 fun x y ->
  match (x, y) with
  | Lowered, Lowered -> Some Eq
  | Gdg_built, Gdg_built -> Some Eq
  | Placed, Placed -> Some Eq
  | Routed, Routed -> Some Eq
  | Scheduled, Scheduled -> Some Eq
  | _ -> None

(** Deep-copy the mutable parts of an artifact. Circuits, instructions,
    placements-as-used and schedules are immutable; only the GDG is
    updated in place (by [detect] and [aggregate]), so only GDG-carrying
    artifacts copy anything. The stage cache relies on this to hand a
    private graph to in-place passes whose input is cache-resident. *)
let clone : type a. a stage -> a -> a =
 fun stage v ->
  match stage with
  | Gdg_built ->
    let (r : gdg_built) = v in
    { r with gdg = Gdg.copy r.gdg }
  | Scheduled ->
    let (r : scheduled) = v in
    { r with gdg = Gdg.copy r.gdg }
  | Lowered | Placed | Routed -> v
