module Gate = Qgate.Gate
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg

let check_same_shape g g' =
  if Gate.name g <> Gate.name g' || Gate.qubits g <> Gate.qubits g' then
    invalid_arg
      "Partial.reparameterize: rebinding must preserve gate kind and qubits"

let reparameterize ?(config = Backend.default) result f =
  let t0 = Qobs.Clock.now_ns () in
  let cost, schedule = Strategy.final result.Compiler.strategy in
  let cost = Stages.backend_cost cost config in
  let rebound =
    List.map
      (fun (i : Inst.t) ->
        let gates =
          List.map
            (fun g ->
              let g' = f g in
              check_same_shape g g';
              g')
            i.Inst.gates
        in
        Inst.make ~id:i.Inst.id ~latency:(cost gates) gates)
      (Gdg.insts result.Compiler.gdg)
  in
  let gdg =
    Gdg.of_insts ~n_qubits:(Gdg.n_qubits result.Compiler.gdg) rebound
  in
  let schedule = schedule gdg in
  { result with
    Compiler.gdg;
    schedule;
    latency = schedule.Qsched.Schedule.makespan;
    n_instructions = Gdg.size gdg;
    compile_time = Qobs.Clock.elapsed_ns t0 /. 1e9;
    diagnostics = [];
    trace = None;
    certificate = None }

let rebind_rotations ?config result ~gamma ~beta =
  reparameterize ?config result (fun g ->
      match g.Gate.kind with
      | Gate.Rz a ->
        { g with Gate.kind = Gate.Rz (Float.copy_sign gamma a) }
      | Gate.Rx a ->
        { g with Gate.kind = Gate.Rx (Float.copy_sign (2. *. beta) a) }
      | _ -> g)
