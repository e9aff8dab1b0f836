module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Timing = Qgdg.Timing

(* the ALAP start is the makespan minus the node's tail, the deadline
   monotonic aggregation checks against *)
let latest_start (t : Timing.t) id = t.makespan -. t.tail.(id)

let schedule g =
  let t = Timing.create g in
  let entries = ref [] in
  Gdg.iter_insts g (fun i ->
      let start = latest_start t i.Inst.id in
      entries :=
        { Schedule.inst = i; start; finish = start +. i.Inst.latency }
        :: !entries);
  Schedule.make ~n_qubits:(Gdg.n_qubits g) !entries

let slack g =
  let t = Timing.create g in
  List.map
    (fun (i : Inst.t) -> (i.Inst.id, latest_start t i.Inst.id -. t.start.(i.Inst.id)))
    (Gdg.insts g)

let critical_path g =
  slack g
  |> List.filter (fun (_, s) -> s <= 1e-9)
  |> List.map (fun (id, _) -> Gdg.find g id)
