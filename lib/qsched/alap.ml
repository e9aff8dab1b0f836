module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg

let alap_starts g =
  let _, makespan = Gdg.asap g in
  let latest_start = Hashtbl.create (Gdg.size g) in
  List.iter
    (fun (i : Inst.t) ->
      let latest_finish =
        List.fold_left
          (fun acc (c : Inst.t) ->
            Float.min acc (Hashtbl.find latest_start c.Inst.id))
          makespan
          (Gdg.children g i.Inst.id)
      in
      Hashtbl.replace latest_start i.Inst.id (latest_finish -. i.Inst.latency))
    (List.rev (Gdg.insts g));
  latest_start

let schedule g =
  let latest_start = alap_starts g in
  let entries =
    List.map
      (fun (i : Inst.t) ->
        let start = Hashtbl.find latest_start i.Inst.id in
        { Schedule.inst = i; start; finish = start +. i.Inst.latency })
      (Gdg.insts g)
  in
  Schedule.make ~n_qubits:(Gdg.n_qubits g) entries

let slack g =
  let latest_start = alap_starts g in
  let asap, _ = Gdg.asap g in
  List.map
    (fun (id, (start, _)) -> (id, Hashtbl.find latest_start id -. start))
    asap

let critical_path g =
  slack g
  |> List.filter (fun (_, s) -> s <= 1e-9)
  |> List.map (fun (id, _) -> Gdg.find g id)
