let schedule g =
  let t = Qgdg.Timing.create g in
  let entries = ref [] in
  Qgdg.Gdg.iter_insts g (fun i ->
      let id = i.Qgdg.Inst.id in
      entries :=
        { Schedule.inst = i; start = t.start.(id); finish = t.finish.(id) }
        :: !entries);
  Schedule.make ~n_qubits:(Qgdg.Gdg.n_qubits g) !entries
