let of_gates gs =
  let s, hit = Qgdg.Oracle.of_gates gs in
  Qobs.Metrics.tick (if hit then "qflow.summary.hit" else "qflow.summary.miss");
  s

let of_inst (i : Qgdg.Inst.t) = of_gates i.Qgdg.Inst.gates
