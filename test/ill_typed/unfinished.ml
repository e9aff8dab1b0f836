(* Must not compile: the sequence stops at a dependence graph and never
   schedules it. *)
open Qcc

let _ : (Qgate.Circuit.t, Ir.scheduled) Pass.seq =
  Stages.[ lower; gdg_of_lowered ~cost:Serial ~lint:false ]
