(* Must not compile: routing cannot consume the source circuit, and
   lowering cannot follow routing. *)
open Qcc

let _ : (Qgate.Circuit.t, Ir.scheduled) Pass.seq = Stages.[ route; lower ]
