(* Must not compile: the isa strategy without its first pass starts from
   a lowered circuit, not the source. *)
open Qcc

let _ : (Qgate.Circuit.t, Ir.scheduled) Pass.seq =
  Stages.
    [ place_of_lowered; route; gdg_of_routed ~cost:Serial ~lint:true;
      asap_final ]
