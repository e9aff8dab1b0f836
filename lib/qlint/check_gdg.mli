(** GDG structural invariants (QL02x).

    - QL020 error: dependence cycle
    - QL021 error: chain references an id with no node
    - QL022 error: node on a chain outside its qubit support
    - QL023 error: node missing from a support qubit's chain
    - QL024 error: node appears twice on one chain, or an instruction
      lists a qubit twice
    - QL025 error: duplicate instruction id in a raw stream
    - QL026 error: a parent shares no qubit with its child
    - QL027 error: instruction with no member gates
    - QL028 error: negative instruction latency *)

val run : ?stage:string -> Qgdg.Gdg.t -> Diagnostic.t list
(** Structural problems ({!Qgdg.Gdg.problems}), parent/child qubit
    sharing, and per-instruction sanity. *)

val check_insts :
  ?stage:string -> n_qubits:int -> Qgdg.Inst.t list -> Diagnostic.t list
(** Lint a raw instruction stream before graph construction — duplicate
    ids, out-of-range or repeated qubits and per-instruction sanity,
    without the exceptions [Gdg.of_insts] would raise. *)
