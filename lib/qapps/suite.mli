(** The benchmark suite of Table 3.

    Ten named instances across five applications. Every instance is
    deterministic. The paper's qubit counts are recorded alongside (ours
    differ for the square-root family, whose reversible-arithmetic
    construction is leaner than ScaffCC's — see EXPERIMENTS.md). *)

type benchmark = {
  name : string;
  application : string;
  purpose : string;
  paper_qubits : int;
  circuit : Qgate.Circuit.t lazy_t;
}

val all : benchmark list
(** The ten Table 3 rows, in order. *)

val fig9 : benchmark list
(** The nine Figure 9 benchmarks (Table 3 minus the second Ising size's
    duplicate application — the paper's §5.3 speaks of 9 benchmarks; we
    drop Ising-60 from the geomean and report it separately). *)

val find : string -> benchmark
(** Looks up a Table 3 row, one of the QFT instances §6.1 discusses, or
    [qaoa-line-20] (maxcut-line under its Fig. 4 name). Raises
    [Not_found]. *)

val lowered : benchmark -> Qgate.Circuit.t
(** The instance's circuit lowered to the standard ISA (Toffoli-free). *)
