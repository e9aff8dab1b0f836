(** Ripple-carry addition — the CDKM/Cuccaro adder.

    Registers are qubit-index lists, least-significant bit first. The
    adder computes b ← a + b in place using one ancilla (initially |0⟩,
    restored), with MAJ/UMA blocks; the modular variant drops the carry
    out, which is exact whenever the sum fits the register. *)

val maj : int -> int -> int -> Qgate.Gate.t list
(** [maj c b a]: the majority block (2 CNOT + 1 Toffoli). *)

val ripple_add :
  a:int list -> b:int list -> ancilla:int -> carry_out:int -> Qgate.Gate.t list
(** Full adder: b ← a + b, carry into [carry_out] (must be |0⟩). Registers
    must have equal non-zero width and all qubits distinct; raises
    [Invalid_argument] otherwise. *)

val ripple_add_mod :
  a:int list -> b:int list -> ancilla:int -> Qgate.Gate.t list
(** Modular adder: b ← (a + b) mod 2^width. *)
