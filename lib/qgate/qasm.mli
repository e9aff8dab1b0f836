(** OpenQASM 2.0 subset — serialization for circuits.

    Supports the header, a single [qreg], optional [creg] (ignored),
    comments, [barrier]/[measure] statements (ignored on parse),
    user-defined parameterized gates
    ([gate name(p, …) a, b { … }], expanded inline with parameter and
    qubit substitution, nested up to depth 64), and the built-in gate
    applications this project emits: id, x, y, z, h, s, sdg, t, tdg,
    rx(θ), ry(θ), rz(θ), p(θ)/u1(θ), cx, cz, cp(θ)/cu1(θ), swap, iswap,
    rxx(θ), ryy(θ), rzz(θ), ccx. Angle expressions allow literals, [pi],
    gate parameters, unary minus, [+ - * /] and parentheses. *)

exception Parse_error of string
(** Raised with a message containing the offending line — also for an
    angle expression whose value is not finite and for a [qreg] size
    below 1. *)

val of_string : string -> Circuit.t
val to_string : Circuit.t -> string

val read_file : string -> Circuit.t
(** Parse a QASM file. A file that cannot be opened or read raises
    [Sys_error "<path>: <reason>"]; the channel is closed either way. *)

val write_file : string -> Circuit.t -> unit
