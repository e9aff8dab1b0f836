type kind =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float
  | Cnot
  | Cz
  | Cphase of float
  | Swap
  | Iswap
  | Sqrt_iswap
  | Rxx of float
  | Ryy of float
  | Rzz of float
  | Ccx

type t = { kind : kind; qubits : int list }

let kind_arity = function
  | I | X | Y | Z | H | S | Sdg | T | Tdg | Rx _ | Ry _ | Rz _ | Phase _ -> 1
  | Cnot | Cz | Cphase _ | Swap | Iswap | Sqrt_iswap | Rxx _ | Ryy _ | Rzz _ ->
    2
  | Ccx -> 3

let arity g = kind_arity g.kind

let rec has_dup = function
  | [] -> false
  | q :: rest -> List.mem q rest || has_dup rest

let params g =
  match g.kind with
  | Rx a | Ry a | Rz a | Phase a | Cphase a | Rxx a | Ryy a | Rzz a -> [ a ]
  | I | X | Y | Z | H | S | Sdg | T | Tdg | Cnot | Cz | Swap | Iswap
  | Sqrt_iswap | Ccx ->
    []

let make kind qubits =
  if List.length qubits <> kind_arity kind then
    invalid_arg "Gate.make: arity mismatch";
  if has_dup qubits then invalid_arg "Gate.make: repeated qubit";
  if List.exists (fun q -> q < 0) qubits then
    invalid_arg "Gate.make: negative qubit";
  let g = { kind; qubits } in
  if not (List.for_all Float.is_finite (params g)) then
    invalid_arg "Gate.make: non-finite angle";
  g

let id q = make I [ q ]
let x q = make X [ q ]
let y q = make Y [ q ]
let z q = make Z [ q ]
let h q = make H [ q ]
let s q = make S [ q ]
let sdg q = make Sdg [ q ]
let t q = make T [ q ]
let tdg q = make Tdg [ q ]
let rx theta q = make (Rx theta) [ q ]
let ry theta q = make (Ry theta) [ q ]
let rz theta q = make (Rz theta) [ q ]
let phase theta q = make (Phase theta) [ q ]
let cnot c tgt = make Cnot [ c; tgt ]
let cz a b = make Cz [ a; b ]
let cphase theta a b = make (Cphase theta) [ a; b ]
let swap a b = make Swap [ a; b ]
let iswap a b = make Iswap [ a; b ]
let sqrt_iswap a b = make Sqrt_iswap [ a; b ]
let rxx theta a b = make (Rxx theta) [ a; b ]
let ryy theta a b = make (Ryy theta) [ a; b ]
let rzz theta a b = make (Rzz theta) [ a; b ]
let ccx c1 c2 tgt = make Ccx [ c1; c2; tgt ]
let qubits g = g.qubits

let name g =
  match g.kind with
  | I -> "id"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | Phase _ -> "p"
  | Cnot -> "cx"
  | Cz -> "cz"
  | Cphase _ -> "cp"
  | Swap -> "swap"
  | Iswap -> "iswap"
  | Sqrt_iswap -> "siswap"
  | Rxx _ -> "rxx"
  | Ryy _ -> "ryy"
  | Rzz _ -> "rzz"
  | Ccx -> "ccx"

let adjoint g =
  let kind =
    match g.kind with
    | I -> I
    | X -> X
    | Y -> Y
    | Z -> Z
    | H -> H
    | S -> Sdg
    | Sdg -> S
    | T -> Tdg
    | Tdg -> T
    | Rx a -> Rx (-.a)
    | Ry a -> Ry (-.a)
    | Rz a -> Rz (-.a)
    | Phase a -> Phase (-.a)
    | Cnot -> Cnot
    | Cz -> Cz
    | Cphase a -> Cphase (-.a)
    | Swap -> Swap
    | Iswap | Sqrt_iswap ->
      (* iSWAP† = Rxx(π/2)·Ryy(π/2) is not a single vocabulary gate;
         callers lower the iswap family via Decompose first *)
      invalid_arg "Gate.adjoint: iswap family has no in-vocabulary adjoint"
    | Rxx a -> Rxx (-.a)
    | Ryy a -> Ryy (-.a)
    | Rzz a -> Rzz (-.a)
    | Ccx -> Ccx
  in
  { g with kind }

let is_diagonal_kind = function
  | I | Z | S | Sdg | T | Tdg | Rz _ | Phase _ | Cz | Cphase _ | Rzz _ -> true
  | X | Y | H | Rx _ | Ry _ | Cnot | Swap | Iswap | Sqrt_iswap | Rxx _
  | Ryy _ | Ccx ->
    false

let is_symmetric_kind = function
  | Cz | Cphase _ | Swap | Iswap | Sqrt_iswap | Rxx _ | Ryy _ | Rzz _ -> true
  | I | X | Y | Z | H | S | Sdg | T | Tdg | Rx _ | Ry _ | Rz _ | Phase _
  | Cnot | Ccx ->
    false

let acts_on g q = List.mem q g.qubits
let common_qubits a b = List.filter (fun q -> acts_on b q) a.qubits
let shares_qubit a b = common_qubits a b <> []

let map_qubits f g =
  let qubits = List.map f g.qubits in
  if has_dup qubits then invalid_arg "Gate.map_qubits: renaming collapses qubits";
  { g with qubits }

let equal a b = a.kind = b.kind && a.qubits = b.qubits
let compare = Stdlib.compare

let pp ppf g =
  (match params g with
   | [] -> Format.fprintf ppf "%s" (name g)
   | ps ->
     Format.fprintf ppf "%s(%s)" (name g)
       (String.concat "," (List.map (Printf.sprintf "%g") ps)));
  Format.fprintf ppf " %s"
    (String.concat "," (List.map (Printf.sprintf "q%d") g.qubits))

let to_string g = Format.asprintf "%a" pp g

(* one tag byte, the parameters as raw IEEE bits, then the qubits as
   16-bit little-endian ints; every kind has a fixed arity and parameter
   count, so each gate's length is determined by its tag *)
let add_key buf ~qubit g =
  let tag t = Buffer.add_char buf (Char.chr t) in
  let param x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  (match g.kind with
   | I -> tag 0
   | X -> tag 1
   | Y -> tag 2
   | Z -> tag 3
   | H -> tag 4
   | S -> tag 5
   | Sdg -> tag 6
   | T -> tag 7
   | Tdg -> tag 8
   | Rx x -> tag 9; param x
   | Ry x -> tag 10; param x
   | Rz x -> tag 11; param x
   | Phase x -> tag 12; param x
   | Cnot -> tag 13
   | Cz -> tag 14
   | Cphase x -> tag 15; param x
   | Swap -> tag 16
   | Iswap -> tag 17
   | Sqrt_iswap -> tag 18
   | Rxx x -> tag 19; param x
   | Ryy x -> tag 20; param x
   | Rzz x -> tag 21; param x
   | Ccx -> tag 22);
  List.iter
    (fun q ->
      let q = qubit q in
      Buffer.add_char buf (Char.chr (q land 0xff));
      Buffer.add_char buf (Char.chr ((q lsr 8) land 0xff)))
    g.qubits
