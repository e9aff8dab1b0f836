type t = { n_qubits : int; gates : Gate.t list }

let check_gate n g =
  if List.exists (fun q -> q < 0 || q >= n) (Gate.qubits g) then
    invalid_arg
      (Printf.sprintf "Circuit: gate %s outside register of %d qubits"
         (Gate.to_string g) n)

let make n_qubits gates =
  if n_qubits < 0 then invalid_arg "Circuit.make: negative register";
  List.iter (check_gate n_qubits) gates;
  { n_qubits; gates }

let empty n_qubits = make n_qubits []

let append c g =
  check_gate c.n_qubits g;
  { c with gates = c.gates @ [ g ] }

let concat a b =
  if a.n_qubits <> b.n_qubits then
    invalid_arg "Circuit.concat: register size mismatch";
  { a with gates = a.gates @ b.gates }

let n_gates c = List.length c.gates
let n_qubits c = c.n_qubits
let gates c = c.gates
let count pred c = List.length (List.filter pred c.gates)
let two_qubit_count c = count (fun g -> Gate.arity g = 2) c

let depth c =
  let level = Array.make (max 1 c.n_qubits) 0 in
  List.fold_left
    (fun acc g ->
      let qs = Gate.qubits g in
      let d = 1 + List.fold_left (fun m q -> max m level.(q)) 0 qs in
      List.iter (fun q -> level.(q) <- d) qs;
      max acc d)
    0 c.gates

let used_qubits c =
  List.sort_uniq compare (List.concat_map Gate.qubits c.gates)

let interaction_graph c =
  let g = Qgraph.Graph.create c.n_qubits in
  List.iter
    (fun gate ->
      let rec pairs = function
        | [] -> ()
        | q :: rest ->
          List.iter (fun r -> Qgraph.Graph.add_edge g q r) rest;
          pairs rest
      in
      pairs (Gate.qubits gate))
    c.gates;
  g

let map_qubits f c =
  let gates = List.map (Gate.map_qubits f) c.gates in
  List.iter (check_gate c.n_qubits) gates;
  { c with gates }

let adjoint c = { c with gates = List.rev_map Gate.adjoint c.gates }

let unitary c =
  if c.n_qubits > 12 then
    invalid_arg "Circuit.unitary: register too large for dense unitary";
  Unitary.of_gates ~n_qubits:c.n_qubits c.gates

let equal_semantics ?(eps = 1e-9) a b =
  a.n_qubits = b.n_qubits
  && Unitary.equal_up_to_global_phase ~eps (unitary a) (unitary b)

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %d qubits, %d gates:@," c.n_qubits
    (n_gates c);
  List.iter (fun g -> Format.fprintf ppf "  %a@," Gate.pp g) c.gates;
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
