type t = {
  id : int;
  gates : Qgate.Gate.t list;
  qubits : int list;
  latency : float;
}

let support_of gates =
  List.sort_uniq compare (List.concat_map Qgate.Gate.qubits gates)

let make ~id ~latency gates =
  if gates = [] then invalid_arg "Inst.make: empty gate list";
  if not (Float.is_finite latency) then
    invalid_arg "Inst.make: non-finite latency";
  if latency < 0. then invalid_arg "Inst.make: negative latency";
  { id; gates; qubits = support_of gates; latency }

let of_gate ~id ~latency g = make ~id ~latency [ g ]
let width i = List.length i.qubits
let acts_on i q = List.mem q i.qubits
let common_qubits a b = List.filter (fun q -> acts_on b q) a.qubits
let shares_qubit a b = common_qubits a b <> []

let merge ~id ~latency earlier later =
  make ~id ~latency (earlier.gates @ later.gates)

let unitary_on_support i = Qgate.Unitary.on_support i.gates

let pp ppf i =
  Format.fprintf ppf "#%d[%s|%.1fns]" i.id
    (String.concat "; " (List.map Qgate.Gate.to_string i.gates))
    i.latency

let to_string i = Format.asprintf "%a" pp i
