type severity = Error | Warning | Info

type location = {
  stage : string option;
  insts : int list;
  qubits : int list;
  gate_index : int option;
  interval : (float * float) option;
}

type t = {
  code : string;
  severity : severity;
  message : string;
  loc : location;
}

let make ?stage ?(insts = []) ?(qubits = []) ?gate_index ?interval ~code
    ~severity message =
  { code;
    severity;
    message;
    loc = { stage; insts; qubits; gate_index; interval } }

let is_error d = d.severity = Error

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* report order: severity, code, stage (None first), instruction ids,
   then the remaining location fields and the message — a total,
   deterministic key so reports from interleaved checkers always render
   identically *)
let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 ->
    (match Stdlib.compare a.code b.code with
     | 0 ->
       (match Stdlib.compare a.loc.stage b.loc.stage with
        | 0 ->
          (match Stdlib.compare a.loc.insts b.loc.insts with
           | 0 -> Stdlib.compare (a.loc.qubits, a.loc.gate_index, a.message)
                    (b.loc.qubits, b.loc.gate_index, b.message)
           | c -> c)
        | c -> c)
     | c -> c)
  | c -> c

let equal a b = compare a b = 0 && a.loc.interval = b.loc.interval

let ints is = String.concat "," (List.map string_of_int is)

let pp ppf d =
  Format.fprintf ppf "%s %s" d.code (severity_to_string d.severity);
  Option.iter (Format.fprintf ppf " [%s]") d.loc.stage;
  Format.fprintf ppf ": %s" d.message;
  let details =
    List.filter_map
      (fun x -> x)
      [ (match d.loc.insts with [] -> None | is -> Some ("insts " ^ ints is));
        (match d.loc.qubits with [] -> None | qs -> Some ("qubits " ^ ints qs));
        Option.map (Printf.sprintf "gate %d") d.loc.gate_index;
        Option.map
          (fun (a, b) -> Printf.sprintf "t in [%.2f, %.2f]" a b)
          d.loc.interval ]
  in
  if details <> [] then
    Format.fprintf ppf " (%s)" (String.concat "; " details)

let to_string d = Format.asprintf "%a" pp d

let json d =
  let module J = Qobs.Json in
  let ints is = J.List (List.map (fun i -> J.Int i) is) in
  let opt f = function Some x -> f x | None -> J.Null in
  J.Obj
    [ ("code", J.Str d.code);
      ("severity", J.Str (severity_to_string d.severity));
      ("message", J.Str d.message);
      ("stage", opt (fun s -> J.Str s) d.loc.stage);
      ("insts", ints d.loc.insts);
      ("qubits", ints d.loc.qubits);
      ("gate_index", opt (fun k -> J.Int k) d.loc.gate_index);
      ("interval",
       opt (fun (a, b) -> J.List [ J.Float a; J.Float b ]) d.loc.interval) ]

let to_json d = Qobs.Json.to_string (json d)
