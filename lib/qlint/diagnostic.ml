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

(* minimal JSON encoding — no external dependency *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = Printf.sprintf "\"%s\"" (json_escape s)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let json_int_list is =
  Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int is))

let to_json d =
  let fields =
    [ ("code", json_string d.code);
      ("severity", json_string (severity_to_string d.severity));
      ("message", json_string d.message);
      ("stage",
       match d.loc.stage with Some s -> json_string s | None -> "null");
      ("insts", json_int_list d.loc.insts);
      ("qubits", json_int_list d.loc.qubits);
      ("gate_index",
       match d.loc.gate_index with Some k -> string_of_int k | None -> "null");
      ("interval",
       match d.loc.interval with
       | Some (a, b) ->
         Printf.sprintf "[%s,%s]" (json_float a) (json_float b)
       | None -> "null") ]
  in
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) v)
          fields))
