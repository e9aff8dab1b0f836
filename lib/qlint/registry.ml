type entry = {
  code : string;
  family : string;
  severity : Diagnostic.severity;
  summary : string;
}

let families =
  [ ("circuit", "circuit / QASM well-formedness");
    ("gdg", "GDG structural invariants");
    ("schedule", "schedule legality");
    ("mapping", "mapping / routing legality");
    ("aggregation", "aggregation policy");
    ("semantic", "semantic circuit lints (abstract interpretation)");
    ("aggop", "aggregation-opportunity lints");
    ("domain-safety", "ambient mutable state / multi-domain safety (domlint)") ]

let family_title key = List.assoc key families

let e code family severity summary = { code; family; severity; summary }

let all =
  let open Diagnostic in
  [ e "DS010" "domain-safety" Error
      "unclassified ambient mutable state at module toplevel";
    e "DS011" "domain-safety" Error
      "toplevel mutable state escaping the module unclassified";
    e "DS020" "domain-safety" Error
      "memo table without a reset_* entry point";
    e "DS030" "domain-safety" Error
      "domain-unsafe stdlib use at module toplevel";
    e "DS040" "domain-safety" Error
      "stale or malformed [@@domain_safety] classification";
    e "QL010" "circuit" Error "gate qubit index outside the register";
    e "QL011" "circuit" Error "duplicate qubit operands in one gate";
    e "QL012" "circuit" Error "operand count does not match the gate's arity";
    e "QL013" "circuit" Warning "register qubit never used";
    e "QL015" "circuit" Error "QASM parse failure";
    e "QL020" "gdg" Error "dependence cycle";
    e "QL021" "gdg" Error "chain references an id with no node";
    e "QL022" "gdg" Error "node on a chain outside its qubit support";
    e "QL023" "gdg" Error "node missing from a support qubit's chain";
    e "QL024" "gdg" Error "node appears twice on one chain, or lists a qubit twice";
    e "QL025" "gdg" Error "duplicate instruction id in a raw stream";
    e "QL026" "gdg" Error "a parent shares no qubit with its child";
    e "QL027" "gdg" Error "instruction with no member gates";
    e "QL028" "gdg" Error "negative instruction latency";
    e "QL030" "schedule" Error "two instructions double-book a qubit";
    e "QL031" "schedule" Error
      "dependence-order violation against a non-commuting predecessor";
    e "QL032" "schedule" Warning "entry duration differs from the instruction latency";
    e "QL033" "schedule" Error "entry with negative duration";
    e "QL034" "schedule" Error
      "schedule and GDG disagree on the instruction set or its members";
    e "QL035" "schedule" Warning "recorded makespan differs from the last finish time";
    e "QL036" "schedule" Error "one instruction scheduled twice";
    e "QL040" "mapping" Error "a 2-qubit physical gate joins non-adjacent sites";
    e "QL041" "mapping" Error "a placement is not a consistent logical-site bijection";
    e "QL042" "mapping" Error
      "final placement does not equal initial placement composed with the routing SWAPs";
    e "QL043" "mapping" Error "a site index outside the device";
    e "QL050" "aggregation" Error "aggregated block wider than the width limit";
    e "QL051" "aggregation" Error
      "block support differs from the union of its member gates' supports";
    e "QL052" "aggregation" Warning "block with an empty qubit support";
    e "QL060" "semantic" Warning
      "dead gate: provably identity on the inferred abstract state";
    e "QL061" "semantic" Warning
      "adjacent self-inverse gate pair the optimizer missed";
    e "QL062" "semantic" Info
      "trailing diagonal gate affects no computational-basis output";
    e "QL063" "semantic" Warning "ancilla not provably returned to |0>";
    e "QL070" "aggop" Info
      "adjacent instructions commute algebraically but were never merged";
    e "QL071" "aggop" Info
      "aggregate of commuting diagonal members costed serially";
  ]

let find code = List.find_opt (fun (entry : entry) -> entry.code = code) all

let explain code =
  match find code with
  | None -> None
  | Some entry ->
    Some
      (Printf.sprintf "%s (%s)\n  family:   %s\n  checked:  %s" entry.code
         (Diagnostic.severity_to_string entry.severity)
         (family_title entry.family) entry.summary)

let markdown_glossary () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "| code | severity | family | check |\n";
  Buffer.add_string b "|---|---|---|---|\n";
  List.iter
    (fun entry ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %s | %s |\n" entry.code
           (Diagnostic.severity_to_string entry.severity)
           (family_title entry.family) entry.summary))
    all;
  Buffer.contents b
