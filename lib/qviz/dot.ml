module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let of_gdg ?(highlight_critical = true) g =
  let critical =
    if highlight_critical then
      List.map (fun (i : Inst.t) -> i.Inst.id) (Qsched.Alap.critical_path g)
    else []
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph gdg {\n";
  Buffer.add_string buf "  rankdir=TB;\n";
  Buffer.add_string buf
    "  node [shape=box, style=filled, fillcolor=white, fontname=\"monospace\"];\n";
  List.iter
    (fun (i : Inst.t) ->
      let members =
        String.concat "\\n"
          (List.map (fun g -> escape (Qgate.Gate.to_string g)) i.Inst.gates)
      in
      let color =
        if List.mem i.Inst.id critical then ", fillcolor=\"#ffb3b3\"" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"#%d (%.1f ns)\\n%s\"%s];\n" i.Inst.id
           i.Inst.id i.Inst.latency members color))
    (Gdg.insts g);
  List.iter
    (fun (i : Inst.t) ->
      List.iter
        (fun q ->
          match Gdg.succ_on g i.Inst.id ~qubit:q with
          | None -> ()
          | Some s ->
            Buffer.add_string buf
              (Printf.sprintf "  n%d -> n%d [label=\"q%d\"];\n" i.Inst.id
                 s.Inst.id q))
        i.Inst.qubits)
    (Gdg.insts g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ?highlight_critical path g =
  let oc = open_out path in
  output_string oc (of_gdg ?highlight_critical g);
  close_out oc
