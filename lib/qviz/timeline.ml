module Inst = Qgdg.Inst
module Schedule = Qsched.Schedule

let to_json (s : Schedule.t) =
  let module J = Qobs.Json in
  let gate g = J.Str (Qgate.Gate.to_string g) in
  let entry (e : Schedule.entry) =
    let i = e.Schedule.inst in
    J.Obj
      [ ("id", J.Int i.Inst.id);
        ("start", J.Float e.Schedule.start);
        ("finish", J.Float e.Schedule.finish);
        ("qubits", J.List (List.map (fun q -> J.Int q) i.Inst.qubits));
        ("gates", J.List (List.map gate i.Inst.gates)) ]
  in
  J.to_string
    (J.Obj
       [ ("n_qubits", J.Int s.Schedule.n_qubits);
         ("makespan", J.Float s.Schedule.makespan);
         ("entries", J.List (List.map entry s.Schedule.entries)) ])

(* read-only colour table *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#76b7b2"; "#edc948";
     "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac" |]
  [@@domain_safety frozen_after_init]

let to_svg ?(width = 900) ?(lane_height = 26) (s : Schedule.t) =
  let n = max 1 s.Schedule.n_qubits in
  let label_w = 46 in
  let plot_w = width - label_w - 10 in
  let makespan = Float.max 1e-9 s.Schedule.makespan in
  let x_of t = label_w + int_of_float (float_of_int plot_w *. t /. makespan) in
  let height = (n * lane_height) + 40 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"monospace\" font-size=\"11\">\n"
       width height);
  Buffer.add_string buf
    "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  (* qubit lanes *)
  for q = 0 to n - 1 do
    let y = 20 + (q * lane_height) in
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"4\" y=\"%d\" fill=\"#333\">q%d</text>\n"
         (y + (lane_height / 2) + 4) q);
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#eee\"/>\n"
         label_w (y + lane_height) (label_w + plot_w) (y + lane_height))
  done;
  (* instruction rectangles *)
  List.iteri
    (fun k (e : Schedule.entry) ->
      let i = e.Schedule.inst in
      let color = palette.(k mod Array.length palette) in
      let x = x_of e.Schedule.start in
      let w = max 2 (x_of e.Schedule.finish - x) in
      List.iter
        (fun q ->
          let y = 20 + (q * lane_height) + 2 in
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" fill-opacity=\"0.85\" stroke=\"#333\" stroke-width=\"0.5\"><title>#%d [%0.1f, %0.1f] %s</title></rect>\n"
               x y w (lane_height - 4) color i.Inst.id e.Schedule.start
               e.Schedule.finish
               (String.concat "; "
                  (List.map Qgate.Gate.to_string i.Inst.gates))))
        i.Inst.qubits)
    s.Schedule.entries;
  (* time axis *)
  let axis_y = 20 + (n * lane_height) + 14 in
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"%d\" fill=\"#333\">0 ns</text>\n" label_w axis_y);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"%d\" fill=\"#333\" text-anchor=\"end\">%.1f ns</text>\n"
       (label_w + plot_w) axis_y makespan);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write_string path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let write_json path s = write_string path (to_json s)
let write_svg ?width ?lane_height path s = write_string path (to_svg ?width ?lane_height s)
