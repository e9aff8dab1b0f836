module Gate = Qgate.Gate
module D = Diagnostic

(* [next.(i)] = per-qubit successor map of gate [i]: for each qubit of
   gate [i], the index of the next gate touching that qubit (if any) —
   one backward pass over the stream *)
let next_use gates =
  let arr = Array.of_list gates in
  let n = Array.length arr in
  let next = Array.make n [] in
  let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    next.(i) <-
      List.map
        (fun q -> (q, Hashtbl.find_opt last q))
        (Gate.qubits arr.(i));
    List.iter (fun q -> Hashtbl.replace last q i) (Gate.qubits arr.(i))
  done;
  (arr, next)

let set_eq a b =
  List.sort_uniq compare a = List.sort_uniq compare b

let run ?stage ?(ancillas = []) circuit =
  let analysis = Qflow.Analysis.circuit circuit in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dead_idx = Hashtbl.create 16 in
  List.iter
    (fun (k, _) -> Hashtbl.replace dead_idx k ())
    analysis.Qflow.Analysis.dead;
  (* QL060 — dead on the abstract state *)
  List.iter
    (fun (k, g) ->
      add
        (D.make ?stage ~gate_index:k ~qubits:(Gate.qubits g) ~code:"QL060"
           ~severity:D.Warning
           (Printf.sprintf
              "dead gate: %s is provably identity on the abstract state"
              (Gate.to_string g))))
    analysis.Qflow.Analysis.dead;
  let arr, next = next_use (Qgate.Circuit.gates circuit) in
  (* QL061 — adjacent self-inverse pairs: the next gate on every qubit
     of gate i is the same j, supports coincide, and the composition is
     identity up to global phase *)
  let consumed = Hashtbl.create 16 in
  Array.iteri
    (fun i gi ->
      if
        (not (Hashtbl.mem consumed i))
        && not (Hashtbl.mem dead_idx i)
      then
        match next.(i) with
        | (_, Some j0) :: rest
          when List.for_all (fun (_, nx) -> nx = Some j0) rest
               && (not (Hashtbl.mem dead_idx j0))
               && set_eq (Gate.qubits gi) (Gate.qubits arr.(j0)) ->
          let s, _ = Qgdg.Oracle.of_gates [ gi; arr.(j0) ] in
          if s.Qgdg.Oracle.klass = Qgdg.Oracle.Identity then begin
            Hashtbl.replace consumed j0 ();
            add
              (D.make ?stage ~gate_index:i ~qubits:(Gate.qubits gi)
                 ~code:"QL061" ~severity:D.Warning
                 (Printf.sprintf
                    "gates %d and %d (%s, %s) are an adjacent self-inverse \
                     pair the optimizer missed"
                    i j0 (Gate.to_string gi)
                    (Gate.to_string arr.(j0))))
          end
        | _ -> ())
    arr;
  (* QL062 — trailing diagonal gates: diagonal content commutes with
     every terminal computational-basis measurement *)
  Array.iteri
    (fun i gi ->
      if
        Gate.is_diagonal_kind gi.Gate.kind
        && (not (Hashtbl.mem dead_idx i))
        && (not (Hashtbl.mem consumed i))
        && List.for_all (fun (_, nx) -> nx = None) next.(i)
        && next.(i) <> []
      then
        add
          (D.make ?stage ~gate_index:i ~qubits:(Gate.qubits gi) ~code:"QL062"
             ~severity:D.Info
             (Printf.sprintf
                "%s after the last use of its qubits affects no \
                 computational-basis output"
                (Gate.to_string gi))))
    arr;
  (* QL063 — declared ancillas must provably return to |0⟩ *)
  List.iter
    (fun q ->
      if q >= 0 && q < analysis.Qflow.Analysis.n_qubits then begin
        let v = analysis.Qflow.Analysis.final.(q) in
        if v <> Qflow.Absval.Zero then
          add
            (D.make ?stage ~qubits:[ q ] ~code:"QL063" ~severity:D.Warning
               (Printf.sprintf
                  "ancilla %d is not provably returned to |0> (final \
                   abstract state: %s)"
                  q
                  (Qflow.Absval.to_string v)))
      end)
    (List.sort_uniq compare ancillas);
  List.rev !diags
