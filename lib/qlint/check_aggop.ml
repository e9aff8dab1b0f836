module Gate = Qgate.Gate
module Inst = Qgdg.Inst
module D = Diagnostic

let run ?stage ?gate_time ~width_limit gdg =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let order = Qgdg.Gdg.insts gdg in
  let summaries = Hashtbl.create 64 in
  let summary (i : Inst.t) =
    match Hashtbl.find_opt summaries i.Inst.id with
    | Some s -> s
    | None ->
      let s, _ = Qgdg.Oracle.of_gates i.Inst.gates in
      Hashtbl.replace summaries i.Inst.id s;
      s
  in
  (* QL070 — chain-adjacent pairs that commute algebraically; enumerate
     successors in topological inst order / sorted qubit order so the
     report is deterministic *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a : Inst.t) ->
      List.iter
        (fun q ->
          match Qgdg.Gdg.succ_on gdg a.Inst.id ~qubit:q with
          | None -> ()
          | Some b ->
            let bid = b.Inst.id in
            if not (Hashtbl.mem seen (a.Inst.id, bid)) then begin
              Hashtbl.replace seen (a.Inst.id, bid) ();
              let b = Qgdg.Gdg.find gdg bid in
              let joint =
                List.sort_uniq compare (a.Inst.qubits @ b.Inst.qubits)
              in
              if List.length joint <= width_limit then begin
                let sa = summary a and sb = summary b in
                match Qgdg.Oracle.algebraic ~sa ~sb a.Inst.gates b.Inst.gates with
                | Some true ->
                  add
                    (D.make ?stage ~insts:[ a.Inst.id; bid ] ~qubits:joint
                       ~code:"QL070" ~severity:D.Info
                       (Printf.sprintf
                          "adjacent instructions %d and %d commute \
                           algebraically (%s x %s) but were never merged"
                          a.Inst.id bid
                          (Qgdg.Oracle.klass_to_string sa.Qgdg.Oracle.klass)
                          (Qgdg.Oracle.klass_to_string sb.Qgdg.Oracle.klass)))
                | Some false | None -> ()
              end
            end)
        a.Inst.qubits)
    order;
  (* QL071 — all-diagonal aggregates costed as the serial sum of their
     members' gate times *)
  (match gate_time with
   | None -> ()
   | Some cost ->
     List.iter
       (fun (i : Inst.t) ->
         if
           List.length i.Inst.gates >= 2
           && List.for_all
                (fun g -> Gate.is_diagonal_kind g.Gate.kind)
                i.Inst.gates
         then begin
           let serial =
             List.fold_left (fun acc g -> acc +. cost g) 0. i.Inst.gates
           in
           if serial > 0. && i.Inst.latency >= serial -. 1e-6 then
             add
               (D.make ?stage ~insts:[ i.Inst.id ] ~qubits:i.Inst.qubits
                  ~code:"QL071" ~severity:D.Info
                  (Printf.sprintf
                     "aggregate %d: %d diagonal members commute yet are \
                      costed serially (%.1f ns = member sum)"
                     i.Inst.id
                     (List.length i.Inst.gates)
                     i.Inst.latency))
         end)
       order);
  List.rev !diags
