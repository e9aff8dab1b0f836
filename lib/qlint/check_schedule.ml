module Schedule = Qsched.Schedule
module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst
module D = Diagnostic

let eps = 1e-9

let intra ?stage (s : Schedule.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* per-entry timing sanity *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (e : Schedule.entry) ->
      let id = e.Schedule.inst.Inst.id in
      if Hashtbl.mem seen id then
        add
          (D.make ?stage ~insts:[ id ] ~code:"QL036" ~severity:D.Error
             (Printf.sprintf "instruction %d is scheduled more than once" id))
      else Hashtbl.replace seen id ();
      let duration = e.Schedule.finish -. e.Schedule.start in
      if duration < -.eps then
        add
          (D.make ?stage ~insts:[ id ]
             ~interval:(e.Schedule.start, e.Schedule.finish) ~code:"QL033"
             ~severity:D.Error
             (Printf.sprintf "instruction %d finishes before it starts" id))
      else if Float.abs (duration -. e.Schedule.inst.Inst.latency) > 1e-6 then
        add
          (D.make ?stage ~insts:[ id ]
             ~interval:(e.Schedule.start, e.Schedule.finish) ~code:"QL032"
             ~severity:D.Warning
             (Printf.sprintf
                "instruction %d occupies %.3f ns but its latency is %.3f ns"
                id duration e.Schedule.inst.Inst.latency)))
    s.Schedule.entries;
  (* qubit-resource conflicts, with the exact pair, qubit and window *)
  List.iter
    (fun ((a : Schedule.entry), (b : Schedule.entry), q) ->
      let ia = a.Schedule.inst.Inst.id and ib = b.Schedule.inst.Inst.id in
      let lo = Float.max a.Schedule.start b.Schedule.start in
      let hi = Float.min a.Schedule.finish b.Schedule.finish in
      add
        (D.make ?stage ~insts:[ ia; ib ] ~qubits:[ q ] ~interval:(lo, hi)
           ~code:"QL030" ~severity:D.Error
           (Printf.sprintf
              "instructions %d and %d double-book qubit %d over [%.2f, %.2f]"
              ia ib q lo hi)))
    (Schedule.conflicts s);
  let last_finish =
    List.fold_left
      (fun acc (e : Schedule.entry) -> Float.max acc e.Schedule.finish)
      0. s.Schedule.entries
  in
  if Float.abs (last_finish -. s.Schedule.makespan) > 1e-6 then
    add
      (D.make ?stage ~interval:(0., s.Schedule.makespan) ~code:"QL035"
         ~severity:D.Warning
         (Printf.sprintf
            "recorded makespan %.3f ns differs from the last finish %.3f ns"
            s.Schedule.makespan last_finish));
  List.rev !diags

let against_gdg ?stage ~reorderable g (s : Schedule.t) =
  let r = Schedule.replay ~original:g s in
  (* coverage and members; repeats are QL036, reported by [intra] *)
  let coverage fmt =
    List.map (fun id ->
        D.make ?stage ~insts:[ id ] ~code:"QL034" ~severity:D.Error
          (Printf.sprintf fmt id))
  in
  let start id = (Option.get (r.Schedule.first id)).Schedule.start in
  (* chain order modulo declared commutations *)
  let order q ((a : Inst.t), (b : Inst.t)) =
    if reorderable a b then None
    else
      let sa = start a.Inst.id and sb = start b.Inst.id in
      Some
        (D.make ?stage ~insts:[ a.Inst.id; b.Inst.id ] ~qubits:[ q ]
           ~interval:(sb, sa) ~code:"QL031" ~severity:D.Error
           (Printf.sprintf
              "instruction %d (starts %.2f) runs before non-commuting chain \
               predecessor %d on qubit %d (starts %.2f)"
              b.Inst.id sb a.Inst.id q sa))
  in
  coverage "instruction %d is in the GDG but never scheduled" r.Schedule.missing
  @ coverage "scheduled instruction %d does not exist in the GDG"
      r.Schedule.foreign
  @ coverage "instruction %d's members differ between schedule and GDG"
      r.Schedule.altered
  @ List.concat_map
      (fun q -> List.filter_map (order q) (r.Schedule.inversions q))
      (List.init (Gdg.n_qubits g) Fun.id)

let run ?stage ?original ?(reorderable = fun _ _ -> false) s =
  let diags = intra ?stage s in
  match original with
  | None -> diags
  | Some g -> diags @ against_gdg ?stage ~reorderable g s
