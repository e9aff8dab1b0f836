type entry = { inst : Qgdg.Inst.t; start : float; finish : float }

type t = { n_qubits : int; entries : entry list; makespan : float }

let compare_entries a b =
  match compare a.start b.start with
  | 0 -> compare a.inst.Qgdg.Inst.id b.inst.Qgdg.Inst.id
  | c -> c

let make ~n_qubits entries =
  List.iter
    (fun e ->
      if e.finish < e.start then invalid_arg "Schedule.make: negative duration")
    entries;
  let entries = List.sort compare_entries entries in
  let makespan = List.fold_left (fun acc e -> Float.max acc e.finish) 0. entries in
  { n_qubits; entries; makespan }

let conflict_eps = 1e-9

let conflicts t =
  let by_qubit = Hashtbl.create 32 in
  List.iter
    (fun e ->
      List.iter
        (fun q ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_qubit q) in
          Hashtbl.replace by_qubit q (e :: prev))
        e.inst.Qgdg.Inst.qubits)
    t.entries;
  let qubits =
    List.sort compare (Hashtbl.fold (fun q _ acc -> q :: acc) by_qubit [])
  in
  List.concat_map
    (fun q ->
      let sorted = List.sort compare_entries (Hashtbl.find by_qubit q) in
      (* sorted by start: an entry can only conflict with later entries
         that begin before it finishes; among those, a conflict needs a
         positive-measure overlap window — busy intervals are half-open,
         so a zero-duration entry never collides, even at a busy
         instant *)
      let rec walk = function
        | [] -> []
        | a :: rest ->
          let rec take = function
            | b :: more when b.start < a.finish -. conflict_eps ->
              if Float.min a.finish b.finish -. b.start > conflict_eps then
                (a, b, q) :: take more
              else take more
            | _ -> []
          in
          take rest @ walk rest
      in
      walk sorted)
    qubits

type replay = {
  missing : int list;
  foreign : int list;
  repeated : int list;
  altered : int list;
  first : int -> entry option;
  inversions : int -> (Qgdg.Inst.t * Qgdg.Inst.t) list;
}

let replay ~original t =
  (* an id's position is its first entry's rank in [entries], the order
     [linearize] executes *)
  let position = Hashtbl.create 64 in
  let foreign = ref [] and repeated = ref [] and altered = ref [] in
  List.iteri
    (fun k e ->
      let id = e.inst.Qgdg.Inst.id in
      if Hashtbl.mem position id then repeated := id :: !repeated
      else begin
        Hashtbl.add position id (k, e);
        match Qgdg.Gdg.find original id with
        | i ->
          if not (List.equal Qgate.Gate.equal e.inst.gates i.Qgdg.Inst.gates)
          then altered := id :: !altered
        | exception Not_found -> foreign := id :: !foreign
      end)
    t.entries;
  let missing = ref [] in
  Qgdg.Gdg.iter_insts original (fun i ->
      if not (Hashtbl.mem position i.Qgdg.Inst.id) then
        missing := i.Qgdg.Inst.id :: !missing);
  let inversions q =
    let chain = Array.of_list (Qgdg.Gdg.chain original q) in
    (* an unscheduled element sits at -1, so it inverts with nothing *)
    let pos =
      Array.map
        (fun (i : Qgdg.Inst.t) ->
          Option.fold ~none:(-1) ~some:fst
            (Hashtbl.find_opt position i.Qgdg.Inst.id))
        chain
    in
    (* consed from the back, so the list runs later element outer *)
    let pairs = ref [] in
    for j = Array.length chain - 1 downto 1 do
      let pj = pos.(j) in
      for i = j - 1 downto 0 do
        if pos.(i) > pj && pj >= 0 then
          pairs := (chain.(i), chain.(j)) :: !pairs
      done
    done;
    !pairs
  in
  { missing = List.rev !missing;
    foreign = List.rev !foreign;
    repeated = List.rev !repeated;
    altered = List.rev !altered;
    first = (fun id -> Option.map snd (Hashtbl.find_opt position id));
    inversions }

let qubit_busy_time t q =
  List.fold_left
    (fun acc e ->
      if Qgdg.Inst.acts_on e.inst q then acc +. (e.finish -. e.start) else acc)
    0. t.entries

let utilization t =
  if t.makespan <= 0. || t.n_qubits = 0 then 0.
  else begin
    let busy =
      List.fold_left
        (fun acc e ->
          acc
          +. ((e.finish -. e.start)
              *. float_of_int (Qgdg.Inst.width e.inst)))
        0. t.entries
    in
    busy /. (float_of_int t.n_qubits *. t.makespan)
  end

let linearize t = List.map (fun e -> e.inst) t.entries

let to_circuit t =
  Qgate.Circuit.make t.n_qubits
    (List.concat_map (fun e -> e.inst.Qgdg.Inst.gates) t.entries)

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule: makespan %.2f ns@," t.makespan;
  List.iter
    (fun e ->
      Format.fprintf ppf "  [%8.2f, %8.2f] %a@," e.start e.finish Qgdg.Inst.pp
        e.inst)
    t.entries;
  Format.fprintf ppf "@]"
