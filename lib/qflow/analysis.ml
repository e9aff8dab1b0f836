type circuit_result = {
  n_qubits : int;
  n_gates : int;
  final : Absval.t array;
  dead : (int * Qgate.Gate.t) list;
}

let gates ~n_qubits gs =
  let st = Array.make n_qubits Absval.bottom in
  let dead = ref [] in
  List.iteri
    (fun k g -> if Transfer.step st g then dead := (k, g) :: !dead)
    gs;
  { n_qubits; n_gates = List.length gs; final = st; dead = List.rev !dead }

let circuit c =
  gates ~n_qubits:(Qgate.Circuit.n_qubits c) (Qgate.Circuit.gates c)

type inst_info = {
  inst_id : int;
  input : (int * Absval.t) list;
  output : (int * Absval.t) list;
  summary : Qgdg.Oracle.t;
  dead_members : int list;
}

type gdg_result = {
  n_qubits : int;
  final : Absval.t array;
  insts : inst_info list;
  steps : int;
}

(* one pass in topological order: every chain predecessor is
   interpreted before the instructions that read its output *)
let gdg g =
  let n_qubits = Qgdg.Gdg.n_qubits g in
  let order = Qgdg.Gdg.insts g in
  (* per-instruction output values on its support qubits *)
  let out : (int, (int * Absval.t) list) Hashtbl.t = Hashtbl.create 64 in
  let info : (int, inst_info) Hashtbl.t = Hashtbl.create 64 in
  let input_of (i : Qgdg.Inst.t) =
    List.map
      (fun q ->
        match Qgdg.Gdg.pred_on g i.Qgdg.Inst.id ~qubit:q with
        | None -> (q, Absval.bottom)
        | Some p -> (q, List.assoc q (Hashtbl.find out p.Qgdg.Inst.id)))
      i.Qgdg.Inst.qubits
  in
  let steps = ref 0 in
  List.iter
    (fun (i : Qgdg.Inst.t) ->
      let id = i.Qgdg.Inst.id in
      let input = input_of i in
      incr steps;
      (* interpret the member gates on a full-width scratch state; gates
         of this block only touch its support *)
      let st = Array.make n_qubits Absval.top in
      List.iter (fun (q, v) -> st.(q) <- v) input;
      let dead_members = ref [] in
      List.iteri
        (fun k gate -> if Transfer.step st gate then dead_members := k :: !dead_members)
        i.Qgdg.Inst.gates;
      let output = List.map (fun q -> (q, st.(q))) i.Qgdg.Inst.qubits in
      Hashtbl.replace out id output;
      let summary, hit = Qgdg.Oracle.of_gates i.Qgdg.Inst.gates in
      Qobs.Metrics.tick
        (if hit then "qflow.summary.hit" else "qflow.summary.miss");
      Hashtbl.replace info id
        { inst_id = id;
          input;
          output;
          summary;
          dead_members = List.rev !dead_members })
    order;
  (* final per-qubit state: the output of the last instruction on each
     qubit's chain *)
  let final = Array.make n_qubits Absval.bottom in
  for q = 0 to n_qubits - 1 do
    match List.rev (Qgdg.Gdg.chain_ids g q) with
    | [] -> final.(q) <- Absval.bottom
    | last :: _ -> (
      match Hashtbl.find_opt out last with
      | Some vals -> (
        final.(q) <- (try List.assoc q vals with Not_found -> Absval.top))
      | None -> final.(q) <- Absval.top)
  done;
  { n_qubits;
    final;
    insts =
      List.map (fun (i : Qgdg.Inst.t) -> Hashtbl.find info i.Qgdg.Inst.id) order;
    steps = !steps }
