module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst
module D = Diagnostic

let inst_sanity ?stage (i : Inst.t) =
  let diags = ref [] in
  if i.Inst.gates = [] then
    diags :=
      D.make ?stage ~insts:[ i.Inst.id ] ~code:"QL027" ~severity:D.Error
        (Printf.sprintf "instruction %d has no member gates" i.Inst.id)
      :: !diags;
  if i.Inst.latency < 0. then
    diags :=
      D.make ?stage ~insts:[ i.Inst.id ] ~code:"QL028" ~severity:D.Error
        (Printf.sprintf "instruction %d has negative latency %g" i.Inst.id
           i.Inst.latency)
      :: !diags;
  List.rev !diags

let of_problem ?stage = function
  | Gdg.Cycle ids ->
    D.make ?stage ~insts:ids ~code:"QL020" ~severity:D.Error
      (Printf.sprintf "dependence cycle through instructions %s"
         (String.concat ", " (List.map string_of_int ids)))
  | Gdg.Dangling_node { qubit; id } ->
    D.make ?stage ~insts:[ id ] ~qubits:[ qubit ] ~code:"QL021"
      ~severity:D.Error
      (Printf.sprintf "qubit %d's chain references instruction %d, which \
                       does not exist"
         qubit id)
  | Gdg.Not_in_support { qubit; id } ->
    D.make ?stage ~insts:[ id ] ~qubits:[ qubit ] ~code:"QL022"
      ~severity:D.Error
      (Printf.sprintf
         "instruction %d sits on qubit %d's chain but does not act on it" id
         qubit)
  | Gdg.Missing_from_chain { qubit; id } ->
    D.make ?stage ~insts:[ id ] ~qubits:[ qubit ] ~code:"QL023"
      ~severity:D.Error
      (Printf.sprintf
         "instruction %d acts on qubit %d but is missing from its chain" id
         qubit)
  | Gdg.Duplicate_on_chain { qubit; id } ->
    D.make ?stage ~insts:[ id ] ~qubits:[ qubit ] ~code:"QL024"
      ~severity:D.Error
      (Printf.sprintf "instruction %d appears twice on qubit %d's chain" id
         qubit)

let run ?stage g =
  let structural = List.map (of_problem ?stage) (Gdg.problems g) in
  (* the remaining checks need a well-formed node table; skip them when
     the structure is already broken rather than raise mid-analysis *)
  if structural <> [] then structural
  else begin
    let diags = ref [] in
    List.iter
      (fun (i : Inst.t) ->
        diags := List.rev_append (inst_sanity ?stage i) !diags;
        List.iter
          (fun (p : Inst.t) ->
            if not (Inst.shares_qubit p i) then
              diags :=
                D.make ?stage ~insts:[ p.Inst.id; i.Inst.id ] ~code:"QL026"
                  ~severity:D.Error
                  (Printf.sprintf
                     "instruction %d is a parent of %d but they share no \
                      qubit"
                     p.Inst.id i.Inst.id)
                :: !diags)
          (Gdg.parents g i.Inst.id))
      (Gdg.insts g);
    List.rev !diags
  end

let check_insts ?stage ~n_qubits insts =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (i : Inst.t) ->
      if Hashtbl.mem seen i.Inst.id then
        add
          (D.make ?stage ~insts:[ i.Inst.id ] ~code:"QL025" ~severity:D.Error
             (Printf.sprintf "duplicate instruction id %d in the stream"
                i.Inst.id))
      else Hashtbl.replace seen i.Inst.id ();
      List.iter
        (fun q ->
          if q < 0 || q >= n_qubits then
            add
              (D.make ?stage ~insts:[ i.Inst.id ] ~qubits:[ q ] ~code:"QL010"
                 ~severity:D.Error
                 (Printf.sprintf
                    "instruction %d touches qubit %d outside the %d-qubit \
                     register"
                    i.Inst.id q n_qubits)))
        i.Inst.qubits;
      let rec repeated = function
        | x :: (y :: _ as rest) ->
          if x = y then
            add
              (D.make ?stage ~insts:[ i.Inst.id ] ~qubits:[ x ] ~code:"QL024"
                 ~severity:D.Error
                 (Printf.sprintf "instruction %d lists qubit %d twice"
                    i.Inst.id x))
          else repeated rest
        | _ -> ()
      in
      repeated (List.sort compare i.Inst.qubits);
      List.iter add (inst_sanity ?stage i))
    insts;
  List.rev !diags
