module Gate = Qgate.Gate

let check_distinct qs name =
  let sorted = List.sort compare qs in
  let rec dup = function
    | x :: y :: _ when x = y -> true
    | _ :: rest -> dup rest
    | [] -> false
  in
  if dup sorted then invalid_arg (name ^ ": overlapping qubits")

let mcx ~controls ~target ~ancillas =
  let k = List.length controls in
  if k = 0 then invalid_arg "Mcx.mcx: no controls";
  check_distinct ((target :: controls) @ ancillas) "Mcx.mcx";
  match controls with
  | [ c ] -> [ Gate.cnot c target ]
  | [ c1; c2 ] -> [ Gate.ccx c1 c2 target ]
  | c1 :: c2 :: rest ->
    if List.length ancillas < k - 2 then
      invalid_arg "Mcx.mcx: not enough ancillas";
    let ancillas = Array.of_list ancillas in
    let compute = ref [ Gate.ccx c1 c2 ancillas.(0) ] in
    List.iteri
      (fun idx c ->
        if idx < List.length rest - 1 then
          compute := Gate.ccx ancillas.(idx) c ancillas.(idx + 1) :: !compute)
      rest;
    let compute = List.rev !compute in
    let last_control = List.nth rest (List.length rest - 1) in
    let top_anc = ancillas.(List.length rest - 1) in
    compute
    @ [ Gate.ccx top_anc last_control target ]
    @ List.rev compute
  | [] -> assert false

let flip_zero_controls controls ~value =
  List.concat
    (List.mapi
       (fun k q -> if (value lsr k) land 1 = 0 then [ Gate.x q ] else [])
       controls)
