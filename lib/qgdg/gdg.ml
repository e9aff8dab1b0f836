type t = {
  n_qubits : int;
  nodes : (int, Inst.t) Hashtbl.t;
  chains : int list array;
  mutable next : int;
}

let n_qubits g = g.n_qubits
let size g = Hashtbl.length g.nodes
let find g id = match Hashtbl.find_opt g.nodes id with
  | Some i -> i
  | None -> raise Not_found

let mem g id = Hashtbl.mem g.nodes id

let fresh_id g =
  let id = g.next in
  g.next <- id + 1;
  id

let next_id g = g.next

let of_insts ~n_qubits insts =
  let nodes = Hashtbl.create 64 in
  let chains = Array.make (max 1 n_qubits) [] in
  let next = ref 0 in
  List.iter
    (fun (i : Inst.t) ->
      if Hashtbl.mem nodes i.Inst.id then
        invalid_arg "Gdg.of_insts: duplicate instruction id";
      List.iter
        (fun q ->
          if q < 0 || q >= n_qubits then
            invalid_arg "Gdg.of_insts: qubit out of range")
        i.Inst.qubits;
      Hashtbl.replace nodes i.Inst.id i;
      if i.Inst.id >= !next then next := i.Inst.id + 1;
      List.iter (fun q -> chains.(q) <- i.Inst.id :: chains.(q)) i.Inst.qubits)
    insts;
  Array.iteri (fun q c -> chains.(q) <- List.rev c) chains;
  { n_qubits; nodes; chains; next = !next }

let of_circuit ~latency circuit =
  let insts =
    List.mapi
      (fun id gate -> Inst.of_gate ~id ~latency:(latency [ gate ]) gate)
      (Qgate.Circuit.gates circuit)
  in
  of_insts ~n_qubits:(Qgate.Circuit.n_qubits circuit) insts

(* per-(node, qubit) chain neighbors, built in one pass over all chains *)
let edge_tables g =
  let pred : (int * int, int) Hashtbl.t = Hashtbl.create (2 * size g) in
  let succ : (int * int, int) Hashtbl.t = Hashtbl.create (2 * size g) in
  Array.iteri
    (fun q chain ->
      let rec walk = function
        | [] | [ _ ] -> ()
        | x :: (y :: _ as rest) ->
          Hashtbl.replace succ (x, q) y;
          Hashtbl.replace pred (y, q) x;
          walk rest
      in
      walk chain)
    g.chains;
  (pred, succ)

(* Kahn topological order over per-qubit chain edges; nodes left with a
   positive in-degree sit on (or behind) a dependence cycle. Edges whose
   endpoint is not a live node (a dangling chain id) are skipped so the
   walk stays total on corrupted graphs. *)
let kahn g =
  let _, succ = edge_tables g in
  let indeg = Hashtbl.create (size g) in
  Hashtbl.iter (fun id _ -> Hashtbl.replace indeg id 0) g.nodes;
  let bump id d =
    match Hashtbl.find_opt indeg id with
    | None -> ()
    | Some v -> Hashtbl.replace indeg id (v + d)
  in
  Hashtbl.iter (fun _ s -> bump s 1) succ;
  let order = ref [] in
  let module Iset = Set.Make (Int) in
  let ready = ref Iset.empty in
  Hashtbl.iter (fun id d -> if d = 0 then ready := Iset.add id !ready) indeg;
  let emitted = ref 0 in
  while not (Iset.is_empty !ready) do
    let id = Iset.min_elt !ready in
    ready := Iset.remove id !ready;
    order := id :: !order;
    incr emitted;
    let inst = find g id in
    List.iter
      (fun q ->
        match Hashtbl.find_opt succ (id, q) with
        | None -> ()
        | Some s ->
          bump s (-1);
          if Hashtbl.find_opt indeg s = Some 0 then ready := Iset.add s !ready)
      inst.Inst.qubits
  done;
  let stuck =
    Hashtbl.fold (fun id d acc -> if d > 0 then id :: acc else acc) indeg []
  in
  (List.rev !order, List.sort compare stuck)

let topo_ids g =
  match kahn g with
  | order, [] -> order
  | _ -> failwith "Gdg: cyclic dependence graph"

let insts g = List.map (find g) (topo_ids g)
let iter_insts g f = Hashtbl.iter (fun _ i -> f i) g.nodes

let chain g q =
  if q < 0 || q >= g.n_qubits then invalid_arg "Gdg.chain: qubit out of range";
  List.map (find g) g.chains.(q)

let chain_ids g q =
  if q < 0 || q >= g.n_qubits then
    invalid_arg "Gdg.chain_ids: qubit out of range";
  g.chains.(q)

let neighbor_on g id ~qubit ~dir =
  if not (mem g id) then raise Not_found;
  let rec walk = function
    | [] | [ _ ] -> None
    | x :: (y :: _ as rest) ->
      if x = id && dir = `Succ then Some y
      else if y = id && dir = `Pred then Some x
      else walk rest
  in
  Option.map (find g) (walk g.chains.(qubit))

let pred_on g id ~qubit = neighbor_on g id ~qubit ~dir:`Pred
let succ_on g id ~qubit = neighbor_on g id ~qubit ~dir:`Succ
let neighbor_tables g = edge_tables g

let parents g id =
  let inst = find g id in
  inst.Inst.qubits
  |> List.filter_map (fun q -> pred_on g id ~qubit:q)
  |> List.sort_uniq (fun (a : Inst.t) b -> compare a.Inst.id b.Inst.id)

let children g id =
  let inst = find g id in
  inst.Inst.qubits
  |> List.filter_map (fun q -> succ_on g id ~qubit:q)
  |> List.sort_uniq (fun (a : Inst.t) b -> compare a.Inst.id b.Inst.id)

let set_latency g id latency =
  if not (Float.is_finite latency) then
    invalid_arg "Gdg.set_latency: non-finite latency";
  if latency < 0. then invalid_arg "Gdg.set_latency: negative latency";
  let inst = find g id in
  Hashtbl.replace g.nodes id { inst with Inst.latency }

let copy g =
  { n_qubits = g.n_qubits;
    nodes = Hashtbl.copy g.nodes;
    chains = Array.copy g.chains;
    next = g.next }

(* Bounded cycle check after contracting two nodes into [m]. Contracting
   a DAG can only create cycles through the contracted node, and such a
   cycle must re-enter [m] through one of its chain predecessors — all old
   nodes. [rank] is a pre-merge topological potential (ASAP start times):
   along every post-merge edge between old nodes, rank is non-decreasing
   (the edge either existed before or shortcuts an old path through a
   dropped occurrence of a merge endpoint). Every node on a path from a
   successor of [m] back into [m] therefore has rank at most the largest
   predecessor rank, so a BFS from [m]'s successors pruned at that bound
   is sound AND complete — and in the common accepted-merge case visits
   only the short time-window between the merge endpoints instead of the
   whole graph. Callers should return [neg_infinity] for unknown ids
   (never pruned, keeping the check sound). *)
let cycle_through g ~rank m =
  let inst = find g m in
  let preds = ref [] and succs = ref [] in
  List.iter
    (fun q ->
      let rec walk prev = function
        | [] -> ()
        | x :: rest ->
          if x = m then begin
            (match prev with Some p -> preds := p :: !preds | None -> ());
            match rest with y :: _ -> succs := y :: !succs | [] -> ()
          end
          else walk (Some x) rest
      in
      walk None g.chains.(q))
    inst.Inst.qubits;
  match !preds with
  | [] -> false
  | ps ->
    let bound = List.fold_left (fun acc p -> Float.max acc (rank p)) neg_infinity ps in
    (* lazy per-qubit successor index: only chains the BFS actually
       crosses get walked *)
    let next_tbl : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
    let next_on q id =
      let tbl =
        match Hashtbl.find_opt next_tbl q with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 16 in
          let rec idx = function
            | x :: (y :: _ as rest) ->
              Hashtbl.replace t x y;
              idx rest
            | _ -> ()
          in
          idx g.chains.(q);
          Hashtbl.replace next_tbl q t;
          t
      in
      Hashtbl.find_opt tbl id
    in
    let visited = Hashtbl.create 16 in
    let queue = Queue.create () in
    List.iter
      (fun s ->
        if rank s <= bound && not (Hashtbl.mem visited s) then begin
          Hashtbl.replace visited s ();
          Queue.add s queue
        end)
      !succs;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      List.iter
        (fun q ->
          match next_on q x with
          | None -> ()
          | Some y ->
            if y = m then found := true
            else if (not (Hashtbl.mem visited y)) && rank y <= bound then begin
              Hashtbl.replace visited y ();
              Queue.add y queue
            end)
        (find g x).Inst.qubits
    done;
    !found

let merge ?rank g ~latency a b =
  if a = b then invalid_arg "Gdg.merge: cannot merge a node with itself";
  let ia = find g a and ib = find g b in
  let saved_chains = Array.copy g.chains in
  let saved_next = g.next in
  let merged = Inst.merge ~id:(fresh_id g) ~latency ia ib in
  let replace chain =
    (* put the merged node at the first occurrence of either id, drop the
       second occurrence *)
    let rec go seen = function
      | [] -> []
      | x :: rest when x = a || x = b ->
        if seen then go seen rest else merged.Inst.id :: go true rest
      | x :: rest -> x :: go seen rest
    in
    go false chain
  in
  List.iter
    (fun q -> g.chains.(q) <- replace g.chains.(q))
    merged.Inst.qubits;
  Hashtbl.remove g.nodes a;
  Hashtbl.remove g.nodes b;
  Hashtbl.replace g.nodes merged.Inst.id merged;
  let cyclic =
    match rank with
    | Some rank -> cycle_through g ~rank merged.Inst.id
    | None -> (match kahn g with _, [] -> false | _ -> true)
  in
  if cyclic then begin
    Array.blit saved_chains 0 g.chains 0 Array.(length saved_chains);
    Hashtbl.remove g.nodes merged.Inst.id;
    Hashtbl.replace g.nodes a ia;
    Hashtbl.replace g.nodes b ib;
    g.next <- saved_next;
    invalid_arg "Gdg.merge: merge would create a dependence cycle"
  end;
  merged

let asap g =
  let pred, _ = edge_tables g in
  let finish = Hashtbl.create (size g) in
  let entries = ref [] in
  let makespan = ref 0. in
  List.iter
    (fun id ->
      let inst = find g id in
      let start =
        List.fold_left
          (fun acc q ->
            match Hashtbl.find_opt pred (id, q) with
            | None -> acc
            | Some p -> Float.max acc (Hashtbl.find finish p))
          0. inst.Inst.qubits
      in
      let f = start +. inst.Inst.latency in
      Hashtbl.replace finish id f;
      entries := (id, (start, f)) :: !entries;
      if f > !makespan then makespan := f)
    (topo_ids g);
  (List.rev !entries, !makespan)

let makespan g = snd (asap g)

let all_gates g = List.concat_map (fun i -> i.Inst.gates) (insts g)

type problem =
  | Dangling_node of { qubit : int; id : int }
  | Not_in_support of { qubit : int; id : int }
  | Missing_from_chain of { qubit : int; id : int }
  | Duplicate_on_chain of { qubit : int; id : int }
  | Cycle of int list

let problem_message = function
  | Dangling_node { qubit; id } ->
    Printf.sprintf "Gdg: dangling node %d on qubit %d" id qubit
  | Not_in_support { qubit; id } ->
    Printf.sprintf "Gdg: node %d on chain %d but not in support" id qubit
  | Missing_from_chain { qubit; id } ->
    Printf.sprintf "Gdg: node %d missing from chain %d" id qubit
  | Duplicate_on_chain { qubit; id } ->
    Printf.sprintf "Gdg: duplicate node %d on qubit %d" id qubit
  | Cycle ids ->
    Printf.sprintf "Gdg: cyclic dependence through nodes %s"
      (String.concat ", " (List.map string_of_int ids))

let problems g =
  (* every chain id resolves; every node appears exactly once per support
     qubit and nowhere else; the graph is acyclic *)
  let probs = ref [] in
  let add p = probs := p :: !probs in
  Array.iteri
    (fun q chain ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt g.nodes id with
          | None -> add (Dangling_node { qubit = q; id })
          | Some inst ->
            if not (Inst.acts_on inst q) then
              add (Not_in_support { qubit = q; id }))
        chain;
      let sorted = List.sort compare chain in
      let rec dups = function
        | x :: y :: rest when x = y ->
          add (Duplicate_on_chain { qubit = q; id = x });
          dups (List.filter (fun z -> z <> x) rest)
        | _ :: rest -> dups rest
        | [] -> ()
      in
      dups sorted)
    g.chains;
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) g.nodes []) in
  List.iter
    (fun id ->
      let inst = find g id in
      List.iter
        (fun q ->
          if q >= 0 && q < Array.length g.chains
             && not (List.mem id g.chains.(q)) then
            add (Missing_from_chain { qubit = q; id }))
        inst.Inst.qubits)
    ids;
  (match kahn g with _, [] -> () | _, stuck -> add (Cycle stuck));
  List.rev !probs

let validate g =
  match problems g with
  | [] -> ()
  | p :: _ -> failwith (problem_message p)

let pp ppf g =
  Format.fprintf ppf "@[<v>gdg: %d qubits, %d instructions@," g.n_qubits (size g);
  List.iter (fun i -> Format.fprintf ppf "  %a@," Inst.pp i) (insts g);
  Format.fprintf ppf "@]"
