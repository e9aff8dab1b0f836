type t = {
  n_qubits : int;
  mutable nodes : Inst.t option array;
  mutable links : int array array;
  mutable size : int;
  head : int array;
  last : int array;
  mutable next : int;
  order : int array;
  mutable pos : int array;
  mutable mark : Bytes.t;
}

let n_qubits g = g.n_qubits
let size g = g.size

let find g id =
  match if id >= 0 && id < Array.length g.nodes then g.nodes.(id) else None with
  | Some i -> i
  | None -> raise Not_found

let mem g id = id >= 0 && id < Array.length g.nodes && Option.is_some g.nodes.(id)
let next_id g = g.next

(* the links of [x], [[||]] for an id with no live node *)
let links_of g x = if x >= 0 && x < Array.length g.links then g.links.(x) else [||]

(* the slot of qubit [q] in a link array, [-1] when the node is not on
   that chain *)
let slot l q =
  let w = Array.length l / 3 in
  let rec go k = if k >= w then -1 else if l.(k) = q then k else go (k + 1) in
  go 0

(* field [f] (0 the qubit, 1 predecessor, 2 successor) of the slot of
   qubit [q] in a link array, [-1] off the node's support *)
let field l q f = match slot l q with -1 -> -1 | k -> l.((f * (Array.length l / 3)) + k)

let iter_block l block f =
  let w = Array.length l / 3 in
  for k = block * w to ((block + 1) * w) - 1 do
    let y = l.(k) in
    if y >= 0 then f y
  done

(* rewire [x]'s predecessor ([f = 1]) or successor ([f = 2]) on [q] to
   [v]; [x = -1] stands for the chain's end or head pointer *)
let set_field g x q f v =
  if x >= 0 then
    let l = g.links.(x) in
    l.((f * (Array.length l / 3)) + slot l q) <- v
  else if f = 2 then g.head.(q) <- v
  else g.last.(q) <- v

let ensure_capacity g id =
  let cap = Array.length g.links in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * cap) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    g.nodes <- grow g.nodes None;
    g.links <- grow g.links [||];
    g.pos <- grow g.pos (-1);
    g.mark <- Bytes.extend g.mark 0 (ncap - cap);
    Bytes.fill g.mark cap (ncap - cap) '\000'
  end

let of_insts ~n_qubits insts =
  let nq = max 1 n_qubits in
  let g =
    { n_qubits; nodes = [||]; links = [||]; size = 0;
      head = Array.make nq (-1); last = Array.make nq (-1); next = 0;
      order = Array.make (List.length insts) (-1); pos = [||];
      mark = Bytes.empty }
  in
  (* the id-indexed tables sized once for the ids given *)
  ensure_capacity g
    (List.fold_left (fun acc (i : Inst.t) -> max acc i.Inst.id) (-1) insts);
  (* list order is a topological order: every chain edge runs forward *)
  List.iteri
    (fun p (i : Inst.t) ->
      let id = i.Inst.id in
      if id < 0 then invalid_arg "Gdg.of_insts: negative instruction id";
      if mem g id then invalid_arg "Gdg.of_insts: duplicate instruction id";
      List.iter
        (fun q ->
          if q < 0 || q >= n_qubits then
            invalid_arg "Gdg.of_insts: qubit out of range")
        i.Inst.qubits;
      let w = List.length i.Inst.qubits in
      if List.length (List.sort_uniq compare i.Inst.qubits) <> w then
        invalid_arg "Gdg.of_insts: repeated qubit";
      if i.Inst.gates = [] then invalid_arg "Gdg.of_insts: empty gate list";
      if not (Float.is_finite i.Inst.latency && i.Inst.latency >= 0.) then
        invalid_arg "Gdg.of_insts: latency not finite and non-negative";
      if id >= g.next then g.next <- id + 1;
      ensure_capacity g id;
      g.nodes.(id) <- Some i;
      g.order.(p) <- id;
      g.pos.(id) <- p;
      g.size <- g.size + 1;
      let l = Array.make (3 * w) (-1) in
      g.links.(id) <- l;
      List.iteri
        (fun k q ->
          let p = g.last.(q) in
          l.(k) <- q;
          l.(w + k) <- p;
          set_field g p q 2 id;
          g.last.(q) <- id)
        i.Inst.qubits)
    insts;
  g

let of_circuit ~latency circuit =
  let insts =
    List.mapi
      (fun id gate -> Inst.of_gate ~id ~latency:(latency [ gate ]) gate)
      (Qgate.Circuit.gates circuit)
  in
  of_insts ~n_qubits:(Qgate.Circuit.n_qubits circuit) insts

(* Kahn topological order over per-qubit chain edges, the ready node with
   the least id first; nodes left with a positive in-degree sit on (or
   behind) a dependence cycle. Links to an id that is not a live node are
   skipped so the walk stays total on corrupted graphs. *)
let kahn g =
  let n = Array.length g.nodes in
  let indeg = Array.make n 0 in
  let iter_succs id f =
    let l = links_of g id in
    let w = Array.length l / 3 in
    for k = 2 * w to (3 * w) - 1 do
      let s = l.(k) in
      if mem g s then f s
    done
  in
  for id = 0 to n - 1 do
    if mem g id then iter_succs id (fun s -> indeg.(s) <- indeg.(s) + 1)
  done;
  let module Iset = Set.Make (Int) in
  let ready = ref Iset.empty in
  for id = 0 to n - 1 do
    if mem g id && indeg.(id) = 0 then ready := Iset.add id !ready
  done;
  let order = ref [] in
  while not (Iset.is_empty !ready) do
    let id = Iset.min_elt !ready in
    ready := Iset.remove id !ready;
    order := id :: !order;
    iter_succs id (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := Iset.add s !ready)
  done;
  let stuck = ref [] in
  for id = n - 1 downto 0 do
    if indeg.(id) > 0 then stuck := id :: !stuck
  done;
  (List.rev !order, !stuck)

let topo_ids g =
  match kahn g with
  | order, [] -> order
  | _ -> failwith "Gdg: cyclic dependence graph"

let insts g = List.map (find g) (topo_ids g)
let iter_insts g f = Array.iter (function Some i -> f i | None -> ()) g.nodes

let chain_ids g q =
  if q < 0 || q >= g.n_qubits then
    invalid_arg "Gdg.chain_ids: qubit out of range";
  let rec walk acc x = if x < 0 then acc else walk (x :: acc) (field (links_of g x) q 1) in
  walk [] g.last.(q)

let chain g q =
  if q < 0 || q >= g.n_qubits then invalid_arg "Gdg.chain: qubit out of range";
  List.map (find g) (chain_ids g q)

let neighbor_on g id x =
  if not (mem g id) then raise Not_found;
  if x < 0 then None else Some (find g x)

let pred_on g id ~qubit = neighbor_on g id (field (links_of g id) qubit 1)
let succ_on g id ~qubit = neighbor_on g id (field (links_of g id) qubit 2)

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
  g.nodes.(id) <- Some { inst with Inst.latency }

let copy g =
  { n_qubits = g.n_qubits;
    nodes = Array.copy g.nodes;
    links = Array.map Array.copy g.links;
    size = g.size;
    head = Array.copy g.head;
    last = Array.copy g.last;
    next = g.next;
    order = Array.copy g.order;
    pos = Array.copy g.pos;
    mark = Bytes.copy g.mark }

(* The one search of a merge. [m] has just taken slot [hi], the later
   endpoint's, and [lo] is a hole. Every chain edge then runs forward in
   [order] except those from [m] to a chain successor of the earlier
   endpoint inside the window (lo, hi). A cycle must take one of those
   edges and come back to [m] along forward edges, so through the window
   alone: the forward walk F from [m] within the window meets [m] again
   iff the merge closed a cycle. Otherwise B, the window nodes reaching
   [m], is collected too, and the slots of B, [m] and F, sorted, go to
   B, then [m], then F, each group in its old order (Pearce and Kelly's
   reorder, whose region is the window alone since no path leaves it and
   comes back). Returns whether a cycle was found; every mark is clear
   again on return. *)
let repair_order g m ~lo ~hi =
  let cyclic = ref false in
  let rec collect block acc x =
    iter_block g.links.(x) block (fun y ->
        if y = m then cyclic := true
        else
          let p = g.pos.(y) in
          if p > lo && p < hi && Bytes.get g.mark y = '\000' then begin
            Bytes.set g.mark y '\001';
            acc := y :: !acc;
            collect block acc y
          end)
  in
  let fwd = ref [] and bwd = ref [] in
  collect 2 fwd m;
  if !fwd <> [] then begin
    Qobs.Metrics.tick "gdg.merge.probes";
    if not !cyclic then collect 1 bwd m;
    List.iter (List.iter (fun x -> Bytes.set g.mark x '\000')) [ !fwd; !bwd ];
    if not !cyclic then begin
      let by_pos = List.sort (fun x y -> compare g.pos.(x) g.pos.(y)) in
      let ids = by_pos !bwd @ (m :: by_pos !fwd) in
      let slots = List.sort compare (List.map (fun x -> g.pos.(x)) ids) in
      List.iter2
        (fun x p ->
          g.order.(p) <- x;
          g.pos.(x) <- p)
        ids slots
    end
  end;
  !cyclic

let merge g ~latency a b =
  if a = b then invalid_arg "Gdg.merge: cannot merge a node with itself";
  let ia = find g a and ib = find g b in
  let la = g.links.(a) and lb = g.links.(b) in
  let pa = g.pos.(a) and pb = g.pos.(b) in
  let m = g.next in
  let merged = Inst.merge ~id:m ~latency ia ib in
  g.next <- m + 1;
  ensure_capacity g m;
  let wm = List.length merged.Inst.qubits in
  let lm = Array.make (3 * wm) (-1) in
  (* on each support qubit [m] takes the place of the earlier endpoint
     and the later one, if any, is unlinked. Only [m]'s slots and the
     surviving neighbours' are written, so [a] and [b] keep theirs for a
     rollback. *)
  List.iteri
    (fun k q ->
      let on l = slot l q >= 0 in
      let le, ll, later =
        if on la && (pa < pb || not (on lb)) then (la, lb, b) else (lb, la, a)
      in
      let p = field le q 1 and s = field le q 2 in
      let s =
        if not (on ll) then s
        else if s = later then field ll q 2
        else begin
          set_field g (field ll q 1) q 2 (field ll q 2);
          set_field g (field ll q 2) q 1 (field ll q 1);
          s
        end
      in
      List.iteri (fun f v -> lm.((f * wm) + k) <- v) [ q; p; s ];
      set_field g p q 2 m;
      set_field g s q 1 m)
    merged.Inst.qubits;
  g.links.(m) <- lm;
  g.links.(a) <- [||];
  g.links.(b) <- [||];
  g.nodes.(a) <- None;
  g.nodes.(b) <- None;
  g.nodes.(m) <- Some merged;
  g.size <- g.size - 1;
  let lo = min pa pb and hi = max pa pb in
  g.order.(lo) <- -1;
  g.order.(hi) <- m;
  g.pos.(m) <- hi;
  if repair_order g m ~lo ~hi then begin
    (* re-attach [a] and [b] from their own slots; a neighbour that is
       the other endpoint kept its slots *)
    List.iter
      (fun (x, l) ->
        g.links.(x) <- l;
        g.order.(g.pos.(x)) <- x;
        let w = Array.length l / 3 in
        for k = 0 to w - 1 do
          let q = l.(k) and p = l.(w + k) and s = l.((2 * w) + k) in
          if p <> a && p <> b then set_field g p q 2 x;
          if s <> a && s <> b then set_field g s q 1 x
        done)
      [ (a, la); (b, lb) ];
    g.links.(m) <- [||];
    g.pos.(m) <- -1;
    g.nodes.(m) <- None;
    g.nodes.(a) <- Some ia;
    g.nodes.(b) <- Some ib;
    g.size <- g.size + 1;
    g.next <- m;
    invalid_arg "Gdg.merge: merge would create a dependence cycle"
  end;
  merged

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
  (* every chain, walked head to end through the successor links, visits
     live nodes acting on that qubit, each once; every node sits on each
     of its support chains; the graph is acyclic. A walk stops at the
     first broken link, so it terminates on any corruption. *)
  let probs = ref [] in
  let add p = probs := p :: !probs in
  let on_chain = Array.init g.n_qubits (fun _ -> Hashtbl.create 16) in
  for q = 0 to g.n_qubits - 1 do
    let seen = on_chain.(q) in
    let rec walk x =
      if x >= 0 then
        if not (mem g x) then add (Dangling_node { qubit = q; id = x })
        else if Hashtbl.mem seen x then
          add (Duplicate_on_chain { qubit = q; id = x })
        else begin
          Hashtbl.replace seen x ();
          if not (Inst.acts_on (find g x) q) || slot (links_of g x) q < 0
          then add (Not_in_support { qubit = q; id = x })
          else walk (field (links_of g x) q 2)
        end
    in
    walk g.head.(q)
  done;
  iter_insts g (fun i ->
      List.iter
        (fun q ->
          if q >= 0 && q < g.n_qubits && not (Hashtbl.mem on_chain.(q) i.Inst.id)
          then add (Missing_from_chain { qubit = q; id = i.Inst.id }))
        i.Inst.qubits);
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
