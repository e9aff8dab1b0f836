type t = { logical_to_site : int array; site_to_logical : int array }

let site_order topo =
  match topo with
  | Topology.Line n | Topology.Full n -> Array.init n (fun k -> k)
  | Topology.Grid g ->
    let w = g.Qgraph.Grid.width and h = g.Qgraph.Grid.height in
    let order = Array.make (w * h) 0 in
    let k = ref 0 in
    for row = 0 to h - 1 do
      for col = 0 to w - 1 do
        let c = if row mod 2 = 0 then col else w - 1 - col in
        order.(!k) <- Qgraph.Grid.index g ~row ~col:c;
        incr k
      done
    done;
    order

let of_assignment ~n_sites logical_to_site =
  let site_to_logical = Array.make n_sites (-1) in
  Array.iteri
    (fun logical site ->
      if site < 0 || site >= n_sites then
        invalid_arg "Placement: site out of range";
      if site_to_logical.(site) <> -1 then
        invalid_arg "Placement: two logical qubits on one site";
      site_to_logical.(site) <- logical)
    logical_to_site;
  { logical_to_site; site_to_logical }

let identity ~n_logical topo =
  let n_sites = Topology.n_sites topo in
  if n_logical > n_sites then invalid_arg "Placement.identity: device too small";
  of_assignment ~n_sites (Array.init n_logical (fun q -> q))

let initial topo circuit =
  let n_logical = Qgate.Circuit.n_qubits circuit in
  let n_sites = Topology.n_sites topo in
  if n_logical > n_sites then invalid_arg "Placement.initial: device too small";
  let interaction = Qgate.Circuit.interaction_graph circuit in
  let logical_order = Qgraph.Partition.recursive_order interaction in
  let sites = site_order topo in
  let logical_to_site = Array.make n_logical 0 in
  Array.iteri
    (fun pos logical -> logical_to_site.(logical) <- sites.(pos))
    logical_order;
  of_assignment ~n_sites logical_to_site

let apply_swap p a b =
  let n_sites = Array.length p.site_to_logical in
  if a < 0 || b < 0 || a >= n_sites || b >= n_sites then
    invalid_arg "Placement.apply_swap: site out of range";
  let logical_to_site = Array.copy p.logical_to_site in
  let site_to_logical = Array.copy p.site_to_logical in
  let la = site_to_logical.(a) and lb = site_to_logical.(b) in
  site_to_logical.(a) <- lb;
  site_to_logical.(b) <- la;
  if la <> -1 then logical_to_site.(la) <- b;
  if lb <> -1 then logical_to_site.(lb) <- a;
  { logical_to_site; site_to_logical }

let site_of p logical = p.logical_to_site.(logical)

let logical_at p site =
  match p.site_to_logical.(site) with -1 -> None | l -> Some l

let equal a b =
  a.logical_to_site = b.logical_to_site
  && a.site_to_logical = b.site_to_logical

let permutation_unitary ~n_qubits p =
  let dim = 1 lsl n_qubits in
  let remap idx =
    let out = ref 0 in
    Array.iteri
      (fun logical site ->
        if (idx lsr (n_qubits - 1 - logical)) land 1 = 1 then
          out := !out lor (1 lsl (n_qubits - 1 - site)))
      p.logical_to_site;
    (* bits of unoccupied sites stay in place only if every logical bit is
       mapped; unmapped high bits (sites beyond the register) are dropped,
       which is fine because inputs never populate them *)
    !out
  in
  Qnum.Cmat.init dim dim (fun r c ->
      if r = remap c then Qnum.Cx.one else Qnum.Cx.zero)
