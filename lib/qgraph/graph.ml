type t = { n : int; adj : (int, float) Hashtbl.t array }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.init n (fun _ -> Hashtbl.create 4) }

let n_vertices g = g.n

let check g v =
  if v < 0 || v >= g.n then invalid_arg "Graph: vertex out of range"

let add_edge ?(weight = 1.) g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let prev = Option.value ~default:0. (Hashtbl.find_opt g.adj.(u) v) in
  Hashtbl.replace g.adj.(u) v (prev +. weight);
  Hashtbl.replace g.adj.(v) u (prev +. weight)

let remove_edge g u v =
  check g u;
  check g v;
  Hashtbl.remove g.adj.(u) v;
  Hashtbl.remove g.adj.(v) u

let has_edge g u v =
  check g u;
  check g v;
  Hashtbl.mem g.adj.(u) v

let weight g u v =
  check g u;
  check g v;
  Option.value ~default:0. (Hashtbl.find_opt g.adj.(u) v)

let neighbors g v =
  check g v;
  List.sort compare (Hashtbl.fold (fun u _ acc -> u :: acc) g.adj.(v) [])

let degree g v =
  check g v;
  Hashtbl.length g.adj.(v)

let edges g =
  let acc = ref [] in
  for u = 0 to g.n - 1 do
    Hashtbl.iter (fun v w -> if u < v then acc := (u, v, w) :: !acc) g.adj.(u)
  done;
  List.sort compare !acc

let n_edges g = List.length (edges g)

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g =
  { n = g.n; adj = Array.map Hashtbl.copy g.adj }

let bfs_distances g src =
  check g src;
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Hashtbl.iter
      (fun v _ ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  dist

let shortest_path g src dst =
  check g src;
  check g dst;
  if src = dst then [ src ]
  else begin
    let parent = Array.make g.n (-1) in
    let dist = Array.make g.n max_int in
    dist.(src) <- 0;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      (* visit neighbors in sorted order for deterministic paths *)
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            parent.(v) <- u;
            if v = dst then found := true;
            Queue.add v queue
          end)
        (neighbors g u)
    done;
    if not !found then raise Not_found;
    let rec walk v acc = if v = src then src :: acc else walk parent.(v) (v :: acc) in
    walk dst []
  end

let connected_components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for v = 0 to g.n - 1 do
    if not seen.(v) then begin
      let comp = ref [] in
      let queue = Queue.create () in
      Queue.add v queue;
      seen.(v) <- true;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        comp := u :: !comp;
        Hashtbl.iter
          (fun w _ ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
          g.adj.(u)
      done;
      comps := List.sort compare !comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g = g.n <= 1 || List.length (connected_components g) = 1

let cut_weight g side =
  if Array.length side <> g.n then invalid_arg "Graph.cut_weight: size mismatch";
  List.fold_left
    (fun acc (u, v, w) -> if side.(u) <> side.(v) then acc +. w else acc)
    0. (edges g)

let induced g vs =
  let k = List.length vs in
  let back = Array.of_list vs in
  let fwd = Hashtbl.create k in
  List.iteri (fun idx v -> Hashtbl.replace fwd v idx) vs;
  let sub = create k in
  List.iter
    (fun (u, v, w) ->
      match (Hashtbl.find_opt fwd u, Hashtbl.find_opt fwd v) with
      | Some a, Some b -> add_edge ~weight:w sub a b
      | _ -> ())
    (edges g);
  (sub, back)

let pp ppf g =
  Format.fprintf ppf "graph(n=%d):@ @[<v>" g.n;
  List.iter (fun (u, v, w) -> Format.fprintf ppf "%d -- %d (%g)@," u v w) (edges g);
  Format.fprintf ppf "@]"
