let seed_split g =
  let n = Graph.n_vertices g in
  let side = Array.make n false in
  let size_a = (n + 1) / 2 in
  (* grow side A by BFS from vertex 0 so the seed split already follows the
     graph's cluster structure; fill up from unvisited vertices if needed *)
  let count = ref 0 in
  let seen = Array.make n false in
  let queue = Queue.create () in
  let push v =
    if (not seen.(v)) && !count < size_a then begin
      seen.(v) <- true;
      side.(v) <- true;
      incr count;
      Queue.add v queue
    end
  in
  if n > 0 then push 0;
  while !count < size_a do
    if Queue.is_empty queue then begin
      (* disconnected graph: restart from the next unvisited vertex *)
      let rec find v = if seen.(v) then find (v + 1) else v in
      push (find 0)
    end
    else begin
      let u = Queue.pop queue in
      List.iter push (Graph.neighbors g u)
    end
  done;
  side

(* one Kernighan–Lin pass; returns true when it improved the cut *)
let kl_pass g side =
  let n = Graph.n_vertices g in
  if n < 2 then false
  else begin
    let locked = Array.make n false in
    let d = Array.make n 0. in
    let recompute v =
      let acc = ref 0. in
      List.iter
        (fun u ->
          let w = Graph.weight g v u in
          if side.(u) <> side.(v) then acc := !acc +. w else acc := !acc -. w)
        (Graph.neighbors g v);
      d.(v) <- !acc
    in
    for v = 0 to n - 1 do
      recompute v
    done;
    let swaps = ref [] in
    let cumulative = ref 0. in
    let best_sum = ref 0. and best_len = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      (* best unlocked pair (a in A, b in B) *)
      let best = ref None in
      for a = 0 to n - 1 do
        if side.(a) && not locked.(a) then
          for b = 0 to n - 1 do
            if (not side.(b)) && not locked.(b) then begin
              let gain = d.(a) +. d.(b) -. (2. *. Graph.weight g a b) in
              match !best with
              | Some (_, _, bg) when bg >= gain -> ()
              | _ -> best := Some (a, b, gain)
            end
          done
      done;
      match !best with
      | None -> continue_ := false
      | Some (a, b, gain) ->
        locked.(a) <- true;
        locked.(b) <- true;
        side.(a) <- false;
        side.(b) <- true;
        cumulative := !cumulative +. gain;
        swaps := (a, b) :: !swaps;
        if !cumulative > !best_sum +. 1e-12 then begin
          best_sum := !cumulative;
          best_len := List.length !swaps
        end;
        List.iter recompute (a :: b :: Graph.neighbors g a @ Graph.neighbors g b)
    done;
    (* roll back swaps beyond the best prefix *)
    let all = List.rev !swaps in
    List.iteri
      (fun k (a, b) ->
        if k >= !best_len then begin
          side.(a) <- true;
          side.(b) <- false
        end)
      all;
    !best_sum > 1e-12
  end

(* Kernighan–Lin refinement sweeps per bisection *)
let passes = 8

let bisect g =
  let side = seed_split g in
  let rec refine remaining =
    if remaining > 0 && kl_pass g side then refine (remaining - 1)
  in
  refine passes;
  side

let bisect_list g =
  let side = bisect g in
  let a = ref [] and b = ref [] in
  for v = Graph.n_vertices g - 1 downto 0 do
    if side.(v) then a := v :: !a else b := v :: !b
  done;
  (!a, !b)

let recursive_order g =
  let rec go vertices =
    match vertices with
    | [] -> []
    | [ v ] -> [ v ]
    | [ u; v ] -> [ u; v ]
    | _ ->
      let sub, back = Graph.induced g vertices in
      let a, b = bisect_list sub in
      let lift side = List.map (fun v -> back.(v)) side in
      go (lift a) @ go (lift b)
  in
  Array.of_list (go (List.init (Graph.n_vertices g) (fun v -> v)))
