type t = { r : int; c : int; re : float array; im : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Cmat.create: negative dimension";
  { r; c; re = Array.make (r * c) 0.; im = Array.make (r * c) 0. }

let rows m = m.r
let cols m = m.c
let idx m i j = (i * m.c) + j

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Cmat.get";
  let k = idx m i j in
  Cx.make m.re.(k) m.im.(k)

let set m i j z =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Cmat.set";
  let k = idx m i j in
  m.re.(k) <- Cx.re z;
  m.im.(k) <- Cx.im z

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      set m i j (f i j)
    done
  done;
  m

let of_lists rows_l =
  match rows_l with
  | [] -> create 0 0
  | first :: _ ->
    let r = List.length rows_l and c = List.length first in
    if List.exists (fun row -> List.length row <> c) rows_l then
      invalid_arg "Cmat.of_lists: ragged rows";
    let a = Array.of_list (List.map Array.of_list rows_l) in
    init r c (fun i j -> a.(i).(j))

let of_real_lists rows_l =
  of_lists (List.map (List.map Cx.of_float) rows_l)

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }
let zeros r c = create r c

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.(idx m i i) <- 1.
  done;
  m

let diag d =
  let n = Array.length d in
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i d.(i)
  done;
  m

let diagonal m =
  if m.r <> m.c then invalid_arg "Cmat.diagonal: not square";
  Array.init m.r (fun i -> get m i i)

let add a b =
  if a.r <> b.r || a.c <> b.c then invalid_arg "Cmat.add: dimension mismatch";
  init a.r a.c (fun i j -> Cx.add (get a i j) (get b i j))

let scale z a = init a.r a.c (fun i j -> Cx.mul z (get a i j))
let scale_real s a = init a.r a.c (fun i j -> Cx.scale s (get a i j))

let mul a b =
  if a.c <> b.r then invalid_arg "Cmat.mul: dimension mismatch";
  let m = create a.r b.c in
  (* i-k-j loop order keeps the inner loop streaming over contiguous rows *)
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let ar = a.re.((i * a.c) + k) and ai = a.im.((i * a.c) + k) in
      if ar <> 0. || ai <> 0. then begin
        let boff = k * b.c and moff = i * b.c in
        for j = 0 to b.c - 1 do
          let br = b.re.(boff + j) and bi = b.im.(boff + j) in
          m.re.(moff + j) <- m.re.(moff + j) +. (ar *. br) -. (ai *. bi);
          m.im.(moff + j) <- m.im.(moff + j) +. (ar *. bi) +. (ai *. br)
        done
      end
    done
  done;
  m

let rec pow m k =
  if m.r <> m.c then invalid_arg "Cmat.pow: not square";
  if k < 0 then invalid_arg "Cmat.pow: negative exponent";
  if k = 0 then identity m.r
  else if k mod 2 = 0 then begin
    let h = pow m (k / 2) in
    mul h h
  end
  else mul m (pow m (k - 1))

let transpose m = init m.c m.r (fun i j -> get m j i)
let dagger m = init m.c m.r (fun i j -> Cx.conj (get m j i))

let trace m =
  if m.r <> m.c then invalid_arg "Cmat.trace: not square";
  let acc = ref Cx.zero in
  for i = 0 to m.r - 1 do
    acc := Cx.add !acc (get m i i)
  done;
  !acc

let kron a b =
  let m = create (a.r * b.r) (a.c * b.c) in
  for ia = 0 to a.r - 1 do
    for ja = 0 to a.c - 1 do
      let z = get a ia ja in
      if not (Cx.is_zero ~eps:0. z) then
        for ib = 0 to b.r - 1 do
          for jb = 0 to b.c - 1 do
            set m ((ia * b.r) + ib) ((ja * b.c) + jb) (Cx.mul z (get b ib jb))
          done
        done
    done
  done;
  m

let kron_list = function
  | [] -> identity 1
  | first :: rest -> List.fold_left kron first rest

let apply m v =
  if m.c <> Vec.dim v then invalid_arg "Cmat.apply: dimension mismatch";
  let vre = Vec.unsafe_re v and vim = Vec.unsafe_im v in
  let out = Vec.create m.r in
  let ore_ = Vec.unsafe_re out and oim = Vec.unsafe_im out in
  for i = 0 to m.r - 1 do
    let off = i * m.c in
    let sr = ref 0. and si = ref 0. in
    for j = 0 to m.c - 1 do
      let ar = m.re.(off + j) and ai = m.im.(off + j) in
      sr := !sr +. (ar *. vre.(j)) -. (ai *. vim.(j));
      si := !si +. (ar *. vim.(j)) +. (ai *. vre.(j))
    done;
    ore_.(i) <- !sr;
    oim.(i) <- !si
  done;
  out

let max_abs m =
  let worst = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    let d = Float.hypot m.re.(k) m.im.(k) in
    if d > !worst then worst := d
  done;
  !worst

let max_abs_diff a b =
  if a.r <> b.r || a.c <> b.c then
    invalid_arg "Cmat.max_abs_diff: dimension mismatch";
  let worst = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    let d = Float.hypot (a.re.(k) -. b.re.(k)) (a.im.(k) -. b.im.(k)) in
    if d > !worst then worst := d
  done;
  !worst

let frobenius_norm m =
  let acc = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    acc := !acc +. (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))
  done;
  Float.sqrt !acc

let equal ?(eps = 1e-9) a b =
  a.r = b.r && a.c = b.c && max_abs_diff a b <= eps

let equal_up_to_phase ?(eps = 1e-9) a b =
  a.r = b.r && a.c = b.c
  &&
  (* find the entry of largest modulus in b and align phases there *)
  let best = ref 0 and best_abs = ref (-1.) in
  Array.iteri
    (fun k br ->
      let d = Float.hypot br b.im.(k) in
      if d > !best_abs then begin
        best_abs := d;
        best := k
      end)
    b.re;
  if !best_abs <= eps then max_abs a <= eps
  else begin
    let k = !best in
    let zb = Cx.make b.re.(k) b.im.(k) and za = Cx.make a.re.(k) a.im.(k) in
    if Cx.abs za <= eps then false
    else begin
      let phase = Cx.div za zb in
      let phase = Cx.scale (1. /. Cx.abs phase) phase in
      max_abs_diff a (scale phase b) <= eps
    end
  end

let is_square m = m.r = m.c

let is_unitary ?(eps = 1e-9) m =
  is_square m && max_abs_diff (mul (dagger m) m) (identity m.r) <= eps

let is_hermitian ?(eps = 1e-9) m =
  is_square m && max_abs_diff m (dagger m) <= eps

let is_diagonal ?(eps = 1e-9) m =
  is_square m
  &&
  let ok = ref true in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      if i <> j && Float.hypot m.re.(idx m i j) m.im.(idx m i j) > eps then
        ok := false
    done
  done;
  !ok

let commute ?(eps = 1e-9) a b =
  if a.r <> a.c || b.r <> b.c || a.r <> b.r then
    invalid_arg "Cmat.commute: dimension mismatch";
  (* entry-by-entry comparison of a·b and b·a with early exit: each entry
     of the products is one row·column product, and a non-commuting pair
     reveals a violating entry almost immediately, so the quadratic scan
     rarely pays the full cubic cost. The accumulation order matches
     {!mul} term for term, so the decision is identical to comparing the
     fully materialized products. *)
  let n = a.r in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    let jc = !j in
    let i = ref 0 in
    while !ok && !i < n do
      let off = !i * n in
      let xr = ref 0. and xi = ref 0. in
      let yr = ref 0. and yi = ref 0. in
      for k = 0 to n - 1 do
        let ar = a.re.(off + k) and ai = a.im.(off + k) in
        if ar <> 0. || ai <> 0. then begin
          let br = b.re.((k * n) + jc) and bi = b.im.((k * n) + jc) in
          xr := !xr +. (ar *. br) -. (ai *. bi);
          xi := !xi +. (ar *. bi) +. (ai *. br)
        end
      done;
      for k = 0 to n - 1 do
        let br = b.re.(off + k) and bi = b.im.(off + k) in
        if br <> 0. || bi <> 0. then begin
          let ar = a.re.((k * n) + jc) and ai = a.im.((k * n) + jc) in
          yr := !yr +. (br *. ar) -. (bi *. ai);
          yi := !yi +. (br *. ai) +. (bi *. ar)
        end
      done;
      if Float.hypot (!xr -. !yr) (!xi -. !yi) > eps then ok := false;
      incr i
    done;
    incr j
  done;
  !ok

let det m =
  if m.r <> m.c then invalid_arg "Cmat.det: not square";
  let n = m.r in
  if n = 0 then Cx.one
  else begin
    let a = copy m in
    let d = ref Cx.one in
    (try
       for k = 0 to n - 1 do
         (* partial pivoting *)
         let piv = ref k and piv_abs = ref (Cx.abs (get a k k)) in
         for i = k + 1 to n - 1 do
           let v = Cx.abs (get a i k) in
           if v > !piv_abs then begin
             piv := i;
             piv_abs := v
           end
         done;
         if !piv_abs = 0. then begin
           d := Cx.zero;
           raise Exit
         end;
         if !piv <> k then begin
           for j = 0 to n - 1 do
             let tmp = get a k j in
             set a k j (get a !piv j);
             set a !piv j tmp
           done;
           d := Cx.neg !d
         end;
         d := Cx.mul !d (get a k k);
         for i = k + 1 to n - 1 do
           let f = Cx.div (get a i k) (get a k k) in
           for j = k to n - 1 do
             set a i j (Cx.sub (get a i j) (Cx.mul f (get a k j)))
           done
         done
       done
     with Exit -> ());
    !d
  end

let fidelity u v =
  if u.r <> v.r || u.c <> v.c || u.r <> u.c then
    invalid_arg "Cmat.fidelity: dimension mismatch";
  let d = float_of_int u.r in
  let t = trace (mul (dagger u) v) in
  Cx.norm2 t /. (d *. d)

(* Qubit q is bit (n-1-q) of a basis index (big-endian convention). *)
let bit_of_qubit n q = n - 1 - q

(* the shared index frame of [embed] and [mul_embedded]: the bit positions
   of the target qubits, the remaining positions, and the composition of a
   rest-configuration with a k-bit local index into a full basis index *)
let embed_frame ~name ~n_qubits ~targets u =
  let k = List.length targets in
  if u.r <> 1 lsl k || u.c <> 1 lsl k then
    invalid_arg
      (Printf.sprintf "Cmat.%s: unitary dimension does not match target count"
         name);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun q ->
      if q < 0 || q >= n_qubits then
        invalid_arg
          (Printf.sprintf "Cmat.%s: qubit %d outside [0, %d)" name q n_qubits);
      if Hashtbl.mem seen q then
        invalid_arg (Printf.sprintf "Cmat.%s: duplicate target qubit %d" name q);
      Hashtbl.add seen q ())
    targets;
  let target_bits = Array.of_list (List.map (bit_of_qubit n_qubits) targets) in
  let rest_bits =
    List.filter
      (fun b -> not (Array.exists (( = ) b) target_bits))
      (List.init n_qubits (fun b -> b))
  in
  let rest_bits = Array.of_list rest_bits in
  (* compose a full index from a rest-configuration and a k-bit local index;
     local bit 0 of u's index space is its least-significant bit, which is
     the last listed target *)
  let compose rest_cfg local =
    let r = ref 0 in
    Array.iteri
      (fun pos b -> if (rest_cfg lsr pos) land 1 = 1 then r := !r lor (1 lsl b))
      rest_bits;
    Array.iteri
      (fun pos b ->
        let local_bit = k - 1 - pos in
        if (local lsr local_bit) land 1 = 1 then r := !r lor (1 lsl b))
      target_bits;
    !r
  in
  (k, Array.length rest_bits, compose)

let embed ~n_qubits ~targets u =
  let k, n_rest, compose = embed_frame ~name:"embed" ~n_qubits ~targets u in
  let dim = 1 lsl n_qubits in
  let m = create dim dim in
  for rest_cfg = 0 to (1 lsl n_rest) - 1 do
    for lr = 0 to (1 lsl k) - 1 do
      let full_r = compose rest_cfg lr in
      for lc = 0 to (1 lsl k) - 1 do
        let z = get u lr lc in
        if not (Cx.is_zero ~eps:0. z) then
          set m full_r (compose rest_cfg lc) z
      done
    done
  done;
  m

let mul_embedded ~n_qubits ~targets u m =
  let k, n_rest, compose =
    embed_frame ~name:"mul_embedded" ~n_qubits ~targets u
  in
  let dim = 1 lsl n_qubits in
  if m.r <> dim then invalid_arg "Cmat.mul_embedded: dimension mismatch";
  let dk = 1 lsl k in
  let out = create dim m.c in
  (* block-local matrix product: each rest-configuration selects 2^k rows
     of [m] that mix among themselves under embed(u); everything else is
     a row copy scaled by u's entries. Cost 4^n·2^k instead of 8^n. *)
  let rows_idx = Array.make dk 0 in
  for rest_cfg = 0 to (1 lsl n_rest) - 1 do
    for l = 0 to dk - 1 do
      rows_idx.(l) <- compose rest_cfg l
    done;
    for lr = 0 to dk - 1 do
      let out_off = rows_idx.(lr) * m.c in
      for lc = 0 to dk - 1 do
        let ur = u.re.((lr * dk) + lc) and ui = u.im.((lr * dk) + lc) in
        if ur <> 0. || ui <> 0. then begin
          let src_off = rows_idx.(lc) * m.c in
          for j = 0 to m.c - 1 do
            let br = m.re.(src_off + j) and bi = m.im.(src_off + j) in
            out.re.(out_off + j) <-
              out.re.(out_off + j) +. (ur *. br) -. (ui *. bi);
            out.im.(out_off + j) <-
              out.im.(out_off + j) +. (ur *. bi) +. (ui *. br)
          done
        end
      done
    done
  done;
  out

let permute_qubits perm u =
  let n =
    let rec log2 d acc = if d <= 1 then acc else log2 (d / 2) (acc + 1) in
    log2 u.r 0
  in
  if u.r <> 1 lsl n || u.r <> u.c then
    invalid_arg "Cmat.permute_qubits: not a square power-of-two matrix";
  if Array.length perm <> n then
    invalid_arg "Cmat.permute_qubits: permutation size mismatch";
  let remap index =
    let out = ref 0 in
    for q = 0 to n - 1 do
      let b_in = bit_of_qubit n q and b_out = bit_of_qubit n perm.(q) in
      if (index lsr b_in) land 1 = 1 then out := !out lor (1 lsl b_out)
    done;
    !out
  in
  let m = create u.r u.c in
  for i = 0 to u.r - 1 do
    for j = 0 to u.c - 1 do
      set m (remap i) (remap j) (get u i j)
    done
  done;
  m
