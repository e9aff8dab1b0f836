type t = Cx.t array

let eval p z =
  let acc = ref Cx.zero in
  for k = Array.length p - 1 downto 0 do
    acc := Cx.add (Cx.mul !acc z) p.(k)
  done;
  !acc

let derive p =
  let n = Array.length p in
  if n <= 1 then [| Cx.zero |]
  else Array.init (n - 1) (fun k -> Cx.scale (float_of_int (k + 1)) p.(k + 1))

let degree p =
  let d = ref (-1) in
  Array.iteri (fun k c -> if not (Cx.is_zero ~eps:0. c) then d := k) p;
  !d

let monic p =
  let d = degree p in
  if d < 0 then invalid_arg "Poly.monic: zero polynomial";
  let lead = p.(d) in
  Array.init (d + 1) (fun k -> Cx.div p.(k) lead)

type solution = { roots : Cx.t array; capped : bool }

(* [|re + i·im| > t] without a square root whenever a component settles
   it: hypot ≥ max |re| |im| *)
let[@inline] exceeds re im t =
  Float.abs re > t || Float.abs im > t || Float.hypot re im > t

(* Durand–Kerner on flat re/im arrays with local float refs, so a sweep
   allocates nothing. Every float expression keeps the shape of
   Cx.mul/Cx.sub/Cx.div in the boxed formulation (updating the iterates
   in place, Gauss–Seidel style), so each iterate is bit-identical to
   it; a sweep's only output, its largest update, is compared with [tol]
   and nothing else, so [exceeds] answers that comparison exactly. *)
let roots ?(iterations = 500) ?(tol = 1e-13) p =
  let p = monic p in
  let n = Array.length p - 1 in
  if n < 1 then invalid_arg "Poly.roots: degree must be at least 1";
  let cr = Array.map Cx.re p and ci = Array.map Cx.im p in
  (* start from non-real points spread on a circle sized by a root bound *)
  let bound =
    Array.fold_left (fun acc c -> Float.max acc (Cx.abs c)) 0. p +. 1.
  in
  let r = 0.5 *. bound in
  let zr = Array.make n 0. and zi = Array.make n 0. in
  for k = 0 to n - 1 do
    let theta = (2. *. Float.pi *. float_of_int k /. float_of_int n) +. 0.4 in
    zr.(k) <- r *. Float.cos theta;
    zi.(k) <- r *. Float.sin theta
  done;
  let sweeps = ref 0 and converged = ref false in
  while (not !converged) && !sweeps < iterations do
    incr sweeps;
    (* the largest update starts at 0, so a negative [tol] never settles *)
    let moved = ref (0. > tol) in
    for k = 0 to n - 1 do
      let xr = zr.(k) and xi = zi.(k) in
      (* Π_{j≠k} (z_k − z_j) *)
      let dr = ref 1. and di = ref 0. in
      for j = 0 to n - 1 do
        if j <> k then begin
          let br = xr -. zr.(j) and bi = xi -. zi.(j) in
          let re = (!dr *. br) -. (!di *. bi) in
          di := (!dr *. bi) +. (!di *. br);
          dr := re
        end
      done;
      let dr = !dr and di = !di in
      if exceeds dr di 1e-300 then begin
        (* Horner evaluation of p(z_k) *)
        let ar = ref 0. and ai = ref 0. in
        for m = n downto 0 do
          let re = ((!ar *. xr) -. (!ai *. xi)) +. cr.(m) in
          ai := ((!ar *. xi) +. (!ai *. xr)) +. ci.(m);
          ar := re
        done;
        let ar = !ar and ai = !ai in
        let d = (dr *. dr) +. (di *. di) in
        if d = 0. then raise Division_by_zero;
        let er = ((ar *. dr) +. (ai *. di)) /. d
        and ei = ((ai *. dr) -. (ar *. di)) /. d in
        zr.(k) <- xr -. er;
        zi.(k) <- xi -. ei;
        if (not !moved) && exceeds er ei tol then moved := true
      end
      else begin
        (* perturb coincident iterates so the iteration can separate them *)
        zr.(k) <- xr +. 1e-6;
        zi.(k) <- xi +. 1e-6
      end
    done;
    converged := not !moved
  done;
  { roots = Array.init n (fun k -> Cx.make zr.(k) zi.(k));
    capped = not !converged }

let of_roots rs =
  let p = ref [| Cx.one |] in
  Array.iter
    (fun r ->
      let old = !p in
      let n = Array.length old in
      let next = Array.make (n + 1) Cx.zero in
      (* multiply by (z - r) *)
      for k = 0 to n - 1 do
        next.(k + 1) <- Cx.add next.(k + 1) old.(k);
        next.(k) <- Cx.sub next.(k) (Cx.mul r old.(k))
      done;
      p := next)
    rs;
  !p
