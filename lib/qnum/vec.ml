type t = { re : float array; im : float array }

let create n = { re = Array.make n 0.; im = Array.make n 0. }
let dim v = Array.length v.re

let init n f =
  let v = create n in
  for k = 0 to n - 1 do
    let z = f k in
    v.re.(k) <- Cx.re z;
    v.im.(k) <- Cx.im z
  done;
  v

let of_array a = init (Array.length a) (fun k -> a.(k))
let copy v = { re = Array.copy v.re; im = Array.copy v.im }
let get v k = Cx.make v.re.(k) v.im.(k)

let set v k z =
  v.re.(k) <- Cx.re z;
  v.im.(k) <- Cx.im z

let basis n k =
  let v = create n in
  v.re.(k) <- 1.;
  v

let scale_inplace z v =
  let zr = Cx.re z and zi = Cx.im z in
  for k = 0 to dim v - 1 do
    let r = v.re.(k) and i = v.im.(k) in
    v.re.(k) <- (zr *. r) -. (zi *. i);
    v.im.(k) <- (zr *. i) +. (zi *. r)
  done

let scale z v =
  let w = copy v in
  scale_inplace z w;
  w

let add a b =
  if dim a <> dim b then invalid_arg "Vec.add: dimension mismatch";
  init (dim a) (fun k -> Cx.add (get a k) (get b k))

let sub a b =
  if dim a <> dim b then invalid_arg "Vec.sub: dimension mismatch";
  init (dim a) (fun k -> Cx.sub (get a k) (get b k))

let dot a b =
  if dim a <> dim b then invalid_arg "Vec.dot: dimension mismatch";
  let re = ref 0. and im = ref 0. in
  for k = 0 to dim a - 1 do
    let ar = a.re.(k) and ai = a.im.(k) in
    let br = b.re.(k) and bi = b.im.(k) in
    re := !re +. (ar *. br) +. (ai *. bi);
    im := !im +. (ar *. bi) -. (ai *. br)
  done;
  Cx.make !re !im

let norm2 v =
  let acc = ref 0. in
  for k = 0 to dim v - 1 do
    acc := !acc +. (v.re.(k) *. v.re.(k)) +. (v.im.(k) *. v.im.(k))
  done;
  !acc

let norm v = Float.sqrt (norm2 v)

let normalize v =
  let n = norm v in
  if n = 0. then invalid_arg "Vec.normalize: zero vector";
  scale (Cx.of_float (1. /. n)) v

let max_abs_diff a b =
  if dim a <> dim b then invalid_arg "Vec.max_abs_diff: dimension mismatch";
  let worst = ref 0. in
  for k = 0 to dim a - 1 do
    let d = Cx.abs (Cx.sub (get a k) (get b k)) in
    if d > !worst then worst := d
  done;
  !worst

let equal ?(eps = 1e-9) a b = dim a = dim b && max_abs_diff a b <= eps
let map f v = init (dim v) (fun k -> f (get v k))

let iteri f v =
  for k = 0 to dim v - 1 do
    f k (get v k)
  done

let fold f acc v =
  let acc = ref acc in
  for k = 0 to dim v - 1 do
    acc := f !acc (get v k)
  done;
  !acc

let unsafe_re v = v.re
let unsafe_im v = v.im

let pp ppf v =
  Format.fprintf ppf "[@[<hov>";
  iteri
    (fun k z ->
      if k > 0 then Format.fprintf ppf ";@ ";
      Cx.pp ppf z)
    v;
  Format.fprintf ppf "@]]"
