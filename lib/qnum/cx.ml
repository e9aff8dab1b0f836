type t = { re : float; im : float }

let make re im = { re; im }
let zero = { re = 0.; im = 0. }
let one = { re = 1.; im = 0. }
let i = { re = 0.; im = 1. }
let of_float x = { re = x; im = 0. }
let re z = z.re
let im z = z.im
let add a b = { re = a.re +. b.re; im = a.im +. b.im }
let sub a b = { re = a.re -. b.re; im = a.im -. b.im }
let neg a = { re = -.a.re; im = -.a.im }

let mul a b =
  { re = (a.re *. b.re) -. (a.im *. b.im);
    im = (a.re *. b.im) +. (a.im *. b.re) }

let conj a = { re = a.re; im = -.a.im }
let scale s a = { re = s *. a.re; im = s *. a.im }
let norm2 a = (a.re *. a.re) +. (a.im *. a.im)
let abs a = Float.hypot a.re a.im

let div a b =
  let d = norm2 b in
  if d = 0. then raise Division_by_zero;
  { re = ((a.re *. b.re) +. (a.im *. b.im)) /. d;
    im = ((a.im *. b.re) -. (a.re *. b.im)) /. d }

let inv a = div one a
let arg a = if a.re = 0. && a.im = 0. then 0. else Float.atan2 a.im a.re

let sqrt a =
  let m = abs a in
  if m = 0. then zero
  else begin
    let r = Float.sqrt ((m +. a.re) /. 2.) in
    let s = Float.sqrt ((m -. a.re) /. 2.) in
    { re = r; im = (if a.im >= 0. then s else -.s) }
  end

let polar r theta = { re = r *. Float.cos theta; im = r *. Float.sin theta }
let cis theta = polar 1. theta
let exp a = polar (Float.exp a.re) a.im
let log a = { re = Float.log (abs a); im = arg a }
let pow z w = if z.re = 0. && z.im = 0. then zero else exp (mul w (log z))

let equal ?(eps = 1e-12) a b =
  Float.abs (a.re -. b.re) <= eps && Float.abs (a.im -. b.im) <= eps

let is_zero ?(eps = 1e-12) a = Float.abs a.re <= eps && Float.abs a.im <= eps
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg

let pp ppf z =
  if z.im >= 0. then Format.fprintf ppf "%g+%gi" z.re z.im
  else Format.fprintf ppf "%g-%gi" z.re (Float.abs z.im)

let to_string z = Format.asprintf "%a" pp z
