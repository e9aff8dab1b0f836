let char_poly m =
  if not (Cmat.is_square m) then invalid_arg "Eig.char_poly: not square";
  let n = Cmat.rows m in
  (* Faddeev–LeVerrier: M_1 = M, c_{n-1} = -tr M_1,
     M_k = M (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k)/k.
     p(z) = z^n + c_{n-1} z^{n-1} + ... + c_0 *)
  let coeffs = Array.make (n + 1) Cx.zero in
  coeffs.(n) <- Cx.one;
  let mk = ref (Cmat.copy m) in
  for k = 1 to n do
    if k > 1 then
      mk :=
        Cmat.mul m
          (Cmat.add !mk (Cmat.scale coeffs.(n - k + 1) (Cmat.identity n)));
    coeffs.(n - k) <- Cx.scale (-1. /. float_of_int k) (Cmat.trace !mk)
  done;
  coeffs

let eigenvalues ?(tol = 1e-13) m =
  if Cmat.rows m = 0 then { Poly.roots = [||]; capped = false }
  else Poly.roots ~tol (char_poly m)
