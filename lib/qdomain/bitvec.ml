type t = { n : int; bits : Bytes.t }

let create n =
  if n < 0 then invalid_arg "Bitvec.create: negative length";
  { n; bits = Bytes.make ((n + 7) / 8) '\000' }

let length v = v.n
let copy v = { v with bits = Bytes.copy v.bits }

let check v i name =
  if i < 0 || i >= v.n then invalid_arg (Printf.sprintf "Bitvec.%s" name)

let get v i =
  check v i "get";
  Char.code (Bytes.get v.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set v i b =
  check v i "set";
  let byte = Char.code (Bytes.get v.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set v.bits (i lsr 3) (Char.chr byte)

let flip v i = set v i (not (get v i))

let swap v i j =
  let bi = get v i and bj = get v j in
  set v i bj;
  set v j bi

let xor_into ~src dst =
  if src.n <> dst.n then invalid_arg "Bitvec.xor_into: length mismatch";
  for k = 0 to Bytes.length src.bits - 1 do
    Bytes.set dst.bits k
      (Char.chr (Char.code (Bytes.get dst.bits k)
                 lxor Char.code (Bytes.get src.bits k)))
  done

let is_zero v = Bytes.for_all (fun c -> c = '\000') v.bits
let equal a b = a.n = b.n && Bytes.equal a.bits b.bits

let to_key v = Printf.sprintf "%d:%s" v.n (Bytes.to_string v.bits)

let pp ppf v =
  for i = 0 to v.n - 1 do
    Format.pp_print_char ppf (if get v i then '1' else '0')
  done
