type t = { dt : float; labels : string array; amps : float array array }

let make ~dt ~labels amps =
  if dt <= 0. then invalid_arg "Pulse.make: non-positive dt";
  let nc = Array.length labels in
  Array.iter
    (fun row ->
      if Array.length row <> nc then invalid_arg "Pulse.make: ragged amplitudes")
    amps;
  { dt; labels; amps }

let constant ~dt ~labels ~steps amplitudes =
  make ~dt ~labels (Array.init steps (fun _ -> Array.copy amplitudes))

let n_steps p = Array.length p.amps
let duration p = p.dt *. float_of_int (n_steps p)

let concat a b =
  if a.dt <> b.dt then invalid_arg "Pulse.concat: dt mismatch";
  if a.labels <> b.labels then invalid_arg "Pulse.concat: channel mismatch";
  { a with amps = Array.append (Array.map Array.copy a.amps) (Array.map Array.copy b.amps) }

let channel_index p label =
  let found = ref (-1) in
  Array.iteri (fun k l -> if l = label then found := k) p.labels;
  if !found < 0 then raise Not_found;
  !found

let max_amplitude p label =
  let ch = channel_index p label in
  Array.fold_left (fun acc row -> Float.max acc (Float.abs row.(ch))) 0. p.amps

let clip ~limits p =
  let lim = Array.map limits p.labels in
  let amps =
    Array.map
      (fun row ->
        Array.mapi
          (fun ch v -> Float.max (-.lim.(ch)) (Float.min lim.(ch) v))
          row)
      p.amps
  in
  { p with amps }

let pp ppf p =
  Format.fprintf ppf "@[<v>pulse: %d steps x %.3g ns = %.4g ns@," (n_steps p)
    p.dt (duration p);
  Array.iteri
    (fun ch label ->
      Format.fprintf ppf "%-8s" label;
      Array.iter
        (fun row -> Format.fprintf ppf " %+.4f" row.(ch))
        p.amps;
      Format.fprintf ppf "@,")
    p.labels;
  Format.fprintf ppf "@]"
