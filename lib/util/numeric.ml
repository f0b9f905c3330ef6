let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geometric_mean = function
  | [] -> 0.0
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logsum /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x
let clamp_int ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let round_to ~digits x =
  let scale = 10.0 ** float_of_int digits in
  Float.round (x *. scale) /. scale

let percent ~part ~whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole

let approx_equal ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let linspace ~lo ~hi ~n =
  if n < 2 then invalid_arg "Numeric.linspace: need n >= 2";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  List.init n (fun i -> lo +. (float_of_int i *. step))

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end
