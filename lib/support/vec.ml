let zero n = Array.make n 0

let unit n i =
  let v = Array.make n 0 in
  v.(i) <- 1;
  v

let map2 f a b =
  if Array.length a <> Array.length b then invalid_arg "Vec: length mismatch";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add = map2 Ints.add
let sub = map2 Ints.sub
let neg = Array.map Ints.neg
let scale k = Array.map (Ints.mul k)
let combine a u b v =
  if Array.length u <> Array.length v then invalid_arg "Vec: length mismatch";
  Array.init (Array.length u) (fun i -> Ints.add (Ints.mul a u.(i)) (Ints.mul b v.(i)))
let content v = Array.fold_left (fun g x -> Ints.gcd g x) 0 v

let content_except v col =
  let g = ref 0 in
  Array.iteri (fun i x -> if i <> col then g := Ints.gcd !g x) v;
  !g

let divide v d =
  Array.map
    (fun x ->
      if d = 0 || x mod d <> 0 then invalid_arg "Vec.divide: inexact" else x / d)
    v

let is_zero = Array.for_all (fun x -> x = 0)
let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

let dot a b =
  let acc = ref 0 in
  Array.iteri (fun i x -> acc := Ints.add !acc (Ints.mul x b.(i))) a;
  !acc

let insert_cols v ~at ~count =
  let n = Array.length v in
  Array.init (n + count) (fun i ->
      if i < at then v.(i) else if i < at + count then 0 else v.(i - count))

let drop_cols v ~at ~count =
  let n = Array.length v in
  Array.init (n - count) (fun i -> if i < at then v.(i) else v.(i + count))

let pp ppf v =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    v
