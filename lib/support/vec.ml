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
  let n = Array.length u in
  if Array.length v <> n then invalid_arg "Vec: length mismatch";
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <- Ints.add (Ints.mul a u.(i)) (Ints.mul b v.(i))
  done;
  r

let content v = Array.fold_left (fun g x -> Ints.gcd g x) 0 v

(* Stops at a GCD of 1, which no further entry can change. *)
let content_except v col =
  let g = ref 0 and i = ref 0 in
  while !i < Array.length v && !g <> 1 do
    if !i <> col then g := Ints.gcd !g v.(!i);
    incr i
  done;
  !g

let divide v d =
  Array.map
    (fun x ->
      if d = 0 || x mod d <> 0 then invalid_arg "Vec.divide: inexact" else x / d)
    v

let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

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
