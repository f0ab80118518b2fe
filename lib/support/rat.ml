type t = { num : int; den : int }

let make num den =
  if den = 0 then raise Division_by_zero
  else
    let s = if den < 0 then -1 else 1 in
    let g = Ints.gcd num den in
    if g = 0 then { num = 0; den = 1 }
    else { num = s * num / g; den = s * den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1

let add a b =
  make (Ints.add (Ints.mul a.num b.den) (Ints.mul b.num a.den)) (Ints.mul a.den b.den)

let neg a = { a with num = Ints.neg a.num }
let sub a b = add a (neg b)
let mul a b = make (Ints.mul a.num b.num) (Ints.mul a.den b.den)
let inv a = make a.den a.num
let div a b = if b.num = 0 then raise Division_by_zero else mul a (inv b)
let abs a = { a with num = Stdlib.abs a.num }
let compare a b = Stdlib.compare (Ints.mul a.num b.den) (Ints.mul b.num a.den)
let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sign a = Ints.sign a.num
let is_int a = a.den = 1
let floor a = Ints.fdiv a.num a.den
let ceil a = Ints.cdiv a.num a.den
let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
