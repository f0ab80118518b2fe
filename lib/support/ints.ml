exception Overflow

let add a b =
  let r = a + b in
  if (a >= 0) = (b >= 0) && (r >= 0) <> (a >= 0) then raise Overflow else r

let neg a = if a = min_int then raise Overflow else -a
let sub a b = if b = min_int then raise Overflow else add a (-b)

(* Operands below 2^30 in magnitude have a product below 2^60, which
   cannot overflow; only larger ones pay for the division check. *)
let small x = x < 0x4000_0000 && x > -0x4000_0000

let mul a b =
  if small a && small b then a * b
  else if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a || (a = min_int && b = -1) then raise Overflow else r

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let cdiv a b = -fdiv (-a) b
let emod a b = a - mul b (fdiv a b)
let sign a = compare a 0

let rec pow b e =
  if e < 0 then invalid_arg "Ints.pow: negative exponent"
  else if e = 0 then 1
  else mul b (pow b (e - 1))
