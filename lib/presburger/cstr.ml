type t =
  | Eq of Aff.t * Aff.t
  | Le of Aff.t * Aff.t
  | Lt of Aff.t * Aff.t
  | Ge of Aff.t * Aff.t
  | Gt of Aff.t * Aff.t

let map f = function
  | Eq (a, b) -> Eq (f a, f b)
  | Le (a, b) -> Le (f a, f b)
  | Lt (a, b) -> Lt (f a, f b)
  | Ge (a, b) -> Ge (f a, f b)
  | Gt (a, b) -> Gt (f a, f b)

let between lo x hi = [ Le (lo, x); Lt (x, hi) ]

let to_row ~cols c =
  let open Aff in
  match c with
  | Eq (a, b) -> `Eq (to_row ~cols (sub a b))
  | Le (a, b) -> `Ineq (to_row ~cols (sub b a))
  | Lt (a, b) -> `Ineq (to_row ~cols (sub (sub b a) (const 1)))
  | Ge (a, b) -> `Ineq (to_row ~cols (sub a b))
  | Gt (a, b) -> `Ineq (to_row ~cols (sub (sub a b) (const 1)))

let pp ppf c =
  let op = function
    | Eq _ -> "=" | Le _ -> "<=" | Lt _ -> "<" | Ge _ -> ">=" | Gt _ -> ">"
  in
  match c with
  | Eq (a, b) | Le (a, b) | Lt (a, b) | Ge (a, b) | Gt (a, b) ->
      Format.fprintf ppf "%a %s %a" Aff.pp a (op c) Aff.pp b
