open Tiramisu_presburger
open Ir

type t = Ir.expr

let int n = Int_e n
let float f = Float_e f
let param p = Param_e p
let iter i = Iter_e i
let ( +: ) a b = Bin_e (Add, a, b)
let ( -: ) a b = Bin_e (Sub, a, b)
let ( *: ) a b = Bin_e (Mul, a, b)
let ( /: ) a b = Bin_e (Div, a, b)
let min_ a b = Bin_e (Min, a, b)
let max_ a b = Bin_e (Max, a, b)
let neg a = Neg_e a
let select c a b = Select_e (c, a, b)
let clamp x lo hi = Clamp_e (x, lo, hi)
let call f args = Call_e (f, args)
let cast d e = Cast_e (d, e)
let abs_ e = Call_e ("abs", [ e ])
let ( =: ) a b = Cmp_e (Eq, a, b)
let ( <: ) a b = Cmp_e (Lt, a, b)
let ( <=: ) a b = Cmp_e (Le, a, b)

let rec to_aff ~iters ~params e =
  let ( let* ) = Option.bind in
  match e with
  | Int_e n -> Some (Aff.const n)
  | Param_e p when List.mem p params -> Some (Aff.var p)
  | Iter_e i when List.mem i iters -> Some (Aff.var i)
  | Neg_e a ->
      let* a = to_aff ~iters ~params a in
      Some (Aff.neg a)
  | Bin_e (Add, a, b) ->
      let* a = to_aff ~iters ~params a in
      let* b = to_aff ~iters ~params b in
      Some (Aff.add a b)
  | Bin_e (Sub, a, b) ->
      let* a = to_aff ~iters ~params a in
      let* b = to_aff ~iters ~params b in
      Some (Aff.sub a b)
  | Bin_e (Mul, a, b) -> (
      let* a = to_aff ~iters ~params a in
      let* b = to_aff ~iters ~params b in
      match (Aff.is_const a, Aff.is_const b) with
      | Some c, _ -> Some (Aff.scale c b)
      | _, Some c -> Some (Aff.scale c a)
      | None, None -> None)
  | Cast_e (_, a) -> to_aff ~iters ~params a
  | _ -> None

let index_range ~iters ~params e =
  match to_aff ~iters ~params e with
  | Some a -> Some (a, a)
  | None -> (
      match e with
      | Clamp_e (_, lo, hi) -> (
          (* The clamped value stays within [lo, hi]: over-approximate the
             accessed region by the clamp bounds (Benabderrahmane et al.). *)
          match (to_aff ~iters ~params lo, to_aff ~iters ~params hi) with
          | Some l, Some h -> Some (l, h)
          | _ -> None)
      | _ -> None)

let rec accesses e =
  match e with
  | Access_e (name, idx) ->
      ((name, idx) :: List.concat_map accesses idx)
  | Int_e _ | Float_e _ | Param_e _ | Iter_e _ -> []
  | Bin_e (_, a, b) | Cmp_e (_, a, b) -> accesses a @ accesses b
  | Neg_e a | Cast_e (_, a) -> accesses a
  | Select_e (a, b, c) | Clamp_e (a, b, c) ->
      accesses a @ accesses b @ accesses c
  | Call_e (_, args) -> List.concat_map accesses args

let rec subst_access f e =
  match e with
  | Access_e (name, idx) -> (
      let idx = List.map (subst_access f) idx in
      match f name idx with Some e' -> e' | None -> Access_e (name, idx))
  | Int_e _ | Float_e _ | Param_e _ | Iter_e _ -> e
  | Bin_e (op, a, b) -> Bin_e (op, subst_access f a, subst_access f b)
  | Cmp_e (op, a, b) -> Cmp_e (op, subst_access f a, subst_access f b)
  | Neg_e a -> Neg_e (subst_access f a)
  | Cast_e (d, a) -> Cast_e (d, subst_access f a)
  | Select_e (a, b, c) ->
      Select_e (subst_access f a, subst_access f b, subst_access f c)
  | Clamp_e (a, b, c) ->
      Clamp_e (subst_access f a, subst_access f b, subst_access f c)
  | Call_e (name, args) -> Call_e (name, List.map (subst_access f) args)

let rec subst_iters f e =
  match e with
  | Iter_e i -> ( match f i with Some e' -> e' | None -> e)
  | Int_e _ | Float_e _ | Param_e _ -> e
  | Access_e (name, idx) -> Access_e (name, List.map (subst_iters f) idx)
  | Bin_e (op, a, b) -> Bin_e (op, subst_iters f a, subst_iters f b)
  | Cmp_e (op, a, b) -> Cmp_e (op, subst_iters f a, subst_iters f b)
  | Neg_e a -> Neg_e (subst_iters f a)
  | Cast_e (d, a) -> Cast_e (d, subst_iters f a)
  | Select_e (a, b, c) ->
      Select_e (subst_iters f a, subst_iters f b, subst_iters f c)
  | Clamp_e (a, b, c) ->
      Clamp_e (subst_iters f a, subst_iters f b, subst_iters f c)
  | Call_e (name, args) -> Call_e (name, List.map (subst_iters f) args)

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Min -> "min" | Max -> "max"

let cmp_str = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp ppf e =
  match e with
  | Int_e n -> Format.fprintf ppf "%d" n
  | Float_e f -> Format.fprintf ppf "%g" f
  | Param_e p | Iter_e p -> Format.fprintf ppf "%s" p
  | Access_e (name, idx) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp)
        idx
  | Bin_e ((Min | Max) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_str op) pp a pp b
  | Bin_e (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (binop_str op) pp b
  | Neg_e a -> Format.fprintf ppf "(-%a)" pp a
  | Cmp_e (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_str op) pp b
  | Select_e (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" pp c pp a pp b
  | Clamp_e (x, lo, hi) ->
      Format.fprintf ppf "clamp(%a, %a, %a)" pp x pp lo pp hi
  | Call_e (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp)
        args
  | Cast_e (_, a) -> pp ppf a

let to_string e = Format.asprintf "%a" pp e
