open Tiramisu_support

let tighten row =
  let g = Vec.content_except row 0 in
  if g = 0 then if row.(0) >= 0 then None else Some row
  else if g = 1 then Some row
  else
    Some
      (Array.mapi
         (fun i c -> if i = 0 then Ints.fdiv c g else c / g)
         row)

let bounds_on ~var rows =
  List.fold_right
    (fun row (lo, hi, rest) ->
      let c = row.(var + 1) in
      if c > 0 then (row :: lo, hi, rest)
      else if c < 0 then (lo, row :: hi, rest)
      else (lo, hi, row :: rest))
    rows ([], [], [])

(* Rows by coefficient vector, then constant: the order [dedup] returns. *)
let compare_rows a b =
  let n = Array.length a in
  let rec go i =
    if i = n then Int.compare a.(0) b.(0)
    else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 1

let dedup rows =
  (* Keep, per distinct coefficient vector, only the tightest (smallest)
     constant, sorted by coefficient vector: the output depends only on the
     set of rows, not on their order. *)
  let same_coeffs a b =
    let rec go i = i = Array.length a || (a.(i) = b.(i) && go (i + 1)) in
    go 1
  in
  let rec keep_first = function
    | a :: b :: rest when same_coeffs a b -> keep_first (a :: rest)
    | a :: rest -> a :: keep_first rest
    | [] -> []
  in
  keep_first (List.sort compare_rows rows)

(* Combine each lower bound [l] (coefficient a > 0 on [var]) with each
   upper bound [u] (coefficient -b < 0) into b*l + a*u, whose coefficient on
   [var] is zero; the dark shadow also subtracts (a-1)(b-1).  The fuel pays
   for the pairs before they are built. *)
let eliminate_one ~dark ~var rows =
  let lo, hi, rest = bounds_on ~var rows in
  Limits.charge ~stage:"fm" (List.length lo * List.length hi);
  let pair l u =
    let a = l.(var + 1) and b = -u.(var + 1) in
    let row = Vec.combine b l a u in
    assert (row.(var + 1) = 0);
    if dark then row.(0) <- Ints.sub row.(0) ((a - 1) * (b - 1));
    row
  in
  let combined = List.concat_map (fun l -> List.map (pair l) hi) lo in
  dedup (List.filter_map tighten (combined @ rest))

let eliminate ~n ~keep rows =
  let rows = ref rows in
  for v = 0 to n - 1 do
    if not (keep v) then rows := eliminate_one ~dark:false ~var:v !rows
  done;
  !rows
