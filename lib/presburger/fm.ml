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

let bounds_on ~n:_ ~var rows =
  List.fold_right
    (fun row (lo, hi, rest) ->
      let c = row.(var + 1) in
      if c > 0 then (row :: lo, hi, rest)
      else if c < 0 then (lo, row :: hi, rest)
      else (lo, hi, row :: rest))
    rows ([], [], [])

(* Combine a lower bound [l] (coefficient a > 0 on [var]) with an upper bound
   [u] (coefficient -b < 0) into the shadow constraint b*l + a*u, whose
   coefficient on [var] is zero. *)
let shadow_pair ~var l u =
  let a = l.(var + 1) and b = -u.(var + 1) in
  let row = Vec.combine b l a u in
  assert (row.(var + 1) = 0);
  row

let dedup rows =
  (* Keep, per distinct coefficient vector, only the tightest constant. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun row ->
      let key =
        let rec coeffs i acc = if i = 0 then acc else coeffs (i - 1) (row.(i) :: acc) in
        coeffs (Array.length row - 1) []
      in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key row.(0)
      | Some c when c <= row.(0) -> ()
      | Some _ -> Hashtbl.replace tbl key row.(0))
    rows;
  Hashtbl.fold
    (fun key c acc -> (Array.of_list (c :: key) :: acc))
    tbl []

let eliminate_one ~n ~var rows =
  let lo, hi, rest = bounds_on ~n ~var rows in
  let combined =
    List.concat_map (fun l -> List.map (fun u -> shadow_pair ~var l u) hi) lo
  in
  let tightened =
    List.filter_map tighten (combined @ rest)
  in
  dedup tightened

let eliminate ~n ~keep rows =
  let rows = ref rows in
  for v = 0 to n - 1 do
    if not (keep v) then rows := eliminate_one ~n ~var:v !rows
  done;
  !rows
