open Tiramisu_support

type t = { n : int; eqs : int array list; ineqs : int array list }

let check_row n r =
  if Array.length r <> n + 1 then
    invalid_arg
      (Printf.sprintf "Poly: row arity %d, expected %d" (Array.length r - 1) n)

let make n ~eqs ~ineqs =
  List.iter (check_row n) eqs;
  List.iter (check_row n) ineqs;
  { n; eqs; ineqs }

let universe n = { n; eqs = []; ineqs = [] }
let dim p = p.n

let add_eq p r =
  check_row p.n r;
  { p with eqs = r :: p.eqs }

let add_ineq p r =
  check_row p.n r;
  { p with ineqs = r :: p.ineqs }

let add_cstr ~cols p c =
  match Cstr.to_row ~cols c with `Eq r -> add_eq p r | `Ineq r -> add_ineq p r

let intersect a b =
  if a.n <> b.n then invalid_arg "Poly.intersect: arity mismatch";
  { n = a.n; eqs = a.eqs @ b.eqs; ineqs = a.ineqs @ b.ineqs }

let is_empty p = not (Omega.feasible ~n:p.n ~eqs:p.eqs ~ineqs:p.ineqs)
let sample p = Omega.sample ~n:p.n ~eqs:p.eqs ~ineqs:p.ineqs

let eval row pt =
  let acc = ref row.(0) in
  Array.iteri (fun i x -> acc := Ints.add !acc (Ints.mul row.(i + 1) x)) pt;
  !acc

let mem p pt =
  Array.length pt = p.n
  && List.for_all (fun r -> eval r pt = 0) p.eqs
  && List.for_all (fun r -> eval r pt >= 0) p.ineqs

let insert_vars p ~at ~count =
  let f r = Vec.insert_cols r ~at:(at + 1) ~count in
  { n = p.n + count; eqs = List.map f p.eqs; ineqs = List.map f p.ineqs }

let drop_vars p ~at ~count =
  let f r = Vec.drop_cols r ~at:(at + 1) ~count in
  { n = p.n - count; eqs = List.map f p.eqs; ineqs = List.map f p.ineqs }

(* Normalize equality rows; raises Omega.Infeasible on contradiction. *)
let normalize_eqs eqs = List.filter_map Omega.normalize_eq eqs

(* Substitute out every to-be-eliminated variable that carries a unit
   coefficient in some equality. Exact.  The rows keep their arity: the
   substituted column is left at zero ([Omega.subst_eq] zeroes it, and a
   row without the variable is shared unchanged). *)
let subst_units ~keep p =
  let zeroed = Array.make p.n false in
  (* The first equality with a unit coefficient on a variable still to go,
     and the first such variable in it. *)
  let rec pick = function
    | [] -> None
    | e :: rest ->
        let k = ref (-1) and j = ref 1 in
        while !k < 0 && !j <= p.n do
          if abs e.(!j) = 1 && (not (keep (!j - 1))) && not zeroed.(!j - 1)
          then k := !j - 1;
          incr j
        done;
        if !k >= 0 then Some (e, !k) else pick rest
  in
  let rec go eqs ineqs =
    match pick eqs with
    | None -> (eqs, ineqs, zeroed)
    | Some (e, k) ->
        let eqs' =
          List.filter_map
            (fun r -> if r == e then None else Some (Omega.subst_eq ~k e r))
            eqs
        in
        let ineqs' = List.map (Omega.subst_eq ~k e) ineqs in
        zeroed.(k) <- true;
        go eqs' ineqs'
  in
  go (normalize_eqs p.eqs) p.ineqs

let eliminate p ~keep =
  match subst_units ~keep p with
  | exception Omega.Infeasible ->
      (* Represent the contradiction explicitly: -1 >= 0. *)
      let bad = Vec.zero (p.n + 1) in
      bad.(0) <- -1;
      ({ n = p.n; eqs = []; ineqs = [ bad ] }, true)
  | eqs, ineqs, zeroed ->
      (* One scan of the rows marks the variables still to go that some
         row mentions: the leftovers. *)
      let leftover = Array.make p.n false in
      let mark r =
        for v = 0 to p.n - 1 do
          if r.(v + 1) <> 0 && (not (keep v)) && not zeroed.(v) then
            leftover.(v) <- true
        done
      in
      List.iter mark eqs;
      List.iter mark ineqs;
      if not (Array.exists Fun.id leftover) then ({ n = p.n; eqs; ineqs }, true)
      else
        (* Fall back to rational Fourier-Motzkin with integer tightening:
           an over-approximation of the integer projection. *)
        let rows =
          ineqs @ List.concat_map (fun e -> [ e; Vec.neg e ]) eqs
        in
        let rows' = Fm.eliminate ~n:p.n ~keep:(fun v -> not leftover.(v)) rows in
        ({ n = p.n; eqs = []; ineqs = rows' }, false)

let project_out p ~at ~count =
  let keep v = v < at || v >= at + count in
  let q, exact = eliminate p ~keep in
  (drop_vars q ~at ~count, exact)

let fix_var p v c =
  let row = Vec.unit (p.n + 1) (v + 1) in
  row.(0) <- -c;
  add_eq p row

(* Gauss-propagate the normalized equalities until no single-variable row
   [x_j = c] substitutes into another; then every variable's value is the
   first single-variable unit row on it.  An infeasible system (a row
   [0 = c], or a GCD that does not divide the constant) fixes nothing. *)
let constant_values p =
  let values = Array.make p.n None in
  let single e =
    let j = ref (-1) and many = ref false in
    for i = 1 to p.n do
      if e.(i) <> 0 then if !j < 0 then j := i - 1 else many := true
    done;
    if !j >= 0 && (not !many) && abs e.(!j + 1) = 1 then Some !j else None
  in
  (match
     let eqs = ref (normalize_eqs p.eqs) in
     let progress = ref true in
     while !progress do
       progress := false;
       List.iter
         (fun e ->
           match single e with
           | Some j ->
               let changed = ref false in
               eqs :=
                 List.map
                   (fun r ->
                     if r != e && r.(j + 1) <> 0 then (
                       changed := true;
                       let r' = Omega.subst_eq ~k:j e r in
                       r'.(j + 1) <- 0;
                       r')
                     else r)
                   !eqs;
               if !changed then progress := true
           | None -> ())
         !eqs;
       eqs := normalize_eqs !eqs
     done;
     !eqs
   with
  | exception Omega.Infeasible -> ()
  | eqs ->
      List.iter
        (fun e ->
          match single e with
          | Some j when values.(j) = None -> values.(j) <- Some (-e.(0) * e.(j + 1))
          | _ -> ())
        eqs);
  values

let to_ineqs p = p.ineqs @ List.concat_map (fun e -> [ e; Vec.neg e ]) p.eqs

(* not (row >= 0)  <=>  -row - 1 >= 0 *)
let negate_ineq row =
  let r = Vec.neg row in
  r.(0) <- Ints.sub r.(0) 1;
  r

let subtract a b =
  if a.n <> b.n then invalid_arg "Poly.subtract: arity mismatch";
  let rows = to_ineqs b in
  let pieces, _ =
    List.fold_left
      (fun (acc, ctx) row ->
        let piece = add_ineq ctx (negate_ineq row) in
        let ctx' = add_ineq ctx row in
        ((if is_empty piece then acc else piece :: acc), ctx'))
      ([], a) rows
  in
  List.rev pieces

(* [sign·r >= 0] implies [row >= 0] syntactically: the same variable
   coefficients and a constant no larger. *)
let dominates ~sign r row =
  sign * r.(0) <= row.(0)
  &&
  let rec same i = i = Array.length row || (sign * r.(i) = row.(i) && same (i + 1)) in
  same 1

(* Does a row of [p] already give [row >= 0]?  An equality counts in both
   signs.  Exact: [p] then implies [row >= 0], as Omega would answer. *)
let holds p row =
  List.exists (fun r -> dominates ~sign:1 r row) p.ineqs
  || List.exists (fun e -> dominates ~sign:1 e row || dominates ~sign:(-1) e row) p.eqs

let implies_ineq p row =
  check_row p.n row;
  holds p row || is_empty (add_ineq p (negate_ineq row))

let extend ctx p =
  if ctx.n <> p.n then invalid_arg "Poly.extend: arity mismatch";
  let held added r = holds ctx r || holds added r in
  let added =
    List.fold_left
      (fun a e -> if held a e && held a (Vec.neg e) then a else { a with eqs = e :: a.eqs })
      (universe p.n) p.eqs
  in
  let added =
    List.fold_left
      (fun a r -> if held a r then a else { a with ineqs = r :: a.ineqs })
      added p.ineqs
  in
  let append rows = function [] -> rows | added -> rows @ List.rev added in
  { ctx with eqs = append ctx.eqs added.eqs; ineqs = append ctx.ineqs added.ineqs }

let gist p ~ctx =
  let keep_ineqs = List.filter (fun r -> not (implies_ineq ctx r)) p.ineqs in
  let keep_eqs =
    List.filter
      (fun e -> not (implies_ineq ctx e && implies_ineq ctx (Vec.neg e)))
      p.eqs
  in
  { p with eqs = keep_eqs; ineqs = keep_ineqs }

let permute p perm =
  if Array.length perm <> p.n then invalid_arg "Poly.permute";
  let f r =
    Array.init (p.n + 1) (fun i -> if i = 0 then r.(0) else r.(perm.(i - 1) + 1))
  in
  { p with eqs = List.map f p.eqs; ineqs = List.map f p.ineqs }

let subset a b =
  a.n = b.n
  && List.for_all
       (fun r -> implies_ineq a r)
       (to_ineqs b)

let equal a b = subset a b && subset b a

(* ---------- cardinality ---------- *)

(* Integer bounds on column [v] from inequality rows: [c·v + k >= 0] gives
   [v >= cdiv(-k,c)] for c > 0 and [v <= fdiv(k,-c)] for c < 0.  [None]
   means no finite bound on that side. *)
let var_bounds rows v =
  List.fold_left
    (fun (lo, hi) row ->
      let c = row.(v + 1) and k = row.(0) in
      if c > 0 then
        let b = Ints.cdiv (-k) c in
        ((match lo with None -> Some b | Some l -> Some (max l b)), hi)
      else if c < 0 then
        let b = Ints.fdiv k (-c) in
        (lo, match hi with None -> Some b | Some h -> Some (min h b))
      else (lo, hi))
    (None, None) rows

(* Partition the dimensions that appear in some constraint into connected
   components (two variables are linked when a row mentions both); counting
   factors into a product over components. *)
let components p =
  let parent = Array.init p.n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let appears = Array.make p.n false in
  List.iter
    (fun r ->
      let first = ref (-1) in
      Array.iteri
        (fun j c ->
          if j > 0 && c <> 0 then begin
            appears.(j - 1) <- true;
            if !first < 0 then first := j - 1
            else parent.(find !first) <- find (j - 1)
          end)
        r)
    (p.eqs @ p.ineqs);
  let groups = Hashtbl.create 8 in
  for v = p.n - 1 downto 0 do
    if appears.(v) then
      let r = find v in
      Hashtbl.replace groups r
        (v :: Option.value (Hashtbl.find_opt groups r) ~default:[])
  done;
  (appears, Hashtbl.fold (fun _ vs acc -> vs :: acc) groups [])

(* Point visits one enumeration may make before [card] gives up. *)
let card_budget = 1 lsl 16

let card p =
  if is_empty p then Some 0
  else
    let appears, comps = components p in
    if Array.exists (fun a -> not a) appears then
      (* An unconstrained dimension makes a non-empty set infinite. *)
      None
    else begin
      let remaining = ref card_budget in
      (* Enumerate a multi-variable component: bound one variable by
         projection, fix each value, recurse.  The FM range may
         over-approximate; the emptiness check keeps the count exact. *)
      let rec enum q = function
        | [] -> Some 1
        | v :: rest -> (
            let proj, _ = eliminate q ~keep:(fun i -> i = v) in
            match var_bounds (to_ineqs proj) v with
            | Some lo, Some hi ->
                if hi < lo then Some 0
                else if hi - lo + 1 > !remaining then None
                else begin
                  let total = ref 0 and ok = ref true in
                  let x = ref lo in
                  while !ok && !x <= hi do
                    decr remaining;
                    let q' = fix_var q v !x in
                    if not (is_empty q') then begin
                      match enum q' rest with
                      | Some c -> total := !total + c
                      | None -> ok := false
                    end;
                    incr x
                  done;
                  if !ok then Some !total else None
                end
            | _ -> None)
      in
      let count_comp = function
        | [ v ] -> (
            (* Every row mentioning a singleton-component variable mentions
               only that variable, so its points form exactly the integer
               interval [lo, hi]. *)
            match var_bounds (to_ineqs p) v with
            | Some lo, Some hi -> Some (max 0 (hi - lo + 1))
            | _ -> None)
        | vs -> enum p vs
      in
      List.fold_left
        (fun acc vs ->
          match (acc, count_comp vs) with
          | Some a, Some c -> Some (a * c)
          | _ -> None)
        (Some 1) comps
    end

let pp ppf p =
  let pp_row kind ppf r =
    Format.fprintf ppf "%d" r.(0);
    Array.iteri
      (fun i c -> if i > 0 && c <> 0 then Format.fprintf ppf " %+d·x%d" c (i - 1))
      r;
    Format.fprintf ppf " %s 0" kind
  in
  Format.fprintf ppf "@[<v>{ dim=%d" p.n;
  List.iter (fun r -> Format.fprintf ppf ";@ %a" (pp_row "=") r) p.eqs;
  List.iter (fun r -> Format.fprintf ppf ";@ %a" (pp_row ">=") r) p.ineqs;
  Format.fprintf ppf " }@]"
