open Tiramisu_support

exception Infeasible

(* Symmetric residue of [a] modulo [m]: the representative of [a mod m] in
   (-m/2, m/2]. Pugh's modular reduction relies on mod_hat (m-1) m = -1. *)
let mod_hat a m =
  let r = Ints.emod a m in
  if 2 * r > m then r - m else r

let normalize_eq row =
  let g = Vec.content_except row 0 in
  if g = 0 then if row.(0) = 0 then None else raise Infeasible
  else if row.(0) mod g <> 0 then raise Infeasible
  else if g = 1 then Some row
  else Some (Array.map (fun c -> c / g) row)

let normalize_ineq row =
  match Fm.tighten row with
  | None -> None
  | Some r ->
      if Vec.content_except r 0 = 0 then
        if r.(0) >= 0 then None else raise Infeasible
      else Some r

(* Substitute variable [k] (0-based) using equality [e] whose coefficient on
   [k] is +-1, into row [r]; the result has coefficient 0 on [k]. *)
let subst_eq ~k e r =
  let a = e.(k + 1) in
  assert (abs a = 1);
  let b = r.(k + 1) in
  if b = 0 then r else Vec.combine 1 r (-b * a) e

let drop_var ~k rows = List.map (fun r -> Vec.drop_cols r ~at:(k + 1) ~count:1) rows

(* Find an equality with a unit coefficient; returns (index-in-list, var). *)
let find_unit_eq eqs =
  let rec scan i = function
    | [] -> None
    | e :: rest -> (
        let unit_var = ref None in
        Array.iteri (fun j c -> if j > 0 && abs c = 1 && !unit_var = None then unit_var := Some (j - 1)) e;
        match !unit_var with Some v -> Some (i, v) | None -> scan (i + 1) rest)
  in
  scan 0 eqs

let nth_split l i =
  let rec go acc i = function
    | [] -> invalid_arg "nth_split"
    | x :: rest -> if i = 0 then (x, List.rev_append acc rest) else go (x :: acc) (i - 1) rest
  in
  go [] i l

(* Drop the variables no row mentions, in one pass over the rows; returns
   the new variable count and the narrowed rows. *)
let drop_unused n rows =
  let used = Array.make n false in
  List.iter
    (fun r ->
      for v = 0 to n - 1 do
        if r.(v + 1) <> 0 then used.(v) <- true
      done)
    rows;
  let keep = Array.of_list (List.filter (fun v -> used.(v)) (List.init n Fun.id)) in
  let n' = Array.length keep in
  if n' = n then (n, rows)
  else
    let narrow r =
      Array.init (n' + 1) (fun j -> if j = 0 then r.(0) else r.(keep.(j - 1) + 1))
    in
    (n', List.map narrow rows)

(* Eliminate all equalities, returning an equivalent pure-inequality system.
   Rows keep their width [n] while unit equalities are substituted: the
   substituted column is left at zero, and the columns no row mentions are
   dropped once, at the end.  Modular reduction introduces fresh variables,
   appended as new columns.  [eqs] are normalized; a substitution
   re-normalizes only the rows it changed.  Returns (n, ineqs). *)
let rec eliminate_normalized n eqs ineqs =
  match eqs with
  | [] -> drop_unused n (List.filter_map normalize_ineq ineqs)
  | _ -> (
      match find_unit_eq eqs with
      | Some (i, k) ->
          let e, rest = nth_split eqs i in
          let eqs' =
            List.filter_map
              (fun r ->
                let r' = subst_eq ~k e r in
                if r' == r then Some r else normalize_eq r')
              rest
          in
          eliminate_normalized n eqs' (List.map (subst_eq ~k e) ineqs)
      | None ->
          (* Modular reduction: no unit coefficient anywhere. Pick the
             equality variable with the smallest |coefficient| >= 2. *)
          let best = ref None in
          List.iteri
            (fun i e ->
              Array.iteri
                (fun j c ->
                  if j > 0 && c <> 0 then
                    match !best with
                    | Some (_, _, a) when abs a <= abs c -> ()
                    | _ -> best := Some (i, j - 1, c))
                e)
            eqs;
          let i, _k, a = Option.get !best in
          let e, _ = nth_split eqs i in
          let m = abs a + 1 in
          (* Fresh variable sigma appended as column n. New equality:
             sum mod_hat(a_i) x_i + mod_hat(c) - m*sigma = 0, with
             coefficient -sign(a) (i.e. unit) on x_k. *)
          let widen r = Vec.insert_cols r ~at:(Array.length r) ~count:1 in
          let e' =
            let r = Array.map (fun c -> mod_hat c m) (widen e) in
            r.(n + 1) <- -m;
            r
          in
          let eqs' = e' :: List.map widen eqs in
          let ineqs' = List.map widen ineqs in
          eliminate_normalized (n + 1) eqs' ineqs')

let eliminate_eqs n eqs ineqs =
  eliminate_normalized n (List.filter_map normalize_eq eqs) ineqs

(* All-pairs shadow of [lo]x[hi] over [var]; [dark] subtracts (a-1)(b-1). *)
let shadows ~var ~dark lo hi rest =
  let combined =
    List.concat_map
      (fun l ->
        List.map
          (fun u ->
            let a = l.(var + 1) and b = -u.(var + 1) in
            let row = Vec.combine b l a u in
            if dark then row.(0) <- Ints.sub row.(0) ((a - 1) * (b - 1));
            row)
          hi)
      lo
  in
  drop_var ~k:var (combined @ rest)

let rec solve n ineqs =
  match List.filter_map normalize_ineq ineqs with
  | exception Infeasible -> false
  | [] -> true
  | ineqs ->
      if n = 0 then true
      else
        (* One pass counts each variable's lower and upper bounds and
           whether they all have a unit coefficient. *)
        let nlo = Array.make n 0 and nhi = Array.make n 0 in
        let unit_lo = Array.make n true and unit_hi = Array.make n true in
        List.iter
          (fun r ->
            for v = 0 to n - 1 do
              let c = r.(v + 1) in
              if c > 0 then begin
                nlo.(v) <- nlo.(v) + 1;
                if c <> 1 then unit_lo.(v) <- false
              end
              else if c < 0 then begin
                nhi.(v) <- nhi.(v) + 1;
                if c <> -1 then unit_hi.(v) <- false
              end
            done)
          ineqs;
        (* Drop variables unbounded in one direction: constraints bounding
           them cannot cause infeasibility. *)
        let free = ref None in
        for v = n - 1 downto 0 do
          if (nlo.(v) > 0) <> (nhi.(v) > 0) then free := Some v
        done;
        (match !free with
        | Some v ->
            let remaining = List.filter (fun r -> r.(v + 1) = 0) ineqs in
            solve (n - 1) (drop_var ~k:v remaining)
        | None ->
            (* Every variable is two-sided bounded (or absent). Choose the
               elimination variable: prefer an exact one, else fewest pairs;
               the first such in variable order. *)
            let best = ref None in
            for v = 0 to n - 1 do
              if nlo.(v) > 0 then begin
                let p = nlo.(v) * nhi.(v) and e = unit_lo.(v) || unit_hi.(v) in
                match !best with
                | Some (_, bp, be) when not ((e && not be) || (e = be && p < bp)) -> ()
                | _ -> best := Some (v, p, e)
              end
            done;
            (match !best with
            | None ->
                (* No variable actually appears: all rows constant, already
                   validated by normalize_ineq. *)
                true
            | Some (v, _, exact) ->
                let lo, hi, rest = Fm.bounds_on ~n ~var:v ineqs in
                if exact then solve (n - 1) (shadows ~var:v ~dark:false lo hi rest)
                else if solve (n - 1) (shadows ~var:v ~dark:true lo hi rest) then true
                else if not (solve (n - 1) (shadows ~var:v ~dark:false lo hi rest))
                then false
                else
                  (* Shadows disagree: enumerate Pugh's splinters. Feasibility
                     holds iff some lower bound is within its splinter range. *)
                  let cmax =
                    List.fold_left (fun m u -> max m (-u.(v + 1))) 1 hi
                  in
                  List.exists
                    (fun l ->
                      let a = l.(v + 1) in
                      let imax = (a * cmax - a - cmax) / cmax in
                      let rec try_i i =
                        if i > imax then false
                        else
                          let eq = Array.copy l in
                          eq.(0) <- Ints.sub eq.(0) i;
                          match eliminate_eqs n [ eq ] ineqs with
                          | exception Infeasible -> try_i (i + 1)
                          | n', sys -> solve n' sys || try_i (i + 1)
                      in
                      try_i 0)
                    lo))

let feasible ~n ~eqs ~ineqs =
  match eliminate_eqs n eqs ineqs with
  | exception Infeasible -> false
  | n', ineqs' -> solve n' ineqs'

let sample ~n ~eqs ~ineqs =
  if not (feasible ~n ~eqs ~ineqs) then None
  else
    (* Fix variables one at a time, highest index first; candidate values come
       from the FM-projected (over-approximated) bounds, validated by the
       exact test. *)
    let limit = 100_000 in
    let rec fix n eqs ineqs acc =
      if n = 0 then Some (Array.of_list acc)
      else
        let v = n - 1 in
        let rows =
          ineqs
          @ List.concat_map (fun e -> [ e; Vec.neg e ]) eqs
        in
        let proj = Fm.eliminate ~n ~keep:(fun i -> i = v) rows in
        let lo, hi, _ = Fm.bounds_on ~n ~var:v proj in
        let lb =
          List.fold_left
            (fun acc r -> max acc (Ints.cdiv (-r.(0)) r.(v + 1)))
            (-limit) lo
        in
        let ub =
          List.fold_left
            (fun acc r -> min acc (Ints.fdiv r.(0) (-r.(v + 1))))
            limit hi
        in
        let rec scan x =
          if x > ub then None
          else
            let fix_row = Vec.unit (n + 1) (v + 1) in
            fix_row.(0) <- -x;
            if feasible ~n ~eqs:(fix_row :: eqs) ~ineqs then
              let substitute r =
                let r' = Array.copy r in
                r'.(0) <- Ints.add r'.(0) (Ints.mul r.(v + 1) x);
                Vec.drop_cols r' ~at:(v + 1) ~count:1
              in
              fix (n - 1) (List.map substitute eqs) (List.map substitute ineqs)
                (x :: acc)
            else scan (x + 1)
        in
        scan lb
    in
    fix n eqs ineqs []
