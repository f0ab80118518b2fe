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
   [k] is +-1, into row [r]; the result has coefficient 0 on [k].  It is
   [Vec.combine 1 r c e] with [c = -b * a]: only the columns where [e] is
   nonzero change, so the row is copied and those entries combined (an
   equality usually mentions a few of the many columns). *)
let subst_eq ~k e r =
  let a = e.(k + 1) in
  assert (abs a = 1);
  let b = r.(k + 1) in
  if b = 0 then r
  else begin
    let c = -b * a in
    let out = Array.copy r in
    for j = 0 to Array.length e - 1 do
      if e.(j) <> 0 then out.(j) <- Ints.add r.(j) (Ints.mul c e.(j))
    done;
    out
  end

let drop_var ~k rows = List.map (fun r -> Vec.drop_cols r ~at:(k + 1) ~count:1) rows

(* The first equality with a unit coefficient and its first such
   variable; returns (index-in-list, var). *)
let find_unit_eq eqs =
  let rec unit_col e j =
    if j = Array.length e then None
    else if abs e.(j) = 1 then Some (j - 1)
    else unit_col e (j + 1)
  in
  let rec scan i = function
    | [] -> None
    | e :: rest -> (
        match unit_col e 1 with Some v -> Some (i, v) | None -> scan (i + 1) rest)
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
   re-normalizes only the rows it changed.  Returns (n, ineqs), one row per
   coefficient vector, as every Fourier–Motzkin step leaves them. *)
let rec eliminate_normalized n eqs ineqs =
  match eqs with
  | [] -> drop_unused n (Fm.dedup (List.filter_map normalize_ineq ineqs))
  | _ -> (
      match find_unit_eq eqs with
      | Some (i, k) ->
          Limits.charge ~stage:"omega.eq" 1;
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
          Limits.charge ~stage:"omega.mod" 1;
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
                let shadow_feasible ~dark =
                  solve (n - 1) (drop_var ~k:v (Fm.eliminate_one ~dark ~var:v ineqs))
                in
                if exact then shadow_feasible ~dark:false
                else if shadow_feasible ~dark:true then true
                else if not (shadow_feasible ~dark:false) then false
                else
                  (* Shadows disagree: enumerate Pugh's splinters. Feasibility
                     holds iff some lower bound is within its splinter range. *)
                  let lo, hi, _ = Fm.bounds_on ~var:v ineqs in
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
                          let () = Limits.charge ~stage:"omega.splinter" 1 in
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
        let lo, hi, _ = Fm.bounds_on ~var:v proj in
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
