(* Tests for the presburger substrate: the Omega test and Poly operations are
   validated against brute-force enumeration over small boxes. *)

open Tiramisu_presburger

let box_points n lo hi =
  (* All integer points of [lo,hi]^n. *)
  let rec go k acc =
    if k = 0 then acc
    else
      go (k - 1)
        (List.concat_map
           (fun pt -> List.init (hi - lo + 1) (fun i -> (lo + i) :: pt))
           acc)
  in
  List.map Array.of_list (go n [ [] ])

(* Constrain every variable to the box so brute force is exhaustive. *)
let boxed n lo hi p =
  let p = ref p in
  for v = 0 to n - 1 do
    let lower = Array.make (n + 1) 0 in
    lower.(0) <- -lo;
    lower.(v + 1) <- 1;
    let upper = Array.make (n + 1) 0 in
    upper.(0) <- hi;
    upper.(v + 1) <- -1;
    p := Poly.add_ineq (Poly.add_ineq !p lower) upper
  done;
  !p

let row_gen n =
  QCheck.Gen.(
    array_size (return (n + 1)) (int_range (-4) 4))

let poly_gen n =
  QCheck.Gen.(
    let* neq = int_range 0 2 in
    let* nineq = int_range 0 4 in
    let* eqs = list_size (return neq) (row_gen n) in
    let* ineqs = list_size (return nineq) (row_gen n) in
    return (Poly.make n ~eqs ~ineqs))

let arb_poly n =
  QCheck.make ~print:(fun p -> Format.asprintf "%a" Poly.pp p) (poly_gen n)

let brute_nonempty n lo hi p =
  List.exists (fun pt -> Poly.mem p pt) (box_points n lo hi)

let prop_emptiness n =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "omega emptiness = brute force (dim %d)" n)
    (arb_poly n)
    (fun p ->
      let p = boxed n (-3) 3 p in
      Poly.is_empty p = not (brute_nonempty n (-3) 3 p))

let prop_sample n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "sample lies in the set (dim %d)" n)
    (arb_poly n)
    (fun p ->
      let p = boxed n (-3) 3 p in
      match Poly.sample p with
      | None -> Poly.is_empty p
      | Some pt -> Poly.mem p pt)

let prop_projection_sound n =
  (* Every point of the set projects into the (possibly over-approximated)
     projection. *)
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "projection soundness (dim %d)" n)
    (arb_poly n)
    (fun p ->
      let p = boxed n (-3) 3 p in
      let proj, _exact = Poly.project_out p ~at:(n - 1) ~count:1 in
      List.for_all
        (fun pt ->
          (not (Poly.mem p pt))
          || Poly.mem proj (Array.sub pt 0 (n - 1)))
        (box_points n (-3) 3))

let prop_subtract n =
  QCheck.Test.make ~count:120
    ~name:(Printf.sprintf "subtract = brute force (dim %d)" n)
    (QCheck.pair (arb_poly n) (arb_poly n))
    (fun (a, b) ->
      let a = boxed n (-2) 2 a in
      let pieces = Poly.subtract a b in
      List.for_all
        (fun pt ->
          let expected = Poly.mem a pt && not (Poly.mem b pt) in
          let got = List.exists (fun q -> Poly.mem q pt) pieces in
          expected = got)
        (box_points n (-2) 2))

let prop_card n =
  (* The planner's trip counts lean on this: [card] is exact (or [None]),
     never an approximation. *)
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "card = brute force (dim %d)" n)
    (arb_poly n)
    (fun p ->
      let p = boxed n (-3) 3 p in
      let brute =
        List.length
          (List.filter (fun pt -> Poly.mem p pt) (box_points n (-3) 3))
      in
      Poly.card p = Some brute)

let prop_gist n =
  QCheck.Test.make ~count:120
    ~name:(Printf.sprintf "gist preserves set within context (dim %d)" n)
    (QCheck.pair (arb_poly n) (arb_poly n))
    (fun (p, ctx) ->
      let p = boxed n (-2) 2 p in
      let g = Poly.gist p ~ctx in
      List.for_all
        (fun pt ->
          (not (Poly.mem ctx pt)) || Poly.mem p pt = Poly.mem g pt)
        (box_points n (-2) 2))

(* ---------- the implication screen is exact ----------

   [Poly.implies_ineq] answers "implied" without a query when the system
   holds a row with the same coefficients and a constant no larger.  The
   reference below is the screen-free version: every implication is an
   Omega emptiness query.  [gist] must keep exactly the same rows, in the
   same order, on contexts built to hit the screen's edges: rows copied
   from [p], copies with a smaller and with a larger constant, equalities
   in both signs, and rows that differ in one coefficient. *)

let omega_implies p row =
  let neg = Array.map (fun c -> -c) row in
  neg.(0) <- neg.(0) - 1;
  Poly.is_empty (Poly.add_ineq p neg)

let omega_gist p ~ctx =
  let neg r = Array.map (fun c -> -c) r in
  let ineqs = List.filter (fun r -> not (omega_implies ctx r)) p.Poly.ineqs in
  let eqs =
    List.filter (fun e -> not (omega_implies ctx e && omega_implies ctx (neg e))) p.Poly.eqs
  in
  Poly.make (Poly.dim p) ~eqs ~ineqs

(* A context row derived from a row of [p]. *)
let derived_row r =
  QCheck.Gen.(
    let n = Array.length r - 1 in
    let* kind = int_range 0 5 in
    let* d = int_range 1 3 in
    let* col = int_range 1 (max 1 n) in
    let* sign = oneofl [ 1; -1 ] in
    let r' = Array.copy r in
    return
      (match kind with
      | 0 -> `Ineq r'
      | 1 ->
          r'.(0) <- r.(0) - d;
          `Ineq r'
      | 2 ->
          r'.(0) <- r.(0) + d;
          `Ineq r'
      | 3 -> `Eq (Array.map (fun c -> sign * c) r')
      | 4 ->
          if n > 0 then r'.(col) <- r.(col) + (sign * d);
          `Ineq r'
      | _ ->
          (* an equality with a shifted constant, in either sign *)
          r'.(0) <- r.(0) + (sign * d);
          `Eq (Array.map (fun c -> sign * c) r')))

let gist_pair_gen n =
  QCheck.Gen.(
    let* p = poly_gen n in
    let* base = poly_gen n in
    let rows = p.Poly.ineqs @ p.Poly.eqs @ List.map (Array.map (fun c -> -c)) p.Poly.eqs in
    let* derived = flatten_l (List.map derived_row rows) in
    let* keep = list_size (return (List.length derived)) bool in
    let picked = List.filteri (fun i _ -> List.nth keep i) derived in
    let eqs = List.filter_map (function `Eq r -> Some r | `Ineq _ -> None) picked in
    let ineqs = List.filter_map (function `Ineq r -> Some r | `Eq _ -> None) picked in
    return (p, Poly.make n ~eqs:(base.Poly.eqs @ eqs) ~ineqs:(base.Poly.ineqs @ ineqs)))

let arb_gist_pair n =
  QCheck.make
    ~print:(fun (p, ctx) -> Format.asprintf "p = %a@.ctx = %a" Poly.pp p Poly.pp ctx)
    (gist_pair_gen n)

let prop_screen_exact n =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "gist screen = Omega, rows (dim %d)" n)
    (arb_gist_pair n)
    (fun (p, ctx) ->
      let g = Poly.gist p ~ctx and want = omega_gist p ~ctx in
      let rows = Poly.to_ineqs p @ Poly.to_ineqs ctx in
      g.Poly.eqs = want.Poly.eqs
      && g.Poly.ineqs = want.Poly.ineqs
      && List.for_all (fun r -> Poly.implies_ineq ctx r = omega_implies ctx r) rows)

(* [extend] describes the same set as [intersect], keeps [ctx]'s rows first,
   and adds only rows of [p]. *)
let prop_extend n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "extend = intersect as sets (dim %d)" n)
    (arb_gist_pair n)
    (fun (p, ctx) ->
      let e = Poly.extend ctx p and i = Poly.intersect ctx p in
      let prefix l l' = List.filteri (fun k _ -> k < List.length l) l' = l in
      List.for_all (fun pt -> Poly.mem e pt = Poly.mem i pt) (box_points n (-2) 2)
      && prefix ctx.Poly.eqs e.Poly.eqs
      && prefix ctx.Poly.ineqs e.Poly.ineqs
      && List.length e.Poly.eqs + List.length e.Poly.ineqs
         <= List.length i.Poly.eqs + List.length i.Poly.ineqs)

(* ---------- constant_values = one constant_value per column ----------

   The reference is the per-column function [constant_values] replaced:
   Gauss-propagate the equalities, then take the first single-variable
   unit row on the column.  Systems are equality-heavy with unit
   coefficients, and some are infeasible: [0 = 1], or a GCD that does not
   divide the constant. *)

let reference_constant_value p v =
  let n = Poly.dim p in
  let normalize eqs = List.filter_map Omega.normalize_eq eqs in
  match
    let eqs = ref (normalize p.Poly.eqs) in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun e ->
          let nz = List.filter (fun j -> e.(j + 1) <> 0) (List.init n Fun.id) in
          match nz with
          | [ j ] when abs e.(j + 1) = 1 ->
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
          | _ -> ())
        !eqs;
      eqs := normalize !eqs
    done;
    !eqs
  with
  | exception Omega.Infeasible -> None
  | eqs ->
      List.find_map
        (fun e ->
          let nz = List.filter (fun j -> e.(j + 1) <> 0) (List.init n Fun.id) in
          match nz with
          | [ j ] when j = v && abs e.(j + 1) = 1 -> Some (-e.(0) * e.(j + 1))
          | _ -> None)
        eqs

let constant_system_gen n =
  QCheck.Gen.(
    let coef = frequency [ (3, return 0); (2, oneofl [ -1; 1 ]); (1, oneofl [ -2; 2; 3 ]) ] in
    let row = map2 (fun k cs -> Array.append [| k |] cs) (int_range (-5) 5) (array_size (return n) coef) in
    let single =
      map3
        (fun v k c ->
          let r = Array.make (n + 1) 0 in
          r.(0) <- k;
          r.(v + 1) <- c;
          r)
        (int_range 0 (n - 1)) (int_range (-5) 5) (oneofl [ -1; 1; 2 ])
    in
    let bad =
      (* 0 = 1, or 2·x_v + odd = 0 *)
      oneof
        [ return (Array.init (n + 1) (fun i -> if i = 0 then 1 else 0));
          map2
            (fun v k ->
              Array.init (n + 1) (fun i -> if i = 0 then (2 * k) + 1 else if i = v + 1 then 2 else 0))
            (int_range 0 (n - 1)) (int_range (-3) 3) ]
    in
    let* eqs = list_size (int_range 0 n) (frequency [ (2, single); (3, row) ]) in
    let* infeasible = frequency [ (4, return []); (1, map (fun r -> [ r ]) bad) ] in
    let* at = int_range 0 (List.length eqs) in
    let eqs = List.filteri (fun i _ -> i < at) eqs @ infeasible @ List.filteri (fun i _ -> i >= at) eqs in
    let* ineqs = list_size (int_range 0 2) (row_gen n) in
    return (Poly.make n ~eqs ~ineqs))

let permutations l =
  let rec go = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun (i, x) ->
            List.map (List.cons x)
              (go (List.filteri (fun j _ -> j <> i) l)))
          (List.mapi (fun i x -> (i, x)) l)
  in
  go l

(* Loop bounds and guards print in the order Fourier-Motzkin returns its
   rows, so that order must depend only on the set of rows it is given.
   At least one variable is eliminated ([drop]); the others go with [mask]. *)
let prop_fm_order n =
  let print (rows, mask, drop) =
    Printf.sprintf "rows [%s] mask %d drop %d"
      (String.concat "; "
         (List.map
            (fun r ->
              String.concat " " (Array.to_list (Array.map string_of_int r)))
            rows))
      mask drop
  in
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "FM elimination ignores row order (dim %d)" n)
    (QCheck.make ~print
       QCheck.Gen.(
         triple
           (list_size (int_range 1 5) (row_gen n))
           (int_bound ((1 lsl n) - 1))
           (int_bound (n - 1))))
    (fun (rows, mask, drop) ->
      let keep v = v <> drop && mask land (1 lsl v) <> 0 in
      let want = Fm.eliminate ~n ~keep rows in
      List.for_all
        (fun rows -> Fm.eliminate ~n ~keep rows = want)
        (permutations rows))

(* Omega's answer depends only on the set of integer points: copies of a
   row, looser copies (the same coefficients and a larger constant, implied
   by the row) and their order change nothing.  The rows are boxed so the
   splinter search stays small. *)
let prop_repeated_rows n =
  let print (eqs, ineqs, _) =
    Format.asprintf "%a" Poly.pp (Poly.make n ~eqs ~ineqs)
  in
  let gen =
    QCheck.Gen.(
      let* eqs = list_size (int_range 0 1) (row_gen n) in
      let* ineqs = list_size (int_range 1 5) (row_gen n) in
      let ineqs = Poly.to_ineqs (boxed n (-3) 3 (Poly.make n ~eqs:[] ~ineqs)) in
      let copies r =
        map
          (List.map (fun k ->
               let r' = Array.copy r in
               r'.(0) <- r.(0) + k;
               r'))
          (map (List.cons 0) (list_size (int_range 0 3) (oneofl [ 0; 1; 3 ])))
      in
      let* repeated = flatten_l (List.map copies ineqs) in
      let* repeated = shuffle_l (List.concat repeated) in
      return (eqs, ineqs, repeated))
  in
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "omega ignores repeated and permuted rows (dim %d)" n)
    (QCheck.make ~print gen)
    (fun (eqs, ineqs, repeated) ->
      Omega.feasible ~n ~eqs ~ineqs = Omega.feasible ~n ~eqs ~ineqs:repeated)

let prop_constant_values n =
  QCheck.Test.make ~count:400
    ~name:(Printf.sprintf "constant_values exact (dim %d)" n)
    (QCheck.make ~print:(fun p -> Format.asprintf "%a" Poly.pp p) (constant_system_gen n))
    (fun p ->
      Array.to_list (Poly.constant_values p)
      = List.init n (fun v -> reference_constant_value p v))

(* Systems heavy in equalities: up to [n] of them over [n] box variables,
   with coefficients in +-2..+-4 so no equality has a unit coefficient and
   the elimination must take the modular-reduction branch, plus padding
   columns that no row mentions, scattered between the variables. *)
let eq_heavy_gen n =
  QCheck.Gen.(
    let coef = frequency [ (1, return 0); (2, map2 ( * ) (oneofl [ -1; 1 ]) (int_range 2 4)) ] in
    let eq_row = map2 (fun k cs -> Array.append [| k |] cs) (int_range (-6) 6) (array_size (return n) coef) in
    let* eqs = list_size (int_range 1 n) eq_row in
    let* ineqs = list_size (int_range 0 2) (row_gen n) in
    let* gaps = array_size (return (n + 1)) (frequency [ (3, return 0); (1, return 1) ]) in
    (* Column of box variable [v] once the padding before it is inserted. *)
    let col = Array.init n (fun v -> v + Array.fold_left ( + ) 0 (Array.sub gaps 0 (v + 1))) in
    let width = n + Array.fold_left ( + ) 0 gaps in
    let spread r =
      let w = Array.make (width + 1) 0 in
      w.(0) <- r.(0);
      Array.iteri (fun v c -> w.(c + 1) <- r.(v + 1)) col;
      w
    in
    return (col, Poly.make width ~eqs:(List.map spread eqs) ~ineqs:(List.map spread ineqs)))

let prop_eq_heavy n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "omega emptiness = brute force, many equalities, padded (dim %d)" n)
    (QCheck.make ~print:(fun (_, p) -> Format.asprintf "%a" Poly.pp p) (eq_heavy_gen n))
    (fun (col, p) ->
      let lo = -3 and hi = 3 in
      (* Box the real variables; the padding columns stay unmentioned. *)
      let p =
        Array.fold_left
          (fun p c ->
            let bound k s =
              let r = Array.make (Poly.dim p + 1) 0 in
              r.(0) <- k;
              r.(c + 1) <- s;
              r
            in
            Poly.add_ineq (Poly.add_ineq p (bound (-lo) 1)) (bound hi (-1)))
          p col
      in
      let embed pt =
        let full = Array.make (Poly.dim p) 0 in
        Array.iteri (fun v c -> full.(c) <- pt.(v)) col;
        full
      in
      let brute = List.exists (fun pt -> Poly.mem p (embed pt)) (box_points n lo hi) in
      Poly.is_empty p = not brute)

(* ---------- fast paths against the plain ones ---------- *)

(* [Ints.mul] skips its division check when both operands are below 2^30 in
   magnitude; the reference always divides. *)
let checked_mul a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a || (a = min_int && b = -1) then raise Tiramisu_support.Ints.Overflow
    else r

let mul_boundaries () =
  let p30 = 1 lsl 30 and p31 = 1 lsl 31 in
  let ops =
    [ 0; 1; -1; 2; -2; 3; p30 - 1; -(p30 - 1); p30; -p30; p30 + 1; -(p30 + 1); p31;
      -p31; 1 lsl 32; max_int; min_int; max_int - 1; min_int + 1; max_int / 2;
      min_int / 2; (max_int / 2) + 1 ]
  in
  let result f a b = match f a b with r -> Ok r | exception Tiramisu_support.Ints.Overflow -> Error () in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check (result int unit))
            (Printf.sprintf "%d * %d" a b) (result checked_mul a b)
            (result Tiramisu_support.Ints.mul a b))
        ops)
    ops;
  Alcotest.(check (result int unit)) "2^30 * 2^30" (Ok (1 lsl 60))
    (result Tiramisu_support.Ints.mul p30 p30);
  Alcotest.(check (result int unit)) "min_int * -1 overflows" (Error ())
    (result Tiramisu_support.Ints.mul min_int (-1));
  Alcotest.(check (result int unit)) "max_int * 2 overflows" (Error ())
    (result Tiramisu_support.Ints.mul max_int 2)

(* Twelve distinct rows over a 10^3 box, each repeated 250 times: 3000
   bounds.  Keeping the copies, the first shadow alone combines 500
   thousand pairs; deduplicated, each answer takes under 100 units of
   fuel.  The verdicts must match brute force.  [k] bounds x0+x1+x2. *)
let repeated_rows_small_budget () =
  let rows k =
    [ [| 0; 1; 0; 0 |]; [| 9; -1; 0; 0 |]; [| 0; 0; 1; 0 |]; [| 9; 0; -1; 0 |];
      [| 0; 0; 0; 1 |]; [| 9; 0; 0; -1 |]; [| -1; 2; -3; 0 |];
      [| -1; 0; 3; -2 |]; [| k; -1; -1; -1 |]; [| 0; -1; 0; 3 |];
      [| 2; 5; 0; -7 |]; [| 3; -4; 9; 0 |] ]
  in
  List.iter
    (fun k ->
      let brute =
        List.exists (fun pt -> Poly.mem (Poly.make 3 ~eqs:[] ~ineqs:(rows k)) pt)
          (box_points 3 0 9)
      in
      let ineqs = List.concat (List.init 250 (fun _ -> rows k)) in
      Alcotest.(check (option bool))
        (Printf.sprintf "x0+x1+x2 <= %d" k)
        (Some brute)
        (Tiramisu_support.Limits.with_fuel 2_000 (fun () ->
             Omega.feasible ~n:3 ~eqs:[] ~ineqs)))
    [ 20; 3 ]

let unit_tests =
  [
    Alcotest.test_case "Ints.mul = checked product at the boundaries" `Quick mul_boundaries;
    Alcotest.test_case "simple emptiness" `Quick (fun () ->
        (* { x : 0 <= x <= 5 /\ 2x = 7 } is empty over Z. *)
        let p =
          Poly.make 1
            ~eqs:[ [| -7; 2 |] ]
            ~ineqs:[ [| 0; 1 |]; [| 5; -1 |] ]
        in
        Alcotest.(check bool) "empty" true (Poly.is_empty p));
    Alcotest.test_case "parity via dark shadow" `Quick (fun () ->
        (* x even, 1 <= x <= 1 : empty; 1 <= x <= 2 : nonempty. *)
        let even ub =
          Poly.make 2
            ~eqs:[ [| 0; 1; -2 |] ]  (* x = 2y *)
            ~ineqs:[ [| -1; 1; 0 |]; [| ub; -1; 0 |] ]
        in
        Alcotest.(check bool) "x=2y, 1<=x<=1 empty" true (Poly.is_empty (even 1));
        Alcotest.(check bool) "x=2y, 1<=x<=2 nonempty" false
          (Poly.is_empty (even 2)));
    Alcotest.test_case "constant_value" `Quick (fun () ->
        let p = Poly.make 2 ~eqs:[ [| -3; 1; 0 |]; [| -1; -1; 1 |] ] ~ineqs:[] in
        (* x = 3, y = x + 1 = 4 *)
        let values = Poly.constant_values p in
        Alcotest.(check (option int)) "x" (Some 3) values.(0);
        Alcotest.(check (option int)) "y" (Some 4) values.(1);
        (* Infeasible equalities fix nothing: 0 = 1, and 2y = 3. *)
        let none = Alcotest.(array (option int)) in
        Alcotest.check none "0 = 1" [| None; None |]
          (Poly.constant_values (Poly.make 2 ~eqs:[ [| -3; 1; 0 |]; [| 1; 0; 0 |] ] ~ineqs:[]));
        Alcotest.check none "2y = 3" [| None; None |]
          (Poly.constant_values (Poly.make 2 ~eqs:[ [| -3; 1; 0 |]; [| -3; 0; 2 |] ] ~ineqs:[])));
    Alcotest.test_case "exact elimination via equality" `Quick (fun () ->
        (* i = 4*i0 + i1, 0<=i1<4, 0<=i<13: eliminating i is exact. *)
        let p =
          Poly.make 3
            ~eqs:[ [| 0; 1; -4; -1 |] ]
            ~ineqs:[ [| 0; 0; 0; 1 |]; [| 3; 0; 0; -1 |]; [| 0; 1; 0; 0 |]; [| 12; -1; 0; 0 |] ]
        in
        let q, exact = Poly.project_out p ~at:0 ~count:1 in
        Alcotest.(check bool) "exact" true exact;
        (* i0 ranges over 0..3 *)
        Alcotest.(check (option int)) "i0 min" (Some 0)
          (Option.map (fun pt -> pt.(0)) (Poly.sample q));
        Alcotest.(check bool) "i0=3,i1=0 in" true (Poly.mem q [| 3; 0 |]);
        Alcotest.(check bool) "i0=3,i1=1 out" false (Poly.mem q [| 3; 1 |]));
    Alcotest.test_case "card corner cases" `Quick (fun () ->
        (* empty set *)
        let empty =
          Poly.make 1 ~eqs:[ [| -7; 2 |] ]
            ~ineqs:[ [| 0; 1 |]; [| 5; -1 |] ]
        in
        Alcotest.(check (option int)) "empty" (Some 0) (Poly.card empty);
        (* single point: x = 3, y = 4 *)
        let pt =
          Poly.make 2 ~eqs:[ [| -3; 1; 0 |]; [| -1; -1; 1 |] ] ~ineqs:[]
        in
        Alcotest.(check (option int)) "single point" (Some 1) (Poly.card pt);
        (* unbounded: 0 <= x, y unconstrained *)
        let unb = Poly.make 2 ~eqs:[] ~ineqs:[ [| 0; 1; 0 |] ] in
        Alcotest.(check (option int)) "unbounded" None (Poly.card unb);
        (* triangle: 0 <= y <= x <= 4 -> 15 points *)
        let tri =
          Poly.make 2 ~eqs:[]
            ~ineqs:[ [| 0; 0; 1 |]; [| 0; 1; -1 |]; [| 4; -1; 0 |] ]
        in
        Alcotest.(check (option int)) "triangle" (Some 15) (Poly.card tri);
        (* independent components multiply: 0<=x<=2 times 0<=y<=4 *)
        let box =
          Poly.make 2 ~eqs:[]
            ~ineqs:[ [| 0; 1; 0 |]; [| 2; -1; 0 |];
                     [| 0; 0; 1 |]; [| 4; 0; -1 |] ]
        in
        Alcotest.(check (option int)) "product" (Some 15) (Poly.card box));
    Alcotest.test_case "repeated rows answer on a small budget" `Quick
      repeated_rows_small_budget;
  ]

(* ---------- Iset / Imap ---------- *)

let v = Aff.var
let c = Aff.const

let blur_domain =
  (* { by[i,j] : 0 <= i < N-2 and 0 <= j < M-2 } *)
  Iset.of_constraints
    (Space.set_space ~name:"by" ~params:[ "N"; "M" ] [ "i"; "j" ])
    (Cstr.between (c 0) (v "i") Aff.(v "N" - c 2)
    @ Cstr.between (c 0) (v "j") Aff.(v "M" - c 2))

let tiling_map =
  (* { [i,j] -> [i0,j0,i1,j1] : i = 4 i0 + i1, 0<=i1<4, j = 4 j0 + j1, 0<=j1<4 } *)
  Imap.of_constraints
    (Space.map_space ~params:[ "N"; "M" ] ~ins:[ "i"; "j" ]
       [ "i0"; "j0"; "i1"; "j1" ])
    ([
       Cstr.Eq (v "i", Aff.(4 * v "i0" + v "i1"));
       Cstr.Eq (v "j", Aff.(4 * v "j0" + v "j1"));
     ]
    @ Cstr.between (c 0) (v "i1") (c 4)
    @ Cstr.between (c 0) (v "j1") (c 4))

let iset_tests =
  [
    Alcotest.test_case "points enumeration" `Quick (fun () ->
        let pts = Iset.points blur_domain ~params:[ ("N", 5); ("M", 4) ] in
        (* i in 0..2, j in 0..1 -> 6 points, lexicographic *)
        Alcotest.(check int) "count" 6 (List.length pts);
        Alcotest.(check (list (list int))) "lex order"
          [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ]; [ 2; 0 ]; [ 2; 1 ] ]
          (List.map Array.to_list pts));
    Alcotest.test_case "apply tiling is exact" `Quick (fun () ->
        let tiled = Imap.apply blur_domain tiling_map in
        let pts = Iset.points tiled ~params:[ ("N", 8); ("M", 8) ] in
        (* 6x6 points survive tiling (bijection). *)
        Alcotest.(check int) "count" 36 (List.length pts);
        (* Check a specific tile decomposition: (5,3) -> (1,0,1,3). *)
        Alcotest.(check bool) "mem" true
          (Iset.mem tiled ~params:[| 8; 8 |] [| 1; 0; 1; 3 |]);
        Alcotest.(check bool) "not mem" false
          (Iset.mem tiled ~params:[| 8; 8 |] [| 1; 0; 3; 3 |]));
    Alcotest.test_case "inverse . apply = identity on domain" `Quick (fun () ->
        let tiled = Imap.apply blur_domain tiling_map in
        let back = Imap.apply tiled (Imap.inverse tiling_map) in
        Alcotest.(check bool) "equal" true (Iset.equal back blur_domain));
    Alcotest.test_case "solve_ins on tiling" `Quick (fun () ->
        match Imap.solve_ins tiling_map with
        | None -> Alcotest.fail "expected solvable"
        | Some exprs ->
            Alcotest.(check string) "i" "4i0 + i1" (Aff.to_string exprs.(0));
            Alcotest.(check string) "j" "4j0 + j1" (Aff.to_string exprs.(1)));
    Alcotest.test_case "solve_outs on affine schedule" `Quick (fun () ->
        let m =
          Imap.from_exprs
            (Space.map_space ~params:[] ~ins:[ "i"; "j" ] [ "t0"; "t1" ])
            [ Aff.(v "j" + c 1); v "i" ]
        in
        match Imap.solve_outs m with
        | None -> Alcotest.fail "expected solvable"
        | Some exprs ->
            Alcotest.(check string) "t0" "j + 1" (Aff.to_string exprs.(0));
            Alcotest.(check string) "t1" "i" (Aff.to_string exprs.(1)));
    Alcotest.test_case "compose shift then scale-ish" `Quick (fun () ->
        let sp = Space.map_space ~params:[] ~ins:[ "i" ] [ "o" ] in
        let shift = Imap.from_exprs sp [ Aff.(v "i" + c 3) ] in
        let double =
          Imap.of_constraints sp [ Cstr.Eq (v "o", Aff.(2 * v "i")) ]
        in
        let both = Imap.compose shift double in
        (* i -> 2*(i+3) *)
        let pairs = Imap.pairs (Imap.intersect_domain both
          (Iset.of_constraints (Space.set_space ~params:[] [ "i" ])
             (Cstr.between (c 0) (v "i") (c 3)))) ~params:[] in
        Alcotest.(check (list (pair (list int) (list int)))) "graph"
          [ ([ 0 ], [ 6 ]); ([ 1 ], [ 8 ]); ([ 2 ], [ 10 ]) ]
          (List.map
             (fun (a, b) -> (Array.to_list a, Array.to_list b))
             pairs));
    Alcotest.test_case "domain/range" `Quick (fun () ->
        let m = Imap.intersect_domain tiling_map blur_domain in
        Alcotest.(check bool) "domain" true
          (Iset.equal (Imap.domain m) blur_domain));
    Alcotest.test_case "pp round-ish" `Quick (fun () ->
        let s = Iset.to_string blur_domain in
        Alcotest.(check bool) "mentions tuple" true
          (Astring.String.is_infix ~affix:"by[i, j]" s));
  ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "presburger"
    [
      ("poly-unit", unit_tests);
      ("iset-imap", iset_tests);
      ( "omega-qcheck",
        qc
          [
            prop_emptiness 1; prop_emptiness 2; prop_emptiness 3;
            prop_sample 2; prop_projection_sound 2; prop_projection_sound 3;
            prop_subtract 2; prop_gist 2;
            prop_card 1; prop_card 2; prop_card 3;
            prop_eq_heavy 3; prop_eq_heavy 4; prop_eq_heavy 5;
            prop_screen_exact 2; prop_screen_exact 3; prop_extend 2;
            prop_constant_values 3; prop_constant_values 5;
            prop_fm_order 2; prop_fm_order 3;
            prop_repeated_rows 2; prop_repeated_rows 3;
          ] );
    ]
