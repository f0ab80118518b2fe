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

let prop_card_box n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "card_box is an upper bound (dim %d)" n)
    (arb_poly n)
    (fun p ->
      let p = boxed n (-3) 3 p in
      let brute =
        List.length
          (List.filter (fun pt -> Poly.mem p pt) (box_points n (-3) 3))
      in
      match Poly.card_box p with Some ub -> ub >= brute | None -> false)

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

let unit_tests =
  [
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
        Alcotest.(check (option int)) "x" (Some 3) (Poly.constant_value p 0);
        Alcotest.(check (option int)) "y" (Some 4) (Poly.constant_value p 1));
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
        Alcotest.(check (option int)) "product" (Some 15) (Poly.card box);
        Alcotest.(check (option int)) "box bound" (Some 15)
          (Poly.card_box box);
        (* card_box over-approximates the triangle by its bounding box *)
        Alcotest.(check (option int)) "triangle box" (Some 25)
          (Poly.card_box tri));
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
    Alcotest.test_case "card = points length" `Quick (fun () ->
        let params = [ ("N", 5); ("M", 4) ] in
        Alcotest.(check (option int)) "blur" (Some 6)
          (Iset.card blur_domain ~params);
        Alcotest.(check (option int)) "blur estimate" (Some 6)
          (Iset.card_estimate blur_domain ~params);
        let tiled = Imap.apply blur_domain tiling_map in
        Alcotest.(check (option int)) "tiled"
          (Some (List.length (Iset.points tiled ~params:[ ("N", 8); ("M", 8) ])))
          (Iset.card tiled ~params:[ ("N", 8); ("M", 8) ]);
        (* overlapping union is disjointified, not double-counted *)
        let shifted =
          Iset.of_constraints
            (Space.set_space ~name:"by" ~params:[ "N"; "M" ] [ "i"; "j" ])
            (Cstr.between (c 1) (v "i") Aff.(v "N" - c 1)
            @ Cstr.between (c 0) (v "j") Aff.(v "M" - c 2))
        in
        let u = Iset.union blur_domain shifted in
        Alcotest.(check (option int)) "union"
          (Some (List.length (Iset.points u ~params)))
          (Iset.card u ~params);
        (* empty instance of the domain *)
        Alcotest.(check (option int)) "empty" (Some 0)
          (Iset.card blur_domain ~params:[ ("N", 2); ("M", 2) ]));
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
            prop_card_box 2;
            prop_eq_heavy 3; prop_eq_heavy 4; prop_eq_heavy 5;
          ] );
    ]
