(* End-to-end tests of the core DSL: the paper's blur pipeline (Fig. 2) under
   the schedules of Fig. 3, executed via lowering + the reference
   interpreter, checked against a plain-OCaml reference implementation. *)

open Tiramisu_presburger
open Tiramisu_core
module B = Tiramisu_backends
module L = Tiramisu_codegen.Loop_ir

let a = Aff.var
let c0 = Aff.const

(* Reference blur: bx = horizontal 3-avg, by = vertical 3-avg of bx. *)
let reference_blur ~n ~m input =
  let bx = Array.init (n - 2) (fun _ -> Array.make_matrix (m - 2) 3 0.0) in
  let by = Array.init (n - 2) (fun _ -> Array.make_matrix (m - 2) 3 0.0) in
  for i = 0 to n - 3 do
    for j = 0 to m - 3 do
      for ch = 0 to 2 do
        bx.(i).(j).(ch) <-
          (input (i, j, ch) +. input (i, j + 1, ch) +. input (i, j + 2, ch))
          /. 3.0
      done
    done
  done;
  for i = 0 to n - 3 do
    for j = 0 to m - 3 do
      for ch = 0 to 2 do
        let get i' j' = if i' <= n - 3 then bx.(i').(j').(ch)
          else 0.0
        in
        ignore get;
        (* by reads bx at i, i+1, i+2 — bx domain must cover them; the paper
           ignores boundary conditions, so restrict to i <= n-5. *)
        if i <= n - 5 then
          by.(i).(j).(ch) <-
            (bx.(i).(j).(ch) +. bx.(i + 1).(j).(ch) +. bx.(i + 2).(j).(ch))
            /. 3.0
      done
    done
  done;
  by

(* The blur pipeline of Fig. 2.  To keep all accesses in-bounds we give
   [by] the domain 0 <= i < N-4 (the paper brushes boundaries aside). *)
let make_blur () =
  let f = Tiramisu.create ~params:[ "N"; "M" ] "blur" in
  let i = Tiramisu.var "i" (c0 0) Aff.(a "N" - c0 2) in
  let iby = Tiramisu.var "i" (c0 0) Aff.(a "N" - c0 4) in
  let j = Tiramisu.var "j" (c0 0) Aff.(a "M" - c0 2) in
  let ch = Tiramisu.var "c" (c0 0) (c0 3) in
  let inp =
    Tiramisu.input f "input"
      [ Tiramisu.var "i" (c0 0) (a "N");
        Tiramisu.var "j" (c0 0) (a "M");
        ch ]
  in
  let open Expr in
  let open Tiramisu in
  let bx =
    comp f "bx" [ i; j; ch ]
      (((inp $ [ x i; x j; x ch ])
        +: (inp $ [ x i; x j +: int 1; x ch ])
        +: (inp $ [ x i; x j +: int 2; x ch ]))
       /: float 3.0)
  in
  let by =
    comp f "by" [ iby; j; ch ]
      (((bx $ [ x iby; x j; x ch ])
        +: (bx $ [ x iby +: int 1; x j; x ch ])
        +: (bx $ [ x iby +: int 2; x j; x ch ]))
       /: float 3.0)
  in
  (f, inp, bx, by)

let n = 14
let m = 12

let input_data (i, j, ch) =
  float_of_int (((i * 31) + (j * 7) + (ch * 3)) mod 17) /. 3.0

let run_fn f =
  let params = [ ("N", n); ("M", m) ] in
  let lowered = Tiramisu_pipeline.Pipeline.lower f in
  let interp = B.Interp.create ~params () in
  List.iter
    (fun (b, dims) ->
      B.Interp.add_buffer interp
        (B.Buffers.create ~mem:b.Ir.buf_mem b.Ir.buf_name dims))
    (Lower.buffer_extents f ~params);
  let inp_buf = B.Interp.buffer interp "input" in
  B.Buffers.fill inp_buf (fun idx ->
      input_data (idx.(0), idx.(1), idx.(2)));
  B.Interp.run interp lowered.ast;
  interp

let check_against_reference interp =
  let by_buf = B.Interp.buffer interp "by" in
  let reference = reference_blur ~n ~m input_data in
  let ok = ref true in
  for i = 0 to n - 5 do
    for j = 0 to m - 3 do
      for ch = 0 to 2 do
        let got = B.Buffers.get by_buf [| i; j; ch |] in
        let want = reference.(i).(j).(ch) in
        if Float.abs (got -. want) > 1e-4 then begin
          ok := false;
          if !ok then () ;
          Printf.printf "mismatch at (%d,%d,%d): got %f want %f\n" i j ch got
            want
        end
      done
    done
  done;
  Alcotest.(check bool) "matches reference" true !ok

let expr_tests =
  [
    Alcotest.test_case "to_aff on affine index" `Quick (fun () ->
        let e = Expr.(iter "i" +: int 2) in
        match Expr.to_aff ~iters:[ "i" ] ~params:[] e with
        | Some af ->
            Alcotest.(check string) "aff" "i + 2" (Aff.to_string af)
        | None -> Alcotest.fail "expected affine");
    Alcotest.test_case "clamp index over-approximates" `Quick (fun () ->
        let e = Expr.(clamp (iter "i" -: int 1) (int 0) (param "N")) in
        match Expr.index_range ~iters:[ "i" ] ~params:[ "N" ] e with
        | Some (lo, hi) ->
            Alcotest.(check string) "lo" "0" (Aff.to_string lo);
            Alcotest.(check string) "hi" "N" (Aff.to_string hi)
        | None -> Alcotest.fail "expected range");
  ]

let blur_tests =
  [
    Alcotest.test_case "unscheduled blur matches reference" `Quick (fun () ->
        let f, _, _, _ = make_blur () in
        check_against_reference (run_fn f));
    Alcotest.test_case "Fig 3(a): tile + parallelize + compute_at" `Quick
      (fun () ->
        let f, _, bx, by = make_blur () in
        Tiramisu.tile by "i" "j" 4 4 "i0" "j0" "i1" "j1";
        Tiramisu.parallelize by "i0";
        Tiramisu.compute_at bx by "j0";
        check_against_reference (run_fn f));
    Alcotest.test_case "compute_at introduces redundancy" `Quick (fun () ->
        (* Overlapped tiling recomputes bx on tile borders: strictly more
           stores to bx than the unscheduled version. *)
        let f1, _, _, _ = make_blur () in
        let i1 = run_fn f1 in
        let f2, _, bx2, by2 = make_blur () in
        Tiramisu.tile by2 "i" "j" 4 4 "i0" "j0" "i1" "j1";
        Tiramisu.compute_at bx2 by2 "j0";
        let i2 = run_fn f2 in
        Alcotest.(check bool) "more stores" true
          ((B.Interp.counters i2).stores > (B.Interp.counters i1).stores));
    Alcotest.test_case "interchange + vectorize still correct" `Quick
      (fun () ->
        let f, _, bx, by = make_blur () in
        Tiramisu.interchange bx "i" "j";
        Tiramisu.vectorize by "j" 4;
        check_against_reference (run_fn f));
    Alcotest.test_case "split + unroll still correct" `Quick (fun () ->
        let f, _, _, by = make_blur () in
        Tiramisu.split by "i" 3 "i0" "i1";
        Tiramisu.unroll by "c" 3;
        check_against_reference (run_fn f));
    Alcotest.test_case "skew still correct" `Quick (fun () ->
        let f, _, bx, _ = make_blur () in
        Tiramisu.skew bx "i" "j" 2;
        check_against_reference (run_fn f));
    Alcotest.test_case "shift still correct" `Quick (fun () ->
        let f, _, bx, _ = make_blur () in
        Tiramisu.shift bx "i" 5;
        check_against_reference (run_fn f));
    Alcotest.test_case "inline bx" `Quick (fun () ->
        (* Inlining bx recomputes it inside by; the bx buffer disappears. *)
        let f, _, bx, _ = make_blur () in
        Tiramisu.inline bx;
        let interp = run_fn f in
        check_against_reference interp;
        Alcotest.check_raises "bx buffer gone"
          (Failure "Interp: unknown buffer bx") (fun () ->
            ignore (B.Interp.buffer interp "bx")));
    Alcotest.test_case "store_in SOA layout (Fig 3b)" `Quick (fun () ->
        let f, _, bx, by = make_blur () in
        Tiramisu.store_in_dims bx [ "c"; "i"; "j" ];
        Tiramisu.store_in_dims by [ "c"; "i"; "j" ];
        let interp = run_fn f in
        (* by now lives in a [3; N-4; M-2] buffer. *)
        let by_buf = B.Interp.buffer interp "by" in
        Alcotest.(check (list int)) "soa dims" [ 3; n - 4; m - 2 ]
          (Array.to_list by_buf.B.Buffers.dims);
        let reference = reference_blur ~n ~m input_data in
        let ok = ref true in
        for i = 0 to n - 5 do
          for j = 0 to m - 3 do
            for ch = 0 to 2 do
              if
                Float.abs
                  (B.Buffers.get by_buf [| ch; i; j |]
                  -. reference.(i).(j).(ch))
                > 1e-4
              then ok := false
            done
          done
        done;
        Alcotest.(check bool) "soa values" true !ok);
    Alcotest.test_case "generated pseudocode shape" `Quick (fun () ->
        let f, _, _, by = make_blur () in
        Tiramisu.tile by "i" "j" 4 4 "i0" "j0" "i1" "j1";
        Tiramisu.parallelize by "i0";
        let code =
          L.to_string (Tiramisu_pipeline.Pipeline.lower f).Lower.ast
        in
        Alcotest.(check bool) "has parallel loop" true
          (Astring.String.is_infix ~affix:"parallel for (i0" code);
        Alcotest.(check bool) "tiled loop present" true
          (Astring.String.is_infix ~affix:"for (i1" code));
  ]

let () =
  Alcotest.run "core"
    [ ("expr", expr_tests); ("blur", blur_tests) ]
