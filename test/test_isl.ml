(* ISL-notation parser (§IV-B examples) and set_schedule, plus the C
   emitter. *)

open Tiramisu_presburger
open Tiramisu_core
module B = Tiramisu_backends
module C = Tiramisu_codegen

let tests =
  [
    Alcotest.test_case "paper §IV-B set example" `Quick (fun () ->
        (* {(1,1);(2,1);(3,1);(1,2);(2,2);(3,2)} *)
        let s = Isl.parse_set "{ S(i, j) : 1 <= i <= 3 and 1 <= j <= 2 }" in
        let pts = Iset.points s ~params:[] in
        Alcotest.(check int) "6 points" 6 (List.length pts);
        Alcotest.(check bool) "has (3,2)" true
          (Iset.mem s ~params:[||] [| 3; 2 |]);
        Alcotest.(check bool) "no (4,1)" false
          (Iset.mem s ~params:[||] [| 4; 1 |]));
    Alcotest.test_case "paper §IV-B map example" `Quick (fun () ->
        let m =
          Isl.parse_map
            "{ S1(i, j) -> S2(i + 2, j + 2) : 1 <= i <= 3 and 1 <= j <= 2 }"
        in
        let pairs = Imap.pairs m ~params:[] in
        Alcotest.(check int) "6 pairs" 6 (List.length pairs);
        Alcotest.(check bool) "maps (1,1)->(3,3)" true
          (List.exists
             (fun (a, b) -> a = [| 1; 1 |] && b = [| 3; 3 |])
             pairs));
    Alcotest.test_case "parametric set with chain" `Quick (fun () ->
        let s = Isl.parse_set "[N] -> { by[i, j, c] : 0 <= i < N - 2 and 0 <= j < 3 and 0 <= c < 3 }" in
        Alcotest.(check int) "points at N=6" (4 * 3 * 3)
          (List.length (Iset.points s ~params:[ ("N", 6) ])));
    Alcotest.test_case "union set" `Quick (fun () ->
        let s = Isl.parse_set "{ A[i] : 0 <= i < 2 ; A[i] : 5 <= i < 7 }" in
        Alcotest.(check int) "4 points" 4
          (List.length (Iset.points s ~params:[])));
    Alcotest.test_case "set_schedule interchanges via ISL map" `Quick
      (fun () ->
        let a = Aff.var and c0 = Aff.const in
        let f = Tiramisu.create ~params:[ "N" ] "ss" in
        let i = Tiramisu.var "i" (c0 0) (a "N") in
        let j = Tiramisu.var "j" (c0 0) (c0 4) in
        let inp = Tiramisu.input f "inp" [ i; j ] in
        let s =
          Tiramisu.comp f "s" [ i; j ]
            Expr.(Tiramisu.( $ ) inp [ iter "i"; iter "j" ] +: int 1)
        in
        Tiramisu.set_schedule s "{ s[i, j] -> [t0, t1] : t0 = j and t1 = i }";
        let interp =
          Tiramisu_kernels.Runner.run ~fn:f ~params:[ ("N", 3) ]
            ~inputs:[ ("inp", fun idx -> float_of_int (idx.(0) + idx.(1))) ]
        in
        let out = B.Interp.buffer interp "s" in
        Alcotest.(check (float 0.001)) "value" 4.0
          (B.Buffers.get out [| 2; 1 |]);
        (* the generated loop nest iterates j outermost *)
        let code =
          C.Loop_ir.to_string (Tiramisu_pipeline.Pipeline.lower f).Lower.ast
        in
        Alcotest.(check bool) "j outer" true
          (Astring.String.is_prefix ~affix:"for (t0" code));
    Alcotest.test_case "C emission compiles the blur shape" `Quick (fun () ->
        let f, _, _ = Tiramisu_kernels.Image.blur () in
        let lowered = Tiramisu_pipeline.Pipeline.lower f in
        let buffers =
          List.map
            (fun ((b : Ir.buffer), dims) -> (b.Ir.buf_name, dims))
            (Lower.buffer_extents f ~params:[ ("N", 32); ("M", 32) ])
        in
        let c =
          C.C_emit.emit_function ~name:"blur" ~params:[ "N"; "M" ] ~buffers
            lowered.Lower.ast
        in
        List.iter
          (fun frag ->
            Alcotest.(check bool) frag true
              (Astring.String.is_infix ~affix:frag c))
          [
            "void blur(int N, int M, float *img";
            "for (int";
            "bx[";
            "#include <math.h>";
          ]);
    Alcotest.test_case "C emission marks parallel and simd loops" `Quick
      (fun () ->
        let f, _, _ = Tiramisu_kernels.Image.blur () in
        Tiramisu_kernels.Schedules.cpu_blur f;
        let lowered = Tiramisu_pipeline.Pipeline.lower f in
        let c =
          C.C_emit.emit_function ~name:"blur" ~params:[ "N"; "M" ]
            ~buffers:[] lowered.Lower.ast
        in
        Alcotest.(check bool) "omp parallel" true
          (Astring.String.is_infix ~affix:"#pragma omp parallel for" c);
        Alcotest.(check bool) "omp simd" true
          (Astring.String.is_infix ~affix:"#pragma omp simd" c));
    Alcotest.test_case "emitted C compiles with gcc (when available)" `Quick
      (fun () ->
        if Sys.command "which gcc > /dev/null 2>&1" <> 0 then ()
        else
          List.iter
            (fun (name, build, sched) ->
              let f : Ir.fn = build () in
              sched f;
              let lowered = Tiramisu_pipeline.Pipeline.lower f in
              let buffers =
                List.map
                  (fun ((b : Ir.buffer), dims) -> (b.Ir.buf_name, dims))
                  (Lower.buffer_extents f
                     ~params:
                       (List.map (fun p -> (p, 64)) f.Ir.params))
              in
              let c =
                C.C_emit.emit_function ~name ~params:f.Ir.params ~buffers
                  lowered.Lower.ast
              in
              let path = Filename.temp_file name ".c" in
              let oc = open_out path in
              output_string oc c;
              close_out oc;
              let rc =
                Sys.command
                  (Printf.sprintf
                     "gcc -c -fopenmp -O1 %s -o %s.o > /dev/null 2>&1" path
                     path)
              in
              Alcotest.(check int) (name ^ " compiles") 0 rc)
            [
              ("blur",
               (fun () -> let f, _, _ = Tiramisu_kernels.Image.blur () in f),
               Tiramisu_kernels.Schedules.cpu_blur ~t:8);
              ("gemm",
               (fun () -> let f, _, _ = Tiramisu_kernels.Linalg.sgemm () in f),
               Tiramisu_kernels.Linalg.sgemm_tuned ~bi:8 ~bj:8 ~bk:4 ~vec:4
                 ~unr:2);
              ("gaussian",
               (fun () ->
                 let f, _, _ = Tiramisu_kernels.Image.gaussian () in f),
               Tiramisu_kernels.Schedules.cpu_gaussian);
            ]);
    Alcotest.test_case "parse errors are reported" `Quick (fun () ->
        Alcotest.check_raises "garbage"
          (Isl.Parse_error "unexpected character %") (fun () ->
            ignore (Isl.parse_set "{ S[i] : i % 2 = 0 }")));
  ]

let () = Alcotest.run "isl" [ ("isl-and-cemit", tests) ]
