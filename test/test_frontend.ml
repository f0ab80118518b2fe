(* The .tir textual frontend: programs parse into the same pipelines the
   OCaml API builds, including schedules, non-rectangular 'where' clauses
   and set_schedule. *)

module F = Tiramisu_frontend.Frontend
module B = Tiramisu_backends
open Tiramisu_kernels

let blur_src = {|
# the paper's two-stage blur (Fig. 2) with the Fig. 3a schedule
function blur(N, M)

input img[N, M, 3]

comp bx(i in 0..N-2, j in 0..M-2, c in 0..3) =
  (img(i, j, c) + img(i, j+1, c) + img(i, j+2, c)) / 3.0

comp by(i in 0..N-4, j in 0..M-2, c in 0..3) =
  (bx(i, j, c) + bx(i+1, j, c) + bx(i+2, j, c)) / 3.0

schedule
  tile by i j 4 4 i0 j0 i1 j1
  parallelize by i0
  compute_at bx by j0
  vectorize by j1 4
|}

let n = 14
let m = 12

let pix (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + idx.(2)) mod 19) /. 3.0

let tests =
  [
    Alcotest.test_case "blur.tir matches the reference" `Quick (fun () ->
        let fn = F.parse blur_src in
        let expect idx =
          let bx i j c =
            (pix [| i; j; c |] +. pix [| i; j + 1; c |]
            +. pix [| i; j + 2; c |])
            /. 3.0
          in
          (bx idx.(0) idx.(1) idx.(2)
          +. bx (idx.(0) + 1) idx.(1) idx.(2)
          +. bx (idx.(0) + 2) idx.(1) idx.(2))
          /. 3.0
        in
        match
          Runner.check ~fn
            ~params:[ ("N", n); ("M", m) ]
            ~inputs:[ ("img", pix) ]
            ~output:"by" ~expect ()
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parsed schedule generates the tiled nest" `Quick
      (fun () ->
        let fn = F.parse blur_src in
        let code =
          Tiramisu_codegen.Loop_ir.to_string
            (Tiramisu_pipeline.Pipeline.lower fn).Tiramisu_core.Lower.ast
        in
        Alcotest.(check bool) "parallel i0" true
          (Astring.String.is_infix ~affix:"parallel for (i0" code));
    Alcotest.test_case "'where' clause restricts the domain (ticket #2373)"
      `Quick (fun () ->
        let src = {|
function ticket(N)
input img[N]
comp t(r in 0..N, x in 0..N) = img(x - r) where "x >= r"
schedule
  parallelize t r
|}
        in
        let fn = F.parse src in
        (* executing succeeds only because the triangular domain keeps
           x - r in bounds *)
        let interp =
          Runner.run ~fn ~params:[ ("N", 12) ]
            ~inputs:[ ("img", fun idx -> float_of_int idx.(0)) ]
        in
        Alcotest.(check (float 0.001)) "t[0][11]" 11.0
          (B.Buffers.get (B.Interp.buffer interp "t") [| 0; 11 |]));
    Alcotest.test_case "set_schedule via ISL string" `Quick (fun () ->
        let src = {|
function ss(N)
input inp[N, 4]
comp s(i in 0..N, j in 0..4) = inp(i, j) + 1.0
schedule
  set_schedule s "{ s[i, j] -> [t0, t1] : t0 = j and t1 = i }"
|}
        in
        let fn = F.parse src in
        let code =
          Tiramisu_codegen.Loop_ir.to_string
            (Tiramisu_pipeline.Pipeline.lower fn).Tiramisu_core.Lower.ast
        in
        Alcotest.(check bool) "j outermost" true
          (Astring.String.is_prefix ~affix:"for (t0" code));
    Alcotest.test_case "parse errors carry line numbers" `Quick (fun () ->
        match F.parse "function f()\ncomp ???" with
        | exception F.Parse_error msg ->
            Alcotest.(check bool) "has line" true
              (Astring.String.is_prefix ~affix:"line 2" msg)
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "unknown names are rejected" `Quick (fun () ->
        match
          F.parse
            "function f(N)\ncomp s(i in 0..N) = bogus + 1.0"
        with
        | exception F.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
  ]

let () = Alcotest.run "frontend" [ ("tir", tests) ]
