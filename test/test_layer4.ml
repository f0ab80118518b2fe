(* Layer IV completeness: allocate_at, cache_shared_at, barriers, copy
   operations — the novel Table-II commands (§III-C, §IV-C4). *)

open Tiramisu_presburger
open Tiramisu_core
module B = Tiramisu_backends
module K = Tiramisu_kernels

let a = Aff.var
let c0 = Aff.const

let pseudocode f =
  Tiramisu_codegen.Loop_ir.to_string
    (Tiramisu_pipeline.Pipeline.lower f).Lower.ast

let tests =
  [
    Alcotest.test_case "allocate_at scopes the producer buffer in the tile"
      `Quick (fun () ->
        let f, bx, by = K.Image.blur () in
        Tiramisu.tile by "i" "j" 4 4 "i0" "j0" "i1" "j1";
        Tiramisu.compute_at bx by "j0";
        Tiramisu.allocate_at (Tiramisu.buffer_of bx) by "j0";
        let code = pseudocode f in
        Alcotest.(check bool) "Alloc inside j0 loop" true
          (Astring.String.is_infix ~affix:"host float bx" code);
        (* interp still computes the right thing: the tile is recomputed
           from scratch inside each allocation scope *)
        let n = 14 and m = 12 in
        let pix (idx : int array) =
          float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + idx.(2)) mod 19)
        in
        let interp =
          K.Runner.run ~fn:f ~params:[ ("N", n); ("M", m) ]
            ~inputs:[ ("img", pix) ]
        in
        let out = B.Interp.buffer interp "by" in
        let reference i j ch =
          let bx i j =
            (pix [| i; j; ch |] +. pix [| i; j + 1; ch |]
            +. pix [| i; j + 2; ch |])
            /. 3.0
          in
          (bx i j +. bx (i + 1) j +. bx (i + 2) j) /. 3.0
        in
        let ok = ref true in
        for i = 0 to n - 5 do
          for j = 0 to m - 3 do
            for ch = 0 to 2 do
              if
                Float.abs
                  (B.Buffers.get out [| i; j; ch |] -. reference i j ch)
                > 1e-4
              then ok := false
            done
          done
        done;
        Alcotest.(check bool) "correct under scoped allocation" true !ok);
    Alcotest.test_case "cache_shared_at synthesizes the copy computation"
      `Quick (fun () ->
        let f, bx, by = K.Image.blur () in
        Tiramisu.tile_gpu by "i" "j" 4 4 "i0" "j0" "i1" "j1";
        Tiramisu.compute_at bx by "j0";
        Tiramisu.cache_shared_at bx by "j0";
        let code = pseudocode f in
        Alcotest.(check bool) "copy statement present" true
          (Astring.String.is_infix ~affix:"bx_shared" code);
        (* shared buffer is tagged for GPU shared memory *)
        let sbuf =
          List.find
            (fun (b : Ir.buffer) -> b.Ir.buf_name = "bx_shared")
            f.Ir.buffers
        in
        Alcotest.(check bool) "shared space" true
          (sbuf.Ir.buf_mem = Tiramisu_codegen.Loop_ir.Gpu_shared));
    Alcotest.test_case "cache_shared_at is profitable under the GPU model"
      `Quick (fun () ->
        (* Staging bx in shared memory must not be slower than re-reading
           it from global memory within the tile. *)
        let t cached =
          let f, bx, by = K.Image.blur () in
          Tiramisu.tile_gpu by "i" "j" 16 16 "i0" "j0" "i1" "j1";
          Tiramisu.compute_at bx by "j0";
          if cached then Tiramisu.cache_shared_at bx by "j0";
          (K.Runner.model ~fn:f ~params:[ ("N", 2112); ("M", 3520) ] ())
            .B.Cost.time_ns
        in
        let plain = t false and cached = t true in
        Alcotest.(check bool)
          (Printf.sprintf "cached %.3g <= plain %.3g" cached plain)
          true
          (cached <= plain *. 1.05));
    Alcotest.test_case "barrier_at lowers to a barrier" `Quick (fun () ->
        let f = Tiramisu.create ~params:[ "N" ] "bar" in
        let i = Tiramisu.var "i" (c0 0) (a "N") in
        let s = Tiramisu.comp f "s" [ i ] (Expr.int 1) in
        let b =
          Tiramisu.barrier_at f "sync" ~iters:[ Tiramisu.var "o" (c0 0) (c0 1) ]
        in
        Tiramisu.after b s Tiramisu.root;
        let code = pseudocode f in
        Alcotest.(check bool) "barrier in code" true
          (Astring.String.is_infix ~affix:"barrier()" code));
    Alcotest.test_case "host/device copies bracket the GPU kernel" `Quick
      (fun () ->
        let f, _ = K.Image.cvt_color () in
        K.Schedules.gpu_cvt_color f;
        let code = pseudocode f in
        let idx_h2d = Astring.String.find_sub ~sub:"host_to_device" code in
        let idx_kernel = Astring.String.find_sub ~sub:"GPUBlock" code in
        let idx_d2h = Astring.String.find_sub ~sub:"device_to_host" code in
        match (idx_h2d, idx_kernel, idx_d2h) with
        | Some a, Some b, Some c ->
            Alcotest.(check bool) "ordered" true (a < b && b < c)
        | _ -> Alcotest.fail "missing copy or kernel");
  ]

let () = Alcotest.run "layer4" [ ("layer4", tests) ]
