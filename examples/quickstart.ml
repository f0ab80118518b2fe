(* Quickstart: the paper's running example (Figs. 2 and 3a).

   Build the two-stage blur as a pure Layer-I algorithm, apply the multicore
   schedule of Fig. 3a (tile + parallelize + compute_at + vectorize), print
   the generated pseudocode, execute it, and check the output against a
   straightforward reference.

   Run with: dune exec examples/quickstart.exe *)

open Tiramisu_presburger
open Tiramisu_core
module B = Tiramisu_backends
module E = Expr

let a = Aff.var
let c0 = Aff.const

let () =
  (* ------------------------------------------------ the pure algorithm *)
  let f = Tiramisu.create ~params:[ "N"; "M" ] "blur" in
  let i = Tiramisu.var "i" (c0 0) Aff.(a "N" - c0 2) in
  let ib = Tiramisu.var "i" (c0 0) Aff.(a "N" - c0 4) in
  let j = Tiramisu.var "j" (c0 0) Aff.(a "M" - c0 2) in
  let c = Tiramisu.var "c" (c0 0) (c0 3) in
  let open Tiramisu in
  let img =
    input f "img"
      [ var "i" (c0 0) (a "N"); var "j" (c0 0) (a "M"); c ]
  in
  let bx =
    comp f "bx" [ i; j; c ]
      E.(
        ((img $ [ x i; x j; x c ])
        +: (img $ [ x i; x j +: int 1; x c ])
        +: (img $ [ x i; x j +: int 2; x c ]))
        /: float 3.0)
  in
  let by =
    comp f "by" [ ib; j; c ]
      E.(
        ((bx $ [ x ib; x j; x c ])
        +: (bx $ [ x ib +: int 1; x j; x c ])
        +: (bx $ [ x ib +: int 2; x j; x c ]))
        /: float 3.0)
  in

  (* ------------------------------------- Fig. 3a scheduling commands *)
  tile by "i" "j" 8 8 "i0" "j0" "i1" "j1";
  parallelize by "i0";
  compute_at bx by "j0";
  vectorize by "j1" 8;

  (* ------------------------------------------------- legality check *)
  let violations = Tiramisu_deps.Deps.check_legality f in
  Printf.printf "legality: %s\n\n"
    (if violations = [] then "schedule preserves all dependences"
     else "VIOLATED");

  (* -------------------------------------------- generated pseudocode *)
  print_endline "generated code (Fig. 3a right-hand side):";
  print_endline
    (Tiramisu_codegen.Loop_ir.to_string
       (Tiramisu_pipeline.Pipeline.lower f).Lower.ast);

  (* -------------------------------------------------- run and check *)
  let n = 20 and m = 16 in
  let params = [ ("N", n); ("M", m) ] in
  let pix (idx : int array) =
    float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + idx.(2)) mod 19)
  in
  let interp =
    Tiramisu_kernels.Runner.run ~fn:f ~params ~inputs:[ ("img", pix) ]
  in
  let out = B.Interp.buffer interp "by" in
  let reference i j ch =
    let bx i j = (pix [| i; j; ch |] +. pix [| i; j + 1; ch |] +. pix [| i; j + 2; ch |]) /. 3.0 in
    (bx i j +. bx (i + 1) j +. bx (i + 2) j) /. 3.0
  in
  let ok = ref true in
  for i = 0 to n - 5 do
    for j = 0 to m - 3 do
      for ch = 0 to 2 do
        if Float.abs (B.Buffers.get out [| i; j; ch |] -. reference i j ch)
           > 1e-4
        then ok := false
      done
    done
  done;
  Printf.printf "\nexecution: %s (%d stores, %d loads)\n"
    (if !ok then "matches the reference" else "MISMATCH")
    (B.Interp.counters interp).B.Interp.stores
    (B.Interp.counters interp).B.Interp.loads;

  (* --------------------------------------------------- machine model *)
  let report =
    Tiramisu_kernels.Runner.model ~fn:f ~params:[ ("N", 2112); ("M", 3520) ]
      ()
  in
  Format.printf "estimated time at 2112x3520 on %s: %a@."
    B.Machine.default.B.Machine.name B.Cost.pp_report report
