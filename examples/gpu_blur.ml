(* GPU mapping example (Fig. 3b): tile the blur onto the GPU grid, switch
   the intermediate buffers to an SOA layout for coalescing, and bracket the
   kernel with host-to-device / device-to-host copies — then show the
   generated pseudocode, the emitted CUDA-flavoured C, and the machine-model
   estimate against the Tesla K40 description.

   Run with: dune exec examples/gpu_blur.exe *)

open Tiramisu_kernels
module B = Tiramisu_backends
module C = Tiramisu_codegen

let () =
  let f, _, _ = Image.blur () in
  Schedules.gpu_blur f;
  print_endline "generated code (Fig. 3b right-hand side):";
  print_endline
    (C.Loop_ir.to_string
       (Tiramisu_pipeline.Pipeline.lower f).Tiramisu_core.Lower.ast);

  (* functional execution on the grid interpreter *)
  let n = 24 and m = 20 in
  let pix (idx : int array) =
    float_of_int (((idx.(0) * 5) + (idx.(1) * 3) + idx.(2)) mod 17)
  in
  let interp =
    Runner.run ~fn:f ~params:[ ("N", n); ("M", m) ] ~inputs:[ ("img", pix) ]
  in
  let soa = B.Interp.buffer interp "by" in
  Printf.printf "\nexecuted on the grid interpreter; by[c=0][i=1][j=1] = %g\n"
    (B.Buffers.get soa [| 0; 1; 1 |]);

  (* emitted C (CUDA-flavoured annotations) *)
  let lowered = Tiramisu_pipeline.Pipeline.lower f in
  let buffers =
    List.map
      (fun ((b : Tiramisu_core.Ir.buffer), dims) ->
        (b.Tiramisu_core.Ir.buf_name, dims))
      (Tiramisu_core.Lower.buffer_extents f ~params:[ ("N", n); ("M", m) ])
  in
  print_endline "\nemitted C (excerpt):";
  let c =
    C.C_emit.emit_function ~name:"blur_gpu" ~params:[ "N"; "M" ] ~buffers
      lowered.Tiramisu_core.Lower.ast
  in
  print_string (String.sub c 0 (min 1400 (String.length c)));
  print_endline "...";

  (* model estimate at the paper's image size *)
  let r = Runner.model ~fn:f ~params:[ ("N", 2112); ("M", 3520) ] () in
  Format.printf "\nK40 model estimate at 2112x3520: %a@." B.Cost.pp_report r
