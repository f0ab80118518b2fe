(* Distributed execution example (Fig. 3c): split the blur's rows across
   ranks, exchange halo rows with explicit asynchronous send / synchronous
   receive commands, and distribute the outer loops.  The functional
   simulator checks the exchanged data is correct; the α–β network model
   reports the communication cost and the strong-scaling curve (Fig. 7).

   Run with: dune exec examples/distributed_blur.exe *)

open Tiramisu_kernels
module B = Tiramisu_backends

let () =
  let n = 32 and m = 24 in
  let nodes = 4 in
  let f, _, _ = Image.blur () in
  Schedules.dist_blur f ~n ~m ~nodes;
  print_endline "generated code (Fig. 3c right-hand side):";
  print_endline
    (Tiramisu_codegen.Loop_ir.to_string
       (Tiramisu_pipeline.Pipeline.lower f).Tiramisu_core.Lower.ast);

  let pix (idx : int array) =
    float_of_int (((idx.(0) * 7) + (idx.(1) * 3) + idx.(2)) mod 23)
  in
  let interp =
    Runner.run ~fn:f ~params:[ ("N", n); ("M", m) ] ~inputs:[ ("img", pix) ]
  in
  let c = B.Interp.counters interp in
  Printf.printf
    "\nfunctional simulation on %d ranks: %d messages, %d bytes exchanged\n"
    nodes c.B.Interp.messages c.B.Interp.bytes_sent;

  (* correctness across the rank boundaries *)
  let out = B.Interp.buffer interp "by" in
  let reference i j ch =
    let bx i j =
      (pix [| i; j; ch |] +. pix [| i; j + 1; ch |] +. pix [| i; j + 2; ch |])
      /. 3.0
    in
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
  Printf.printf "boundary rows correct across ranks: %b\n" !ok;

  (* strong scaling at the paper's image size (Fig. 7) *)
  Printf.printf "\nstrong scaling at 2112x3520 (speedup over 2 nodes):\n";
  let time nodes =
    let f, _, _ = Image.blur () in
    Schedules.dist_blur f ~n:2112 ~m:3520 ~nodes;
    (Runner.model ~fn:f ~params:[ ("N", 2112); ("M", 3520) ] ())
      .B.Cost.time_ns
  in
  let t2 = time 2 in
  List.iter
    (fun k -> Printf.printf "  %2d nodes: %5.2fx\n" k (t2 /. time k))
    [ 2; 4; 8; 16 ]
