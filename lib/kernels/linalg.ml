(* Deep-learning and linear-algebra benchmarks of §VI-A: sgemm, Conv, VGG,
   HPCG, Baryon — as Tiramisu pipelines with the expert schedules whose
   optimizations the paper enumerates (two-level blocking, vectorization,
   unrolling, full/partial tile separation, fixed-filter-size
   specialization, fusion).

   Reductions are encoded as in-place accumulation: an init computation and
   an update computation that stores to the same buffer element and reads
   its own previous instance (a recurrence, expressible because Tiramisu
   supports cyclic dataflow and exact dependence analysis — Table I). *)

open Tiramisu_presburger
open Tiramisu_core
open Tiramisu
module E = Expr
module L = Tiramisu_codegen.Loop_ir

let a = Aff.var
let k0 = Aff.const

let alpha = 0.75
let beta = 0.25

(* ------------------------------------------------------------------ *)
(* sgemm: C = alpha*A*B + beta*C  (S x S square matrices).             *)
(* ------------------------------------------------------------------ *)

let sgemm () =
  let f = create ~params:[ "S" ] "sgemm" in
  let s_range name = var name (k0 0) (a "S") in
  let i = s_range "i" and j = s_range "j" and k = s_range "k" in
  let am = input f "A" [ s_range "i"; s_range "k" ] in
  let bm = input f "B" [ s_range "k"; s_range "j" ] in
  let cm = input f "C0" [ s_range "i"; s_range "j" ] in
  let cbuf = buffer f "C" [ a "S"; a "S" ] in
  let init =
    comp f "c_init" [ i; j ] E.(float beta *: (cm $ [ x i; x j ]))
  in
  store_in init cbuf [ a "i"; a "j" ];
  let upd =
    comp f "c_upd" [ i; j; k ] (E.int 0)
  in
  (* prev: own value at k-1 (init at k = 0). *)
  upd.Ir.expr <-
    E.(
      select
        (x k =: int 0)
        (init $ [ x i; x j ])
        (Ir.Access_e ("c_upd", [ x i; x j; x k -: int 1 ]))
      +: (float alpha *: (am $ [ x i; x k ]) *: (bm $ [ x k; x j ])));
  store_in upd cbuf [ a "i"; a "j" ];
  (f, init, upd)

(* The hand-tuned schedule (§VI-A): two-level blocking of the 3D loop nest,
   vectorization, unrolling, and separation of full/partial tiles (the
   vectorize command peels the partial tiles). *)
let sgemm_tuned ?(bi = 32) ?(bj = 64) ?(bk = 8) ?(vec = 8) ?(unr = 4) f =
  let upd = find_comp f "c_upd" in
  let init = find_comp f "c_init" in
  tile upd "i" "j" bi bj "i0" "j0" "i1" "j1";
  split upd "k" bk "k0" "k1";
  (* [i0 j0 i1 j1 k0 k1] -> [i0 j0 k0 i1 j1 k1] *)
  interchange upd "i1" "k0";
  interchange upd "j1" "i1";
  vectorize upd "j1" vec;
  Schedule.unroll upd.Ir.sched "k1" unr;
  parallelize upd "i0";
  tile init "i" "j" bi bj "i0" "j0" "i1" "j1";
  parallelize init "i0";
  vectorize init "j1" vec

(* A Pluto-style automatically derived schedule: tiling + outer parallelism
   but no vectorization, no unrolling, no tile-size tuning (§II-a). *)
let sgemm_pluto ?(t = 32) f =
  let upd = find_comp f "c_upd" in
  tile upd "i" "j" t t "i0" "j0" "i1" "j1";
  parallelize upd "i0"

(* ------------------------------------------------------------------ *)
(* Conv: direct convolution layer, NCHW, 3x3 filter, valid padding.    *)
(* B=batch, F=output features, C=input features, Y x X spatial.        *)
(* ------------------------------------------------------------------ *)

let conv_taps ~inp ~w ~b ~fo ~y ~x' ~c =
  (* Fixed 3x3 filter: fully specialized taps (the optimization MKL cannot
     apply for generic filter sizes, §VI-A). *)
  List.concat_map
    (fun ky ->
      List.map
        (fun kx ->
          E.(
            inp [ b; c; y +: int ky; x' +: int kx ]
            *: (w $ [ fo; c; int ky; int kx ])))
        [ 0; 1; 2 ])
    [ 0; 1; 2 ]
  |> function
  | [] -> E.int 0
  | e :: rest -> List.fold_left E.( +: ) e rest

let conv ?(name = "conv") ?(out_buf = None) ?(inp_name = "conv_in") f =
  (* Builds one conv layer inside [f]; returns (init, upd, out_buffer). *)
  let bv = var "b" (k0 0) (a "B") in
  let fv = var "f" (k0 0) (a "F") in
  let yv = var "y" (k0 0) Aff.(a "Y" - k0 2) in
  let xv = var "x" (k0 0) Aff.(a "X" - k0 2) in
  let cv = var "c" (k0 0) (a "C") in
  let inp =
    match List.find_opt (fun c -> c.Ir.comp_name = inp_name) f.Ir.comps with
    | Some c -> c
    | None ->
        input f inp_name
          [ var "b" (k0 0) (a "B"); var "c" (k0 0) (a "C");
            var "y" (k0 0) (a "Y"); var "x" (k0 0) (a "X") ]
  in
  let w =
    input f (name ^ "_w")
      [ var "f" (k0 0) (a "F"); var "c" (k0 0) (a "C");
        var "ky" (k0 0) (k0 3); var "kx" (k0 0) (k0 3) ]
  in
  let bias = input f (name ^ "_bias") [ var "f" (k0 0) (a "F") ] in
  let obuf =
    match out_buf with
    | Some b -> b
    | None ->
        buffer f (name ^ "_out")
          [ a "B"; a "F"; Aff.(a "Y" - k0 2); Aff.(a "X" - k0 2) ]
  in
  let init =
    comp f (name ^ "_init") [ bv; fv; yv; xv ] (bias $ [ x fv ])
  in
  store_in init obuf [ a "b"; a "f"; a "y"; a "x" ];
  let upd = comp f (name ^ "_upd") [ bv; fv; yv; xv; cv ] (E.int 0) in
  upd.Ir.expr <-
    E.(
      select
        (x cv =: int 0)
        (init $ [ x bv; x fv; x yv; x xv ])
        (Ir.Access_e
           (name ^ "_upd", [ x bv; x fv; x yv; x xv; x cv -: int 1 ]))
      +: conv_taps ~inp:(fun idx -> inp $ idx) ~w ~b:(x bv) ~fo:(x fv)
           ~y:(x yv) ~x':(x xv) ~c:(x cv));
  store_in upd obuf [ a "b"; a "f"; a "y"; a "x" ];
  (init, upd, obuf)

let conv_layer () =
  let f = create ~params:[ "B"; "F"; "C"; "Y"; "X" ] "conv_layer" in
  let init, upd, obuf = conv f in
  (f, init, upd, obuf)

let conv_schedule f ~name =
  let upd = find_comp f (name ^ "_upd") and init = find_comp f (name ^ "_init") in
  parallelize upd "b";
  parallelize init "b";
  vectorize upd "x" 8;
  vectorize init "x" 8

(* ------------------------------------------------------------------ *)
(* VGG block: conv1 -> relu1 -> conv2 -> relu2.                        *)
(* ------------------------------------------------------------------ *)

let vgg_block () =
  let f = create ~params:[ "B"; "F"; "C"; "Y"; "X" ] "vgg_block" in
  let _, _, obuf1 = conv ~name:"conv1" f in
  let bv = var "b" (k0 0) (a "B") in
  let fv = var "f" (k0 0) (a "F") in
  let yv = var "y" (k0 0) Aff.(a "Y" - k0 2) in
  let xv = var "x" (k0 0) Aff.(a "X" - k0 2) in
  ignore obuf1;
  let relu1 =
    comp f "relu1" [ bv; fv; yv; xv ]
      E.(max_ (float 0.0)
           (Ir.Access_e
              ("conv1_upd",
               [ x bv; x fv; x yv; x xv; Ir.Param_e "C" ])))
  in
  (* relu1 reads the final accumulation (c = C-1). *)
  relu1.Ir.expr <-
    E.(max_ (float 0.0)
         (Ir.Access_e
            ("conv1_upd",
             [ x bv; x fv; x yv; x xv;
               Ir.Bin_e (Ir.Sub, Ir.Param_e "C", Ir.Int_e 1) ])));
  (* conv2 consumes relu1 (its "input" has F channels and reduced size). *)
  let yv2 = var "y" (k0 0) Aff.(a "Y" - k0 4) in
  let xv2 = var "x" (k0 0) Aff.(a "X" - k0 4) in
  let cv2 = var "c" (k0 0) (a "F") in
  let w2 =
    input f "conv2_w"
      [ var "f" (k0 0) (a "F"); var "c" (k0 0) (a "F");
        var "ky" (k0 0) (k0 3); var "kx" (k0 0) (k0 3) ]
  in
  let bias2 = input f "conv2_bias" [ var "f" (k0 0) (a "F") ] in
  let obuf2 =
    buffer f "conv2_out" [ a "B"; a "F"; Aff.(a "Y" - k0 4); Aff.(a "X" - k0 4) ]
  in
  let init2 =
    comp f "conv2_init" [ bv; fv; yv2; xv2 ] (bias2 $ [ x fv ])
  in
  store_in init2 obuf2 [ a "b"; a "f"; a "y"; a "x" ];
  let upd2 = comp f "conv2_upd" [ bv; fv; yv2; xv2; cv2 ] (E.int 0) in
  upd2.Ir.expr <-
    E.(
      select
        (x cv2 =: int 0)
        (init2 $ [ x bv; x fv; x yv2; x xv2 ])
        (Ir.Access_e
           ("conv2_upd", [ x bv; x fv; x yv2; x xv2; x cv2 -: int 1 ]))
      +: conv_taps
           ~inp:(fun idx ->
             match idx with
             | [ b'; c'; y'; x' ] ->
                 Ir.Access_e ("relu1", [ b'; c'; y'; x' ])
             | _ -> assert false)
           ~w:w2 ~b:(x bv) ~fo:(x fv) ~y:(x yv2) ~x':(x xv2)
           ~c:(x cv2));
  store_in upd2 obuf2 [ a "b"; a "f"; a "y"; a "x" ];
  let relu2 =
    comp f "relu2" [ bv; fv; yv2; xv2 ]
      E.(max_ (float 0.0)
           (Ir.Access_e
              ("conv2_upd",
               [ x bv; x fv; x yv2; x xv2;
                 Ir.Bin_e (Ir.Sub, Ir.Param_e "F", Ir.Int_e 1) ])))
  in
  ignore relu2;
  (f, relu1)

(* VGG expert schedule: inline the relus into their consumers (fusion,
   improving locality — the 2.3x-over-MKL mechanism together with the
   fixed-size taps) and parallelize/vectorize. *)
let vgg_schedule f =
  inline (find_comp f "relu1");
  List.iter
    (fun n ->
      let c = find_comp f n in
      parallelize c "b";
      vectorize c "x" 8)
    [ "conv1_init"; "conv1_upd"; "conv2_init"; "conv2_upd"; "relu2" ]

(* ------------------------------------------------------------------ *)
(* HPCG kernel: 27-point stencil SpMV on a structured 3D grid —        *)
(* q = A p with A the standard 27-pt operator (26 off-diagonal -1s and  *)
(* a 26 diagonal), the dominant kernel of the HPCG benchmark.           *)
(* ------------------------------------------------------------------ *)

let hpcg () =
  let f = create ~params:[ "G" ] "hpcg" in
  let interior name = var name (k0 1) Aff.(a "G" - k0 1) in
  let i = interior "i" and j = interior "j" and k = interior "k" in
  let full name = var name (k0 0) (a "G") in
  let p = input f "p" [ full "i"; full "j"; full "k" ] in
  let terms =
    List.concat_map
      (fun di ->
        List.concat_map
          (fun dj ->
            List.map
              (fun dk ->
                let w = if di = 0 && dj = 0 && dk = 0 then 26.0 else -1.0 in
                E.(
                  float w
                  *: (p $ [ x i +: int di; x j +: int dj; x k +: int dk ])))
              [ -1; 0; 1 ])
          [ -1; 0; 1 ])
      [ -1; 0; 1 ]
  in
  let q =
    comp f "q" [ i; j; k ]
      (List.fold_left E.( +: ) (List.hd terms) (List.tl terms))
  in
  (f, q)

let hpcg_schedule f =
  let q = find_comp f "q" in
  parallelize q "i";
  vectorize q "k" 8

(* ------------------------------------------------------------------ *)
(* Baryon: dense tensor contraction for Baryon Building Blocks [16]:    *)
(* Bl(t) = sum_{i,j,k} w(i,j,k) * P1(i,t) * P2(j,t) * P3(k,t).          *)
(* ------------------------------------------------------------------ *)

let baryon () =
  let f = create ~params:[ "T"; "D" ] "baryon" in
  let t = var "t" (k0 0) (a "T") in
  let i = var "i" (k0 0) (a "D") in
  let j = var "j" (k0 0) (a "D") in
  let k = var "k" (k0 0) (a "D") in
  let d = var "d" (k0 0) (a "D") in
  let w = input f "w" [ i; j; k ] in
  let p1 = input f "P1" [ d; t ] in
  let p2 = input f "P2" [ d; t ] in
  let p3 = input f "P3" [ d; t ] in
  let bbuf = buffer f "Bl" [ a "T" ] in
  let init = comp f "bl_init" [ t ] (E.float 0.0) in
  store_in init bbuf [ a "t" ];
  let upd = comp f "bl_upd" [ t; i; j; k ] (E.int 0) in
  upd.Ir.expr <-
    E.(
      Ir.Access_e ("bl_init", [ x t ])
      +: ((w $ [ x i; x j; x k ]) *: (p1 $ [ x i; x t ])
         *: (p2 $ [ x j; x t ]) *: (p3 $ [ x k; x t ])));
  store_in upd bbuf [ a "t" ];
  (f, init, upd)

(* The paper's Baryon speedup comes from vectorizing (array expansion +
   gather/scatter); here: interchange so t is innermost and vectorize it
   (t-vectorization is exactly the "expansion" transposition). *)
let baryon_schedule f =
  let upd = find_comp f "bl_upd" in
  interchange upd "t" "i";
  interchange upd "t" "j";
  interchange upd "t" "k";
  vectorize upd "t" 8

(* ------------------------------------------------------------------ *)
(* Generic-filter-size conv: the MKL-style library kernel that cannot  *)
(* specialize on the filter size (§VI-A) — ky/kx are genuine loops.    *)
(* ------------------------------------------------------------------ *)

let conv_generic () =
  let f = create ~params:[ "B"; "F"; "C"; "Y"; "X" ] "conv_generic" in
  let bv = var "b" (k0 0) (a "B") in
  let fv = var "f" (k0 0) (a "F") in
  let yv = var "y" (k0 0) Aff.(a "Y" - k0 2) in
  let xv = var "x" (k0 0) Aff.(a "X" - k0 2) in
  let cv = var "c" (k0 0) (a "C") in
  let kyv = var "ky" (k0 0) (k0 3) in
  let kxv = var "kx" (k0 0) (k0 3) in
  let inp =
    input f "conv_in"
      [ var "b" (k0 0) (a "B"); var "c" (k0 0) (a "C");
        var "y" (k0 0) (a "Y"); var "x" (k0 0) (a "X") ]
  in
  let w =
    input f "conv_w"
      [ var "f" (k0 0) (a "F"); var "c" (k0 0) (a "C");
        var "ky" (k0 0) (k0 3); var "kx" (k0 0) (k0 3) ]
  in
  let bias = input f "conv_bias" [ var "f" (k0 0) (a "F") ] in
  let obuf =
    buffer f "conv_out" [ a "B"; a "F"; Aff.(a "Y" - k0 2); Aff.(a "X" - k0 2) ]
  in
  let init = comp f "conv_init" [ bv; fv; yv; xv ] (bias $ [ x fv ]) in
  store_in init obuf [ a "b"; a "f"; a "y"; a "x" ];
  let upd = comp f "conv_upd" [ bv; fv; yv; xv; cv; kyv; kxv ] (E.int 0) in
  (* In-place accumulation; the previous partial sum lives at the same
     buffer element (read through the init access). *)
  upd.Ir.expr <-
    E.(
      Ir.Access_e ("conv_init", [ x bv; x fv; x yv; x xv ])
      +: ((inp $ [ x bv; x cv; x yv +: x kyv; x xv +: x kxv ])
         *: (w $ [ x fv; x cv; x kyv; x kxv ])));
  store_in upd obuf [ a "b"; a "f"; a "y"; a "x" ];
  (f, init, upd)

let conv_generic_schedule f =
  (* Library-quality but generic: parallel batch, vectorized x; the filter
     loops remain rolled (no compile-time specialization). *)
  let upd = find_comp f "conv_upd" and init = find_comp f "conv_init" in
  parallelize upd "b";
  parallelize init "b";
  vectorize upd "x" 8;
  vectorize init "x" 8

(* GPU sgemm: block-tiled i/j on the grid, k sequential per thread — the
   cuBLAS-shape schedule used for the Fig. 1 (right) comparison. *)
let sgemm_gpu ?(t = 16) f =
  let upd = find_comp f "c_upd" and init = find_comp f "c_init" in
  tile_gpu upd "i" "j" t t "i0" "j0" "i1" "j1";
  tile_gpu init "i" "j" t t "i0" "j0" "i1" "j1";
  List.iteri
    (fun k inp ->
      let cp = host_to_device f (find_comp f inp) in
      Schedule.set_static cp.Ir.sched 0 (-10 + k))
    [ "A"; "B"; "C0" ];
  let cp = device_to_host f upd in
  Schedule.set_static cp.Ir.sched 0 1000

(* Elementwise relu pass over a [B; F; Y; X] tensor (the standalone library
   call MKL-style pipelines issue between convolutions). *)
let relu_pass () =
  let f = create ~params:[ "B"; "F"; "Y"; "X" ] "relu_pass" in
  let bv = var "b" (k0 0) (a "B") in
  let fv = var "f" (k0 0) (a "F") in
  let yv = var "y" (k0 0) (a "Y") in
  let xv = var "x" (k0 0) (a "X") in
  let inp =
    input f "relu_in"
      [ var "b" (k0 0) (a "B"); var "f" (k0 0) (a "F");
        var "y" (k0 0) (a "Y"); var "x" (k0 0) (a "X") ]
  in
  let r =
    comp f "relu_out" [ bv; fv; yv; xv ]
      E.(max_ (float 0.0) (inp $ [ x bv; x fv; x yv; x xv ]))
  in
  parallelize r "b";
  vectorize r "x" 8;
  f
