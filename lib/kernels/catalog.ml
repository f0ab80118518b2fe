(* The built-in kernels of the tiramisuc command line: each with its schedule
   variants, the parameter values it runs at, and its input fills.
   [tiramisuc] serves them by name, and the lowered-code golden test pins
   the loop nest of every kernel x schedule pair. *)

module A = Tiramisu_autosched.Autosched

type kernel = {
  k_name : string;
  k_desc : string;
  build : unit -> Tiramisu_core.Ir.fn;
  schedules : (string * int) list -> (string * (Tiramisu_core.Ir.fn -> unit)) list;
      (* by the parameter values the kernel runs at: a distributed schedule
         splits the concrete row count across its ranks *)
  params_small : (string * int) list;
  params_paper : (string * int) list;
  inputs : (string * (int array -> float)) list;
}

let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

let img2 (idx : int array) =
  float_of_int (((idx.(0) * 11) + (idx.(1) * 5)) mod 23) /. 3.0

let kern3 (idx : int array) =
  [| 0.05; 0.1; 0.05; 0.1; 0.4; 0.1; 0.05; 0.1; 0.05 |].((idx.(0) * 3) + idx.(1))

let mat (idx : int array) =
  float_of_int (((idx.(0) * 7) + (idx.(1) * 3)) mod 11) /. 4.0

let pencil f = A.apply A.pencil_cpu f
let none _ = ()

let kernels =
  [
    {
      k_name = "blur";
      k_desc = "two-stage 3-point blur (Figs. 2-3)";
      build =
        (fun () ->
          let f, _, _ = Image.blur () in
          f);
      schedules =
        (fun params ->
          [ ("none", none); ("cpu", fun f -> Schedules.cpu_blur f);
            ("gpu", Schedules.gpu_blur);
            ( "dist",
              fun f ->
                Schedules.dist_blur f ~n:(List.assoc "N" params)
                  ~m:(List.assoc "M" params) ~nodes:16 );
            ("pencil", pencil) ]);
      params_small = [ ("N", 20); ("M", 16) ];
      params_paper = [ ("N", 2112); ("M", 3520) ];
      inputs = [ ("img", img3) ];
    };
    {
      k_name = "cvtColor";
      k_desc = "RGB to grayscale (§VI-B)";
      build = (fun () -> fst (Image.cvt_color ()));
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_cvt_color);
            ("gpu", Schedules.gpu_cvt_color); ("pencil", pencil) ]);
      params_small = [ ("N", 24); ("M", 20) ];
      params_paper = [ ("N", 2112); ("M", 3520) ];
      inputs = [ ("img", img3) ];
    };
    {
      k_name = "conv2D";
      k_desc = "3x3 convolution with clamped borders (§VI-B)";
      build =
        (fun () ->
          let f, _, _ = Image.conv2d () in
          f);
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_conv2d);
            ("gpu", Schedules.gpu_conv2d); ("pencil", pencil) ]);
      params_small = [ ("N", 20); ("M", 16) ];
      params_paper = [ ("N", 2112); ("M", 3520) ];
      inputs = [ ("img", img3); ("weights", kern3) ];
    };
    {
      k_name = "warpAffine";
      k_desc = "affine warp with bilinear sampling (§VI-B)";
      build = (fun () -> fst (Image.warp_affine ()));
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_warp_affine);
            ("gpu", Schedules.gpu_warp_affine); ("pencil", pencil) ]);
      params_small = [ ("N", 20); ("M", 16) ];
      params_paper = [ ("N", 2112); ("M", 3520) ];
      inputs = [ ("img", img2) ];
    };
    {
      k_name = "gaussian";
      k_desc = "separable 5-tap gaussian (§VI-B)";
      build =
        (fun () ->
          let f, _, _ = Image.gaussian () in
          f);
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_gaussian);
            ("gpu", Schedules.gpu_gaussian); ("pencil", pencil) ]);
      params_small = [ ("N", 20); ("M", 16) ];
      params_paper = [ ("N", 2112); ("M", 3520) ];
      inputs = [ ("img", img3) ];
    };
    {
      k_name = "nb";
      k_desc = "4-stage negative+brighten pipeline (fusion demo, §VI-B)";
      build =
        (fun () ->
          let f, _, _, _, _ = Image.nb () in
          f);
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_nb ~fuse:true);
            ("cpu-unfused", Schedules.cpu_nb ~fuse:false);
            ("gpu", Schedules.gpu_nb ~fuse:true); ("pencil", pencil) ]);
      params_small = [ ("N", 20); ("M", 16) ];
      params_paper = [ ("N", 2112); ("M", 3520) ];
      inputs = [ ("img", img3) ];
    };
    {
      k_name = "edgeDetector";
      k_desc = "ring blur + Roberts filter, in-place (cyclic dataflow)";
      build =
        (fun () ->
          let f, _, _ = Image.edge_detector () in
          f);
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_edge_detector);
            ("gpu", Schedules.gpu_edge_detector); ("pencil", pencil) ]);
      params_small = [ ("N", 20) ];
      params_paper = [ ("N", 2112) ];
      inputs = [ ("img", img2) ];
    };
    {
      k_name = "ticket2373";
      k_desc = "triangular iteration space (Halide bug reproduction)";
      build = (fun () -> fst (Image.ticket2373 ()));
      schedules =
        (fun _ ->
          [ ("none", none); ("cpu", Schedules.cpu_ticket2373);
            ("pencil", pencil) ]);
      params_small = [ ("N", 16) ];
      params_paper = [ ("N", 2112) ];
      inputs = [ ("img", fun idx -> float_of_int (idx.(0) mod 13)) ];
    };
    {
      k_name = "sgemm";
      k_desc = "C = alpha*A*B + beta*C (§VI-A)";
      build =
        (fun () ->
          let f, _, _ = Linalg.sgemm () in
          f);
      schedules =
        (fun _ ->
          [ ("none", none); ("tuned", fun f -> Linalg.sgemm_tuned f);
            ("pluto", fun f -> Linalg.sgemm_pluto f);
            ("gpu", fun f -> Linalg.sgemm_gpu f) ]);
      params_small = [ ("S", 16) ];
      params_paper = [ ("S", 1060) ];
      inputs = [ ("A", mat); ("B", mat); ("C0", mat) ];
    };
    {
      k_name = "hpcg";
      k_desc = "27-point stencil SpMV (HPCG kernel, §VI-A)";
      build = (fun () -> fst (Linalg.hpcg ()));
      schedules = (fun _ -> [ ("none", none); ("cpu", Linalg.hpcg_schedule) ]);
      params_small = [ ("G", 10) ];
      params_paper = [ ("G", 104) ];
      inputs = [ ("p", img3) ];
    };
    {
      k_name = "baryon";
      k_desc = "Baryon Building Blocks tensor contraction (§VI-A)";
      build =
        (fun () ->
          let f, _, _ = Linalg.baryon () in
          f);
      schedules = (fun _ -> [ ("none", none); ("cpu", Linalg.baryon_schedule) ]);
      params_small = [ ("T", 8); ("D", 4) ];
      params_paper = [ ("T", 64); ("D", 16) ];
      inputs = [ ("w", img3); ("P1", img2); ("P2", img2); ("P3", img2) ];
    };
  ]

let schedule_names k = List.map fst (k.schedules k.params_small)
