(* The programs the workloads compile and run, and their interpreter
   references.

   A program is a function making the unscheduled pipeline plus the
   schedule a user would apply to it.  The reference for its outputs is the
   interpreter run on the *unscheduled* program: the untransformed oracle,
   so a wrong schedule rewrite, pass or backend all show up as a
   mismatch. *)

open Tiramisu_kernels
module B = Tiramisu_backends
module Fz = Tiramisu_fuzz

type program = {
  name : string;
  build : unit -> Tiramisu_core.Ir.fn;
  sched : Tiramisu_core.Ir.fn -> unit;
  params : (string * int) list;
  inputs : (string * (int array -> float)) list;
  outputs : string list;
}

let scheduled p =
  let fn = p.build () in
  p.sched fn;
  fn

type reference = (string * float array) list

let reference p : reference =
  let it = Runner.run ~fn:(p.build ()) ~params:p.params ~inputs:p.inputs in
  List.map (fun o -> (o, (B.Interp.buffer it o).B.Buffers.data)) p.outputs

(* Bit-exact check of a run's output buffers against the reference. *)
let matches (r : reference) (find : string -> B.Buffers.t) =
  List.for_all (fun (o, want) -> Util.bits_equal want (find o).B.Buffers.data) r

let find_in buffers o = List.find (fun b -> b.B.Buffers.name = o) buffers

let none _ = ()

(* ---------- image and linear-algebra kernels ---------- *)

let img ~seed name = (name, Util.fill ~seed ~name ())

let blur ~seed ~n ~m sched =
  { name = "blur";
    build = (fun () -> let f, _, _ = Image.blur () in f);
    sched; params = [ ("N", n); ("M", m) ]; inputs = [ img ~seed "img" ];
    outputs = [ "by" ] }

(* blur with the parallel tag on the second tile loop: a parallel loop
   entered once per outer tile row. *)
let blur_inner_parallel ?(t = 8) f =
  let open Tiramisu_core.Tiramisu in
  let bx = find_comp f "bx" and by = find_comp f "by" in
  tile by "i" "j" t t "i0" "j0" "i1" "j1";
  parallelize by "j0";
  compute_at bx by "j0";
  vectorize by "j1" 8

let cvt_color ~seed ~n sched =
  { name = "cvtColor"; build = (fun () -> fst (Image.cvt_color ())); sched;
    params = [ ("N", n); ("M", n) ]; inputs = [ img ~seed "img" ];
    outputs = [ "gray" ] }

let conv2d ~seed ~n sched =
  { name = "conv2D"; build = (fun () -> let f, _, _ = Image.conv2d () in f);
    sched; params = [ ("N", n); ("M", n) ];
    inputs = [ img ~seed "img"; img ~seed "weights" ]; outputs = [ "conv" ] }

let warp_affine ~seed ~n sched =
  { name = "warpAffine"; build = (fun () -> fst (Image.warp_affine ())); sched;
    params = [ ("N", n); ("M", n) ]; inputs = [ img ~seed "img" ];
    outputs = [ "warp" ] }

let gaussian ~seed ~n sched =
  { name = "gaussian"; build = (fun () -> let f, _, _ = Image.gaussian () in f);
    sched; params = [ ("N", n); ("M", n) ]; inputs = [ img ~seed "img" ];
    outputs = [ "gy" ] }

let nb ~seed ~n sched =
  { name = "nb"; build = (fun () -> let f, _, _, _, _ = Image.nb () in f);
    sched; params = [ ("N", n); ("M", n) ]; inputs = [ img ~seed "img" ];
    outputs = [ "negative"; "brightened" ] }

let edge_detector ~seed ~n sched =
  { name = "edgeDetector";
    build = (fun () -> let f, _, _ = Image.edge_detector () in f); sched;
    params = [ ("N", n) ]; inputs = [ img ~seed "img" ]; outputs = [ "img" ] }

let ticket2373 ~seed ~n sched =
  { name = "ticket2373"; build = (fun () -> fst (Image.ticket2373 ())); sched;
    params = [ ("N", n) ]; inputs = [ img ~seed "img" ]; outputs = [ "t" ] }

let sgemm ~seed ~s sched =
  { name = "sgemm"; build = (fun () -> let f, _, _ = Linalg.sgemm () in f);
    sched; params = [ ("S", s) ];
    inputs = [ img ~seed "A"; img ~seed "B"; img ~seed "C0" ];
    outputs = [ "C" ] }

let hpcg ~seed ~g sched =
  { name = "hpcg"; build = (fun () -> fst (Linalg.hpcg ())); sched;
    params = [ ("G", g) ]; inputs = [ img ~seed "p" ]; outputs = [ "q" ] }

let baryon ~seed ~t ~d sched =
  { name = "baryon"; build = (fun () -> let f, _, _ = Linalg.baryon () in f);
    sched; params = [ ("T", t); ("D", d) ];
    inputs = List.map (img ~seed) [ "w"; "P1"; "P2"; "P3" ];
    outputs = [ "Bl" ] }

(* The five kernels the exec workloads run, with the labels the metrics
   use.  They cover the vector tape (blur, nb), the scalar accumulator
   tape (sgemm), the closure path for nests the tape does not claim
   (conv2d's clamped accesses) and a working set beyond L2 (blur_large,
   ~3.5 MB per buffer). *)
let exec_kernels ~seed ~smoke =
  let sz big small = if smoke then small else big in
  [ ("blur", blur ~seed ~n:(sz 96 32) ~m:(sz 64 32) (blur_inner_parallel ~t:8));
    ("nb", nb ~seed ~n:(sz 192 48) (Schedules.cpu_nb ~fuse:false));
    ("sgemm",
     sgemm ~seed ~s:(sz 64 16) (Linalg.sgemm_tuned ~bi:8 ~bj:8 ~bk:8 ~vec:4 ~unr:2));
    ("conv2d", conv2d ~seed ~n:(sz 128 32) Schedules.cpu_conv2d);
    ("blur_large", blur ~seed ~n:(sz 384 64) ~m:(sz 384 64) (fun f -> Schedules.cpu_blur f)) ]

let exec_labels = List.map fst (exec_kernels ~seed:0 ~smoke:false)

(* The 11 kernels of `tiramisuc list`, each with its CPU schedule. *)
let cli_kernels ~seed ~smoke =
  let im = if smoke then 16 else 64 in
  [ blur ~seed ~n:im ~m:im (fun f -> Schedules.cpu_blur f);
    cvt_color ~seed ~n:im Schedules.cpu_cvt_color;
    conv2d ~seed ~n:im Schedules.cpu_conv2d;
    warp_affine ~seed ~n:im Schedules.cpu_warp_affine;
    gaussian ~seed ~n:im Schedules.cpu_gaussian;
    nb ~seed ~n:im (Schedules.cpu_nb ~fuse:true);
    edge_detector ~seed ~n:im Schedules.cpu_edge_detector;
    ticket2373 ~seed ~n:im Schedules.cpu_ticket2373;
    sgemm ~seed ~s:(if smoke then 16 else 64) (fun f -> Linalg.sgemm_tuned f);
    hpcg ~seed ~g:(if smoke then 8 else 16) Linalg.hpcg_schedule;
    baryon ~seed ~t:8 ~d:4 Linalg.baryon_schedule ]

(* The eight image kernels of the compile-service request set, each as
   [(program at size n, cpu schedule)]. *)
let service_images ~seed =
  [ ((fun n -> blur ~seed ~n ~m:n), fun f -> Schedules.cpu_blur f);
    ((fun n -> cvt_color ~seed ~n), Schedules.cpu_cvt_color);
    ((fun n -> conv2d ~seed ~n), Schedules.cpu_conv2d);
    ((fun n -> warp_affine ~seed ~n), Schedules.cpu_warp_affine);
    ((fun n -> gaussian ~seed ~n), Schedules.cpu_gaussian);
    ((fun n -> nb ~seed ~n), Schedules.cpu_nb ~fuse:true);
    ((fun n -> edge_detector ~seed ~n), Schedules.cpu_edge_detector);
    ((fun n -> ticket2373 ~seed ~n), Schedules.cpu_ticket2373) ]

(* ---------- fuzz programs ---------- *)

(* [count] legal programs from the differential fuzzer's generator,
   starting at generator seed [first].  The corpus does not depend on the
   workload seed: runs with different seeds compile the same programs
   (only their input data and order change), so a change in compile time
   between runs is the compiler's, not the draw's. *)
let fuzz_corpus ~seed ~first ~count =
  let rec go s acc k =
    if k = 0 then List.rev acc
    else
      let case = Fz.Fuzz.gen_seed s in
      let b = Fz.Case.build case in
      match Tiramisu_deps.Deps.legal_under_schedule b.Fz.Case.fn with
      | Error _ -> go (s + 1) acc k
      | Ok () ->
          let p =
            { name = Printf.sprintf "fuzz%d" s;
              build = (fun () -> (Fz.Case.build ~with_steps:false case).Fz.Case.fn);
              sched = (fun fn -> List.iter (Fz.Case.apply_step fn) case.Fz.Case.steps);
              params = b.Fz.Case.params;
              inputs =
                List.map
                  (fun (name, _) -> (name, Util.fuzz_fill ~seed ~name))
                  b.Fz.Case.fills;
              outputs = b.Fz.Case.outputs }
          in
          go (s + 1) (p :: acc) (k - 1)
  in
  go first [] count
