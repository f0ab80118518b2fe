(* The domain pool must (a) cover ranges exactly once under chunking and
   stealing, and (b) introduce no data races or iteration-order-dependent
   results: every kernel must produce bit-identical buffers under the
   reference interpreter, the sequential executor, and the pooled-parallel
   executor. *)

open Tiramisu_kernels
module B = Tiramisu_backends
module L = Tiramisu_codegen.Loop_ir

(* Force a real pool even on a single-core container, so chunking, stealing
   and the caller-participation path are actually exercised. *)
let workers = 4
let () = B.Pool.set_num_workers workers

(* ------------------------- Pool.parallel_for ------------------------- *)

let covered lo hi ?chunk () =
  let n = max 0 (hi - lo + 1) in
  let hits = Array.make (max 1 n) 0 in
  let calls = Atomic.make 0 in
  B.Pool.parallel_for ?chunk lo hi ~body:(fun clo chi ->
      Atomic.incr calls;
      for x = clo to chi do
        (* each index is owned by exactly one chunk: plain writes *)
        hits.(x - lo) <- hits.(x - lo) + 1
      done);
  (hits, Atomic.get calls)

let check_exact_cover name lo hi ?chunk () =
  Alcotest.test_case name `Quick (fun () ->
      let hits, _ = covered lo hi ?chunk () in
      let n = max 0 (hi - lo + 1) in
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s: index %d visited once" name (lo + i))
          1 hits.(i)
      done)

(* [Limits.with_time_limit] arms SIGALRM for the calling (main) domain.  Its
   [Timeout] must be raised there, never on a worker: a worker between
   tasks would die with it, the guarded caller would run on unbounded, and
   the next pool restart would re-raise it from [Domain.join]. *)
let time_limit_stays_on_caller () =
  let module Lm = Tiramisu_support.Limits in
  let on_worker = Atomic.make 0 in
  let unmasked = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let r =
    Lm.with_time_limit 1 (fun () ->
        while Unix.gettimeofday () -. t0 < 10. do
          B.Pool.parallel_for 0 (4 * workers - 1) ~body:(fun lo hi ->
              try
                if not (Domain.is_main_domain ()) then
                  if not (List.mem Sys.sigalrm (Thread.sigmask Unix.SIG_BLOCK []))
                  then Atomic.incr unmasked;
                for _ = lo to hi do
                  for _ = 1 to 2000 do
                    ignore (Sys.opaque_identity (ref 0))
                  done
                done
              with Lm.Timeout as e ->
                if not (Domain.is_main_domain ()) then Atomic.incr on_worker;
                raise e)
        done)
  in
  Alcotest.(check bool) "the caller timed out" true (r = None);
  Alcotest.(check int) "Timeout raised on a worker" 0 (Atomic.get on_worker);
  Alcotest.(check int) "chunks run on a worker taking SIGALRM" 0
    (Atomic.get unmasked);
  Alcotest.(check bool) "within the limit" true (Unix.gettimeofday () -. t0 < 5.);
  (* Joins every worker: one that died with the Timeout re-raises it. *)
  B.Pool.set_num_workers workers

let pool_tests =
  [
    Alcotest.test_case "empty range never calls the body" `Quick (fun () ->
        let _, calls = covered 5 4 () in
        Alcotest.(check int) "no calls" 0 calls);
    Alcotest.test_case "size-1 range calls the body exactly once" `Quick
      (fun () ->
        let hits, calls = covered 7 7 () in
        Alcotest.(check int) "one call" 1 calls;
        Alcotest.(check int) "index visited once" 1 hits.(0));
    check_exact_cover "extent smaller than the worker count" 0 2 ();
    check_exact_cover "extent equal to the worker count" 0 (workers - 1) ();
    check_exact_cover "large range, default chunking" 0 999 ();
    check_exact_cover "chunk size larger than the extent" 0 9 ~chunk:64 ();
    check_exact_cover "chunk size 1 (maximal stealing)" 0 63 ~chunk:1 ();
    check_exact_cover "negative bounds" (-13) 17 ();
    Alcotest.test_case "nested parallel_for runs inline and covers" `Quick
      (fun () ->
        let n = 16 in
        let hits = Array.make (n * n) 0 in
        B.Pool.parallel_for 0 (n - 1) ~body:(fun ilo ihi ->
            for i = ilo to ihi do
              B.Pool.parallel_for 0 (n - 1) ~body:(fun jlo jhi ->
                  for j = jlo to jhi do
                    hits.((i * n) + j) <- hits.((i * n) + j) + 1
                  done)
            done);
        Array.iteri
          (fun k c ->
            if c <> 1 then
              Alcotest.failf "cell %d visited %d times (want 1)" k c)
          hits);
    Alcotest.test_case "exceptions propagate to the caller" `Quick (fun () ->
        Alcotest.check_raises "body failure re-raised" (Failure "boom")
          (fun () ->
            B.Pool.parallel_for 0 99 ~chunk:1 ~body:(fun clo _ ->
                if clo = 50 then failwith "boom")));
    Alcotest.test_case "irregular (triangular) extents balance via stealing"
      `Quick (fun () ->
        let n = 64 in
        let sum = Atomic.make 0 in
        B.Pool.parallel_for 0 (n - 1) ~chunk:2 ~body:(fun clo chi ->
            for i = clo to chi do
              (* triangular work: row i touches i+1 cells *)
              let acc = ref 0 in
              for _j = 0 to i do
                incr acc
              done;
              ignore (Atomic.fetch_and_add sum !acc)
            done);
        Alcotest.(check int) "triangular sum" (n * (n + 1) / 2)
          (Atomic.get sum));
    Alcotest.test_case "a time limit fires on the caller, never on a worker"
      `Quick time_limit_stays_on_caller;
  ]

(* --------------------- differential: three backends --------------------- *)

let n = 16
let m = 12

let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

let img2 (idx : int array) =
  float_of_int (((idx.(0) * 11) + (idx.(1) * 5)) mod 23) /. 3.0

(* Interpreter vs sequential exec vs pooled-parallel exec, bit-identical
   (eps = 0): the pool must not change results or evaluation outcomes. *)
let differential ?(params = [ ("N", n); ("M", m) ])
    ?(inputs = [ ("img", img3) ]) name build sched outputs =
  Alcotest.test_case name `Quick (fun () ->
      let run_with backend =
        let f = build () in
        sched f;
        backend f
      in
      let interp_bufs =
        run_with (fun f ->
            let it = Runner.run ~fn:f ~params ~inputs in
            List.map (fun o -> (o, B.Interp.buffer it o)) outputs)
      in
      let exec_bufs parallel =
        run_with (fun f ->
            let target = B.Target.cpu ~parallel () in
            let c = Runner.run_native ~target ~fn:f ~params ~inputs () in
            List.map (fun o -> (o, B.Exec.buffer c o)) outputs)
      in
      let seq_bufs = exec_bufs `Seq in
      let pool_bufs = exec_bufs `Pool in
      List.iter
        (fun (o, iref) ->
          let s = List.assoc o seq_bufs and p = List.assoc o pool_bufs in
          Alcotest.(check bool)
            (Printf.sprintf "%s: interp = seq exec on %s (max diff %g)" name o
               (B.Buffers.max_abs_diff iref s))
            true
            (B.Buffers.equal ~eps:0.0 iref s);
          Alcotest.(check bool)
            (Printf.sprintf "%s: seq exec = pooled exec on %s (max diff %g)"
               name o
               (B.Buffers.max_abs_diff s p))
            true
            (B.Buffers.equal ~eps:0.0 s p))
        interp_bufs)

let kernel_tests =
  [
    differential "blur tiled+parallel (partial tiles, t=5)"
      (fun () ->
        let f, _, _ = Image.blur () in
        f)
      (fun f -> Schedules.cpu_blur ~t:5 f)
      [ "by" ];
    differential "conv2d vectorized"
      ~inputs:
        [ ("img", img3);
          ( "weights",
            fun idx ->
              [| 0.05; 0.1; 0.05; 0.1; 0.4; 0.1; 0.05; 0.1; 0.05 |].((idx.(0) * 3) + idx.(1)) )
        ]
      (fun () ->
        let f, _, _ = Image.conv2d () in
        f)
      Schedules.cpu_conv2d [ "conv" ];
    differential "warp affine" ~inputs:[ ("img", img2) ]
      (fun () ->
        let f, _ = Image.warp_affine () in
        f)
      Schedules.cpu_warp_affine [ "warp" ];
    differential "nb unfused (four parallel loop entries)"
      (fun () ->
        let f, _, _, _, _ = Image.nb () in
        f)
      (Schedules.cpu_nb ~fuse:false)
      [ "negative"; "brightened" ];
    differential "nb fused parallel"
      (fun () ->
        let f, _, _, _, _ = Image.nb () in
        f)
      (Schedules.cpu_nb ~fuse:true)
      [ "negative"; "brightened" ];
    differential "gaussian"
      (fun () ->
        let f, _, _ = Image.gaussian () in
        f)
      Schedules.cpu_gaussian [ "gy" ];
    differential "distributed gaussian (parallel under distributed)"
      (fun () ->
        let f, _, _ = Image.gaussian () in
        f)
      (fun f -> Schedules.dist_gaussian f ~n ~m ~nodes:4)
      [ "gy" ];
    differential "sgemm tuned (partial tiles, S=13)" ~params:[ ("S", 13) ]
      ~inputs:
        [ ("A", fun i -> float_of_int (((i.(0) * 7) + (i.(1) * 3)) mod 11));
          ("B", fun i -> float_of_int (((i.(0) * 5) + i.(1)) mod 9));
          ("C0", fun i -> float_of_int ((i.(0) + i.(1)) mod 7)) ]
      (fun () ->
        let f, _, _ = Linalg.sgemm () in
        f)
      (Linalg.sgemm_tuned ~bi:4 ~bj:4 ~bk:4 ~vec:2 ~unr:2)
      [ "C" ];
    (* edge_detector writes its result in place into the img buffer. *)
    differential "edge detector (in-place cyclic dataflow)"
      ~params:[ ("N", n) ] ~inputs:[ ("img", img2) ]
      (fun () ->
        let f, _, _ = Image.edge_detector () in
        f)
      Schedules.cpu_edge_detector [ "img" ];
  ]

(* --------------- hand-built IR: nested parallel, triangular --------------- *)

let run_ir stmt ~dims ~out parallel =
  let b = B.Buffers.create out dims in
  match parallel with
  | `Interp ->
      let it = B.Interp.create ~buffers:[ b ] () in
      B.Interp.run it stmt;
      b
  | (`Pool | `Seq) as p ->
      let c =
        B.Exec.compile
          ~target:(B.Target.cpu ~parallel:p ())
          ~params:[] ~buffers:[ b ] stmt
      in
      B.Exec.run c;
      b

let ir_tests =
  let open L in
  let nested_parallel =
    (* parallel i { parallel j { out[i][j] = 3i + 5j } } — the inner tag
       must run sequentially on its worker, not oversubscribe. *)
    For
      { var = "i"; lo = Int 0; hi = Int 15; tag = Parallel;
        body =
          For
            { var = "j"; lo = Int 0; hi = Int 15; tag = Parallel;
              body =
                Store
                  ( "out",
                    [ Var "i"; Var "j" ],
                    Bin (Add, Bin (Mul, Int 3, Var "i"),
                         Bin (Mul, Int 5, Var "j")) ) } }
  in
  let triangular =
    (* parallel i { for j <= i { out[i][j] = i - j } } — irregular extents
       exercise chunk imbalance and stealing. *)
    For
      { var = "i"; lo = Int 0; hi = Int 31; tag = Parallel;
        body =
          For
            { var = "j"; lo = Int 0; hi = Var "i"; tag = Seq;
              body =
                Store ("out", [ Var "i"; Var "j" ],
                       Bin (Sub, Var "i", Var "j")) } }
  in
  (* [static] pins the pool schedule the outer loop gets: the executor
     forks every outermost Parallel loop, static for rectangular domains
     and dynamic for irregular ones, so "seq = pool" really compares a
     sequential run against a forked one. *)
  let diff name stmt dims ~static =
    Alcotest.test_case name `Quick (fun () ->
        let iref = run_ir stmt ~dims ~out:"out" `Interp in
        let seq = run_ir stmt ~dims ~out:"out" `Seq in
        let pool = run_ir stmt ~dims ~out:"out" `Pool in
        Alcotest.(check bool)
          (name ^ ": interp = seq") true
          (B.Buffers.equal ~eps:0.0 iref seq);
        Alcotest.(check bool)
          (name ^ ": seq = pool") true
          (B.Buffers.equal ~eps:0.0 seq pool);
        let c =
          B.Exec.compile ~params:[]
            ~buffers:[ B.Buffers.create "out" dims ] stmt
        in
        Alcotest.(check int)
          (name ^ ": pool loops on the static schedule") static
          (B.Exec.static_count c))
  in
  [
    diff "nested parallel loops" nested_parallel [| 16; 16 |] ~static:1;
    diff "triangular parallel nest" triangular [| 32; 32 |] ~static:0;
    Alcotest.test_case "shape rule picks the pool schedule" `Quick (fun () ->
        (* Parallel_plan.uniform: static for a rectangular body, dynamic for
           a triangular one and for a tiled loop whose last tile is partial
           (inner bound min(3, 13 - 4*i0): 4 iterations at the first tile,
           2 at the last). *)
        let uniform ~hi body =
          Tiramisu_codegen.Parallel_plan.uniform (Hashtbl.create 4) ~var:"i"
            ~lo:(Int 0) ~hi body
        in
        let inner hi =
          For
            { var = "j"; lo = Int 0; hi; tag = Seq;
              body = Store ("out", [ Var "i"; Var "j" ], Var "j") }
        in
        Alcotest.(check bool) "rectangular" true
          (uniform ~hi:(Int 15) (inner (Int 15)));
        Alcotest.(check bool) "triangular" false
          (uniform ~hi:(Int 31) (inner (Var "i")));
        Alcotest.(check bool) "partial tile" false
          (uniform ~hi:(Int 3)
             (inner (Bin (MinOp, Int 3,
                          Bin (Sub, Int 13, Bin (Mul, Int 4, Var "i")))))));
    Alcotest.test_case "out-of-bounds still raises under hoisted checks"
      `Quick (fun () ->
        (* for i in 0..15: out[i+1] — the corner check at loop entry fails,
           execution falls back to per-access checks and raises at i=15. *)
        let stmt =
          For
            { var = "i"; lo = Int 0; hi = Int 15; tag = Seq;
              body =
                Store ("out", [ Bin (Add, Var "i", Int 1) ], Var "i") }
        in
        let b = B.Buffers.create "out" [| 16 |] in
        let c =
          B.Exec.compile
            ~target:(B.Target.cpu ~parallel:`Seq ())
            ~params:[] ~buffers:[ b ] stmt
        in
        match B.Exec.run c with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "guarded partial access inside hoist-failing loop"
      `Quick (fun () ->
        (* for i in 0..15: if i >= 1 then out[i-1] = i — corners fail
           (i=0 gives -1) but the guard keeps every executed access legal:
           the fallback per-access checks must accept the program. *)
        let stmt =
          For
            { var = "i"; lo = Int 0; hi = Int 15; tag = Seq;
              body =
                If
                  ( Cmp (GeOp, Var "i", Int 1),
                    Store ("out", [ Bin (Sub, Var "i", Int 1) ], Var "i"),
                    None ) }
        in
        let iref = run_ir stmt ~dims:[| 16 |] ~out:"out" `Interp in
        let seq = run_ir stmt ~dims:[| 16 |] ~out:"out" `Seq in
        Alcotest.(check bool)
          "guarded program matches interpreter" true
          (B.Buffers.equal ~eps:0.0 iref seq));
  ]

let () =
  Alcotest.run "pool"
    [
      ("parallel-for", pool_tests);
      ("differential-kernels", kernel_tests);
      ("differential-ir", ir_tests);
    ]
