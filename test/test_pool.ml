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

(* ------------------- Pool.parallel_for / static_for ------------------- *)

(* The two entry points share one type, so each table below takes the
   scheduler as its first argument. *)
let dynamic lo hi ~body = B.Pool.parallel_for lo hi ~body
let chunked chunk lo hi ~body = B.Pool.parallel_for ~chunk lo hi ~body
let static lo hi ~body = B.Pool.static_for lo hi ~body

let covered sched lo hi =
  let n = max 0 (hi - lo + 1) in
  let hits = Array.make (max 1 n) 0 in
  let calls = Atomic.make 0 in
  sched lo hi ~body:(fun clo chi ->
      Atomic.incr calls;
      for x = clo to chi do
        (* each index is owned by exactly one range: plain writes *)
        hits.(x - lo) <- hits.(x - lo) + 1
      done);
  (hits, Atomic.get calls)

let check_exact_cover sched name lo hi =
  Alcotest.test_case name `Quick (fun () ->
      let hits, _ = covered sched lo hi in
      let n = max 0 (hi - lo + 1) in
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s: index %d visited once" name (lo + i))
          1 hits.(i)
      done)

(* What both entry points promise: exact cover at every extent, inline
   nested runs, and the first failure re-raised with the job's other
   ranges cancelled. *)
let schedule_tests ?(chunking = []) sched =
  [
    Alcotest.test_case "empty range never calls the body" `Quick (fun () ->
        let _, calls = covered sched 5 4 in
        Alcotest.(check int) "no calls" 0 calls);
    Alcotest.test_case "size-1 range calls the body exactly once" `Quick
      (fun () ->
        let hits, calls = covered sched 7 7 in
        Alcotest.(check int) "one call" 1 calls;
        Alcotest.(check int) "index visited once" 1 hits.(0));
    check_exact_cover sched "extent smaller than the worker count" 0 2;
    check_exact_cover sched "extent equal to the worker count" 0
      (workers - 1);
    check_exact_cover sched "large range, default chunking" 0 999;
  ]
  @ chunking
  @ [
    check_exact_cover sched "negative bounds" (-13) 17;
    Alcotest.test_case "nested parallel_for runs inline and covers" `Quick
      (fun () ->
        let n = 16 in
        let hits = Array.make (n * n) 0 in
        let inner_calls = Atomic.make 0 in
        sched 0 (n - 1) ~body:(fun ilo ihi ->
            for i = ilo to ihi do
              let outer = Domain.self () in
              sched 0 (n - 1) ~body:(fun jlo jhi ->
                  Atomic.incr inner_calls;
                  if Domain.self () <> outer then
                    Alcotest.fail "nested range left its worker";
                  for j = jlo to jhi do
                    hits.((i * n) + j) <- hits.((i * n) + j) + 1
                  done)
            done);
        Alcotest.(check int) "one inline call per outer index" n
          (Atomic.get inner_calls);
        Array.iteri
          (fun k c ->
            if c <> 1 then
              Alcotest.failf "cell %d visited %d times (want 1)" k c)
          hits);
    Alcotest.test_case "exceptions propagate to the caller" `Quick (fun () ->
        (* Only the range holding index 50 raises, and it is dealt to a
           worker's deque, not the caller's: a failure recorded on another
           domain while the caller's own ranges succeed must still reach
           the caller. *)
        Alcotest.check_raises "body failure re-raised" (Failure "boom")
          (fun () ->
            sched 0 99 ~body:(fun clo chi ->
                if clo <= 50 && 50 <= chi then failwith "boom")));
    Alcotest.test_case "every range raises: one range per domain" `Quick
      (fun () ->
        (* Every range raises.  A domain checks for a recorded failure
           before each range it claims and records its own before claiming
           again, so no domain runs two ranges: the rest are cancelled. *)
        let mu = Mutex.create () in
        let ran = ref [] in
        match
          sched 0 999 ~body:(fun clo _ ->
              Mutex.protect mu (fun () ->
                  ran := (Domain.self () :> int) :: !ran);
              failwith (string_of_int clo))
        with
        | () -> Alcotest.fail "expected a failure"
        | exception Failure msg ->
            let ran = !ran in
            Alcotest.(check bool) "a range's own failure" true
              (int_of_string_opt msg <> None);
            Alcotest.(check int) "at most one range per domain"
              (List.length (List.sort_uniq compare ran))
              (List.length ran));
  ]

let pool_tests =
  schedule_tests dynamic
    ~chunking:
      [
        check_exact_cover (chunked 64) "chunk size larger than the extent" 0
          9;
        check_exact_cover (chunked 1) "chunk size 1 (maximal stealing)" 0 63;
      ]
  @ [
      Alcotest.test_case "a failed job cancels its unstarted chunks" `Quick
        (fun () ->
          let ran = Atomic.make 0 in
          (try
             B.Pool.parallel_for 0 999 ~chunk:1 ~body:(fun _ _ ->
                 Atomic.incr ran;
                 failwith "boom")
           with Failure _ -> ());
          Alcotest.(check bool) "at most one chunk per worker ran" true
            (Atomic.get ran <= workers);
          let hits, _ = covered dynamic 0 99 in
          Alcotest.(check bool) "the pool stays usable" true
            (Array.for_all (( = ) 1) hits));
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
    ]

let static_tests =
  schedule_tests static
  @ [
      Alcotest.test_case "one contiguous near-equal range per worker" `Quick
        (fun () ->
          let mu = Mutex.create () in
          let ranges = ref [] in
          B.Pool.static_for 3 12 ~body:(fun clo chi ->
              Mutex.protect mu (fun () -> ranges := (clo, chi) :: !ranges));
          Alcotest.(check (list (pair int int)))
            "10 indices over 4 workers"
            [ (3, 5); (6, 8); (9, 10); (11, 12) ]
            (List.sort compare !ranges));
    ]

let sizing_tests =
  [
    Alcotest.test_case "sizes the runtime cannot run are rejected up front"
      `Quick (fun () ->
        List.iter
          (fun n ->
            match B.Pool.set_num_workers n with
            | () -> Alcotest.failf "set_num_workers %d accepted" n
            | exception Invalid_argument _ -> ())
          [ 0; 129 ];
        Alcotest.(check int) "the pool keeps its size" workers
          (B.Pool.num_workers ());
        let hits, _ = covered static 0 99 in
        Alcotest.(check bool) "and stays usable" true
          (Array.for_all (( = ) 1) hits));
    Alcotest.test_case "a resize drops the stopped workers' scratch" `Quick
      (fun () ->
        let main = Domain.self () in
        let mu = Mutex.create () in
        let made = ref [] in
        let get =
          B.Pool.per_domain (fun () ->
              let v = ref 0 and w = Weak.create 1 in
              Weak.set w 0 (Some v);
              Mutex.protect mu (fun () ->
                  made := (Domain.self (), w) :: !made);
              v)
        in
        (* The caller's range waits (5 s at most) for a worker's, so the
           pool's workers make values of their own. *)
        let worker_ran = Atomic.make false in
        B.Pool.static_for 0 (workers - 1) ~body:(fun _ _ ->
            incr (get ());
            if Domain.self () <> main then Atomic.set worker_ran true
            else
              let t0 = Unix.gettimeofday () in
              while
                (not (Atomic.get worker_ran))
                && Unix.gettimeofday () -. t0 < 5.0
              do
                Domain.cpu_relax ()
              done);
        Alcotest.(check bool) "a worker made a value" true
          (Atomic.get worker_ran);
        B.Pool.set_num_workers workers;
        (* a miss on a domain outside the pool drops the old workers' *)
        let other = Domain.join (Domain.spawn (fun () ->
            ignore (get ());
            Domain.self ())) in
        Gc.full_major ();
        Gc.full_major ();
        List.iter
          (fun (d, w) ->
            let kept = d = main || d = other in
            Alcotest.(check bool)
              (Printf.sprintf "domain %d's value %s" (d :> int)
                 (if kept then "kept" else "dropped"))
              kept (Weak.check w 0))
          !made;
        ignore (Sys.opaque_identity (get ())));
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

let run_ir ?(tape = true) stmt ~dims ~out parallel =
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
          ?claims:
            (if tape then None else Some Tiramisu_codegen.Tape_gen.no_claims)
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
  (* Closure-only and tape-claimed, each at 1, 2 and 4 workers: with the
     outer loop static (nested) or dynamic (triangular), every closure/tape
     x static/dynamic pairing runs on the pool. *)
  let diff name stmt dims ~static =
    Alcotest.test_case name `Quick (fun () ->
        let iref = run_ir stmt ~dims ~out:"out" `Interp in
        let seq = run_ir stmt ~dims ~out:"out" `Seq in
        Alcotest.(check bool)
          (name ^ ": interp = seq") true
          (B.Buffers.equal ~eps:0.0 iref seq);
        Alcotest.(check bool)
          (name ^ ": the tape claims a nest") true
          ((Tiramisu_codegen.Tape_gen.claims stmt).cs_nests <> []);
        Fun.protect
          ~finally:(fun () -> B.Pool.set_num_workers workers)
          (fun () ->
            List.iter
              (fun w ->
                B.Pool.set_num_workers w;
                List.iter
                  (fun tape ->
                    let pool = run_ir ~tape stmt ~dims ~out:"out" `Pool in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: seq = pool (%s, %d workers)" name
                         (if tape then "tape" else "closures")
                         w)
                      true
                      (B.Buffers.bits_equal seq pool))
                  [ false; true ])
              [ 1; 2; 4 ]);
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
        (* for i in 0..15: out[i+1] — a tape claim fails its whole-box
           check at entry, the closures run instead, and their per-access
           check raises at i=15. *)
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
        (* for i in 0..15: if i >= 1 then out[i-1] = i — the index box
           reaches -1 at i=0, but the guard keeps every executed access
           legal: the closures' per-access checks must accept the
           program. *)
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
    (* The closure path alone (no tape claims): every access is checked
       as it runs, so a fault raises at its own iteration, after every
       earlier store landed. *)
    Alcotest.test_case "closures raise at the last iteration's affine fault"
      `Quick (fun () ->
        (* for i, j in 0..7: out[i][i+j] — in range except at i = j = 7 *)
        let stmt =
          For
            { var = "i"; lo = Int 0; hi = Int 7; tag = Seq;
              body =
                For
                  { var = "j"; lo = Int 0; hi = Int 7; tag = Seq;
                    body =
                      Store
                        ( "out",
                          [ Var "i"; Bin (Add, Var "i", Var "j") ],
                          Float 1.0 ) } }
        in
        let b = B.Buffers.create "out" [| 8; 14 |] in
        let c =
          B.Exec.compile
            ~target:(B.Target.cpu ~parallel:`Seq ())
            ~claims:Tiramisu_codegen.Tape_gen.no_claims ~params:[]
            ~buffers:[ b ] stmt
        in
        (match B.Exec.run c with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            Alcotest.(check string) "the faulting index"
              "buffer out: index 14 out of bounds [0,14) at dim 1" msg);
        let stored = Array.fold_left ( +. ) 0.0 b.B.Buffers.data in
        Alcotest.(check (float 0.0)) "every earlier store landed" 63.0 stored);
    Alcotest.test_case "closures raise on a non-affine index out of range"
      `Quick (fun () ->
        (* for i in 0..7: out[0][i*i] = i — 9 at i = 3 leaves its
           dimension while the flat offset stays inside the buffer *)
        let stmt =
          For
            { var = "i"; lo = Int 0; hi = Int 7; tag = Seq;
              body =
                Store
                  ("out", [ Int 0; Bin (Mul, Var "i", Var "i") ], Var "i") }
        in
        let b = B.Buffers.create "out" [| 8; 8 |] in
        let c =
          B.Exec.compile
            ~target:(B.Target.cpu ~parallel:`Seq ())
            ~claims:Tiramisu_codegen.Tape_gen.no_claims ~params:[]
            ~buffers:[ b ] stmt
        in
        (match B.Exec.run c with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            Alcotest.(check string) "the faulting index"
              "buffer out: index 9 out of bounds [0,8) at dim 1" msg);
        Alcotest.(check (float 0.0)) "i = 2 stored" 2.0 b.B.Buffers.data.(4);
        Alcotest.(check (float 0.0)) "i = 3 not stored" 0.0
          b.B.Buffers.data.(9));
    Alcotest.test_case "closures accept a guarded out-of-range constant"
      `Quick (fun () ->
        (* for i in 0..15: if i > 100 then out[99] = -1 else out[i] = i —
           the constant index is out of range but never runs *)
        let stmt =
          For
            { var = "i"; lo = Int 0; hi = Int 15; tag = Seq;
              body =
                If
                  ( Cmp (GtOp, Var "i", Int 100),
                    Store ("out", [ Int 99 ], Float (-1.0)),
                    Some (Store ("out", [ Var "i" ], Var "i")) ) }
        in
        let iref = run_ir stmt ~dims:[| 16 |] ~out:"out" `Interp in
        let b = B.Buffers.create "out" [| 16 |] in
        let c =
          B.Exec.compile
            ~target:(B.Target.cpu ~parallel:`Seq ())
            ~claims:Tiramisu_codegen.Tape_gen.no_claims ~params:[]
            ~buffers:[ b ] stmt
        in
        B.Exec.run c;
        Alcotest.(check bool) "bit-exact against the interpreter" true
          (B.Buffers.bits_equal iref b));
  ]

let () =
  Alcotest.run "pool"
    [
      ("parallel-for", pool_tests);
      ("static-for", static_tests);
      ("pool-size", sizing_tests);
      ("differential-kernels", kernel_tests);
      ("differential-ir", ir_tests);
    ]
