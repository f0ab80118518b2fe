(* The executor's behaviour gates, on three kernels whose [Parallel] loop
   is entered many times per run (inner-parallel blur, unfused nb) or whose
   tiles are partial (tuned sgemm):

   - exec-smoke ([smoke]) builds and runs each kernel once in every
     configuration — sequential, sequential with the tape off, sequential
     with the lanes=1 scalar tape, pool, and pool at 1/2/4 workers with the
     tape on and off — asserts that the compiled counters are per-compile
     snapshots, and that a warm compile-cache rebuild is a hit at least 10x
     faster than a cold compile;
   - bench-smoke ([smoke_gate]) times sequential against pool, and the
     vector tape against the scalar tape, by min-over-reps; it prints
     both verdicts before it fails on either.

   The timings of these paths, with their spread, are perfbench's exec-seq
   and exec-pool workloads.  pipeline-smoke and the autosched bench reuse
   [cases]. *)

open Tiramisu_kernels
open Tiramisu_core
open Tiramisu
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module Plan = Tiramisu_codegen.Parallel_plan

(* The container may expose a single core; force a real pool so the
   strategies differ (TIRAMISU_NUM_DOMAINS still wins if set). *)
let workers () =
  (match Sys.getenv_opt "TIRAMISU_NUM_DOMAINS" with
  | Some _ -> ()
  | None -> B.Pool.set_num_workers 4);
  B.Pool.num_workers ()

let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

(* blur with the parallel tag on the second tile loop (j0): the Parallel
   For is entered once per i0 iteration — a multi-entry parallel loop. *)
let blur_inner_par ?(t = 16) f =
  let bx = find_comp f "bx" and by = find_comp f "by" in
  tile by "i" "j" t t "i0" "j0" "i1" "j1";
  parallelize by "j0";
  compute_at bx by "j0";
  vectorize by "j1" 8

type case = {
  c_name : string;
  c_size : string;
  c_params : (string * int) list;
  c_inputs : (string * (int array -> float)) list;
  c_build : unit -> Tiramisu_core.Ir.fn;
  c_sched : Tiramisu_core.Ir.fn -> unit;
  c_outputs : string list;
      (* output buffers, compared bitwise by per-pass differential
         verification (the pipeline probe) and by the autoscheduler's
         winner replay *)
}

let cases ~smoke =
  let blur_n, blur_m = if smoke then (32, 32) else (96, 64) in
  let nb_n = if smoke then 48 else 192 in
  let gemm_s = if smoke then 16 else 64 in
  [
    {
      c_name = "blur_inner_parallel";
      c_size = Printf.sprintf "N=%d M=%d t=8" blur_n blur_m;
      c_params = [ ("N", blur_n); ("M", blur_m) ];
      c_inputs = [ ("img", img3) ];
      c_build =
        (fun () ->
          let f, _, _ = Image.blur () in
          f);
      c_sched = blur_inner_par ~t:8;
      c_outputs = [ "by" ];
    };
    {
      c_name = "nb_unfused";
      c_size = Printf.sprintf "N=%d M=%d" nb_n nb_n;
      c_params = [ ("N", nb_n); ("M", nb_n) ];
      c_inputs = [ ("img", img3) ];
      c_build =
        (fun () ->
          let f, _, _, _, _ = Image.nb () in
          f);
      c_sched = Schedules.cpu_nb ~fuse:false;
      c_outputs = [ "negative"; "brightened" ];
    };
    {
      c_name = "sgemm_tuned";
      c_size = Printf.sprintf "S=%d" gemm_s;
      c_params = [ ("S", gemm_s) ];
      c_inputs =
        [ ("A", fun i -> float_of_int (((i.(0) * 7) + (i.(1) * 3)) mod 11));
          ("B", fun i -> float_of_int (((i.(0) * 5) + i.(1)) mod 9));
          ("C0", fun i -> float_of_int ((i.(0) + i.(1)) mod 7)) ];
      c_build =
        (fun () ->
          let f, _, _ = Linalg.sgemm () in
          f);
      c_sched = Linalg.sgemm_tuned ~bi:8 ~bj:8 ~bk:8 ~vec:4 ~unr:2;
      c_outputs = [ "C" ];
    };
  ]

(* Cold-vs-warm compile of the same (stmt, params, knobs) triple through
   the pipeline's compile cache.  A warm rebuild must be a genuine [Hit]
   and at least 10x faster than a cold compile — the property that makes
   repeated compiles in fuzz replay and autoscheduler candidate search
   near-free. *)
let cache_bench case =
  let fn = case.c_build () in
  case.c_sched fn;
  let lowered = P.lower fn in
  let extents = P.extents_of_fn fn ~params:case.c_params in
  let build () =
    P.build_stmt ~params:case.c_params ~extents ~inputs:case.c_inputs
      lowered.Lower.ast
  in
  let cold =
    Array.init 3 (fun _ ->
        P.clear_cache ();
        let art, ms = Common.time_ms build in
        assert (art.P.cache = P.Miss);
        ms)
  in
  ignore (build ());
  let hit =
    Array.init 20 (fun _ ->
        let art, ms = Common.time_ms build in
        if art.P.cache <> P.Hit then
          failwith (case.c_name ^ ": warm-cache rebuild was not a cache hit");
        ms)
  in
  (* A hit is a pure in-memory lookup + blit, so timer/scheduler noise is
     strictly additive: min is the faithful estimator, where a median over
     a handful of microsecond-scale samples is hostage to one descheduled
     run. Cold compiles do real work, so the median is kept there. *)
  let cold_ms = Common.percentile cold 0.5
  and hit_ms = Array.fold_left Float.min infinity hit in
  if cold_ms < 10.0 *. hit_ms then
    failwith
      (Printf.sprintf
         "%s: warm-cache recompile only %.1fx faster than cold (cold %.4f \
          ms, hit %.4f ms); expected >= 10x"
         case.c_name (cold_ms /. hit_ms) cold_ms hit_ms);
  (cold_ms, hit_ms)

(* A differential-verification probe over the case's own inputs and output
   buffers: verifiable statement passes interp the IR before and after on
   this probe and require bitwise-equal outputs. *)
let probe_of case fn =
  (* lowering materializes the auto and input buffers (idempotently), so
     the probe's extents cover every buffer the interpreter needs *)
  ignore (P.lower fn : Lower.t);
  {
    P.probe_params = case.c_params;
    probe_extents = P.extents_of_fn fn ~params:case.c_params;
    probe_fills = case.c_inputs;
    probe_outputs = case.c_outputs;
  }

(* Build [case] for [strategy] and run it once, which surfaces any bounds
   failure. *)
let build_and_run ?(tape = true) ?lanes case strategy =
  let fn = case.c_build () in
  case.c_sched fn;
  let art =
    Runner.build_native
      ~target:(B.Target.cpu ~parallel:strategy ())
      ~tape ?lanes ~fn ~params:case.c_params
      ~inputs:case.c_inputs ()
  in
  B.Exec.run art.P.exec;
  art

(* The fastest of [reps] timed runs after [build_and_run]'s untimed one.
   Returns the whole pipeline artifact too, so callers can read the
   executor's lane modes. *)
let time_exec ?tape ?lanes ~reps case strategy =
  let art = build_and_run ?tape ?lanes case strategy in
  let best = ref infinity in
  for _ = 1 to reps do
    let (), ms = Common.time_ms (fun () -> B.Exec.run art.P.exec) in
    best := Float.min !best ms
  done;
  (art, !best)

(* The tape/schedule counters are snapshotted per compile (atomic during
   compilation, frozen in the compiled value): recompiling the same case
   must report identical numbers, and the sequential strategy must report
   no pool loops.  Every configuration compiles separately, so
   accumulating or shared counters would silently corrupt what each
   compile reports — fail fast instead. *)
let assert_counters case =
  let compile strategy =
    let fn = case.c_build () in
    case.c_sched fn;
    Runner.prepare_native
      ~target:(B.Target.cpu ~parallel:strategy ())
      ~fn ~params:case.c_params
      ~inputs:case.c_inputs ()
  in
  let p1 = compile `Pool and p2 = compile `Pool in
  assert (B.Exec.static_count p1 = B.Exec.static_count p2);
  assert (B.Exec.tape_count p1 = B.Exec.tape_count p2);
  assert (B.Exec.tape_instrs p1 = B.Exec.tape_instrs p2);
  assert (B.Exec.static_count (compile `Seq) = 0);
  (* the tape=off control must really be closure-only *)
  let fn = case.c_build () in
  case.c_sched fn;
  let off =
    Runner.prepare_native
      ~target:(B.Target.cpu ~parallel:`Pool ())
      ~tape:false ~fn
      ~params:case.c_params ~inputs:case.c_inputs ()
  in
  assert (B.Exec.tape_count off = 0 && B.Exec.tape_instrs off = 0)

(* The exec-smoke gate.  The pool sweep runs at 1/2/4 workers; the
   compile-cache key includes the pool environment, so each size gets its
   own planned compile (at 1 worker the planner serializes everything). *)
let smoke () =
  let w = workers () in
  Common.pf "\nexec-smoke (workers=%d, pool_min_work=%d)\n" w Plan.min_work;
  List.iter
    (fun case ->
      assert_counters case;
      let seq = build_and_run case `Seq in
      ignore (build_and_run ~tape:false case `Seq);
      ignore (build_and_run ~lanes:1 case `Seq);
      ignore (build_and_run case `Pool);
      Fun.protect
        ~finally:(fun () -> B.Pool.set_num_workers w)
        (fun () ->
          List.iter
            (fun tape ->
              List.iter
                (fun n ->
                  B.Pool.set_num_workers n;
                  ignore (build_and_run ~tape case `Pool))
                [ 1; 2; 4 ])
            [ true; false ]);
      let cold_ms, hit_ms = cache_bench case in
      Common.pf
        "exec-smoke %-22s %-16s tape %d nests (%d vector), cache hit %.0fx \
         faster than cold\n"
        case.c_name case.c_size
        (B.Exec.tape_count seq.P.exec)
        (B.Exec.tape_vec_count seq.P.exec)
        (cold_ms /. hit_ms))
    (cases ~smoke:true)

(* The `make bench-smoke` gate, in two regimes decided by what the OS
   actually grants:

   - real multicore: with the tape executor the pool must now {e win} —
     at 4 workers at least 2 of the 3 kernels must run >= 1.5x faster
     than sequential, by min-over-reps;
   - single effective CPU: a pool can only time-slice, so the old
     never-lose bound applies per kernel — pool within 1.1x of seq (plus
     a 50µs noise floor), which holds because the planner serializes
     every pool loop. *)
let smoke_gate () =
  ignore (workers ());
  let reps = 10 in
  let multicore = B.Pool.effective_parallelism () > 1 in
  let measure case =
    let _, seq = time_exec ~reps case `Seq in
    let _, pool = time_exec ~reps case `Pool in
    Common.pf
      "bench-smoke %-22s seq %8.3f ms   pool %8.3f ms   (pool speedup %.2fx, >1 = pool wins)\n"
      case.c_name seq pool
      (seq /. pool);
    (case.c_name, seq, pool)
  in
  let rows = List.map measure (cases ~smoke:true) in
  (* Each sub-gate prints its verdict; the process fails after both ran. *)
  let pool_ok =
    if multicore then begin
      let winners =
        List.filter (fun (_, seq, pool) -> seq >= 1.5 *. pool) rows
      in
      if List.length winners >= 2 then begin
        Common.pf
          "bench-smoke: pool >= 1.5x seq at %d workers on %d/%d kernels\n"
          (B.Pool.num_workers ()) (List.length winners) (List.length rows);
        true
      end
      else begin
        Common.pf
          "bench-smoke FAILED: pool >= 1.5x seq on only %d/%d kernels (need \
           >= 2)\n"
          (List.length winners) (List.length rows);
        false
      end
    end
    else begin
      (* Self-degrading silently is how a perf regression hides on a starved
         CI box: one loud, unmissable line, on stderr, every time. *)
      Printf.eprintf
        "bench-smoke WARNING: only %d effective CPU(s) — the >= 1.5x pool \
         scaling gate is DEGRADED to the 1.1x never-lose bound; scaling is \
         NOT being verified on this machine\n%!"
        (B.Pool.effective_parallelism ());
      let failures =
        List.filter
          (fun (_, seq, pool) -> pool > (1.1 *. seq) +. 0.05)
          rows
      in
      match failures with
      | [] ->
          Common.pf "bench-smoke: pool within 1.1x of seq on every kernel\n";
          true
      | fs ->
          Common.pf "bench-smoke FAILED: pool slower than 1.1x seq on: %s\n"
            (String.concat ", " (List.map (fun (n, _, _) -> n) fs));
          false
    end
  in
  (* The vector sub-gate compares the lane-batched tape against the
     forced-scalar tape on purely sequential timings, so it is honest on
     a single-CPU box — no regime split.  Every kernel has a vector nest
     now: sgemm's accumulator batches its lanes along the vectorized
     level above the reduction, not along the reduction itself.  The
     gate still asks for >= 2 of 3, not 3 of 3. *)
  let vec_rows =
    List.map
      (fun case ->
        let a, vec = time_exec ~reps case `Seq in
        let _, scalar = time_exec ~lanes:1 ~reps case `Seq in
        (* the modes the nests bound, not the requested width: each
           nest fits the request to its own shape *)
        let modes =
          List.filter_map
            (fun (_, m) ->
              match m with
              | B.Tape.Scalar _ -> None
              | m -> Some (B.Tape.mode_to_string m))
            (B.Exec.lane_modes a.P.exec)
        in
        Common.pf
          "bench-smoke %-22s scalar-tape %8.3f ms   vector %8.3f ms   \
           (%.2fx, %d nests: %s)\n"
          case.c_name scalar vec
          (scalar /. vec)
          (List.length modes) (String.concat ", " modes);
        (case.c_name, scalar, vec))
      (cases ~smoke:true)
  in
  let vec_winners =
    List.filter
      (fun (_, scalar, vec) -> scalar >= 1.2 *. vec)
      vec_rows
  in
  let vec_ok = List.length vec_winners >= 2 in
  if vec_ok then
    Common.pf "bench-smoke: vector tape >= 1.2x scalar tape on %d/%d kernels\n"
      (List.length vec_winners) (List.length vec_rows)
  else
    Common.pf
      "bench-smoke FAILED: vector tape >= 1.2x scalar tape on only %d/%d \
       kernels (need >= 2)\n"
      (List.length vec_winners) (List.length vec_rows);
  if not (pool_ok && vec_ok) then exit 1
