(* Wall-clock benchmark of the compiled backend's execution strategies:
   reference interpreter vs. sequential exec vs. the persistent domain
   pool, with tape-off and scalar-tape controls.  Emits a machine-readable
   BENCH_exec.json next to the human-readable table.

   The interesting cases are kernels whose [Parallel] loop is entered many
   times per run (inner-parallel blur, unfused nb).  The [tape_compiled]
   column counts nests claimed by the flat tape; [plan_serialized] counts
   Parallel subtrees the parallel planner serialized below its work
   threshold (recorded in the JSON header).

   Per-strategy timings report mean, median and min over the reps: the
   median is robust to scheduler noise, the min approximates the
   noise-free run.  Speedup ratios use medians.

   Smoke mode ([run ~smoke:true ()], CLI "exec-smoke") runs 1 rep on tiny
   sizes and skips the JSON so the tier-1 gate can exercise the perf paths
   without clobbering the published numbers. *)

open Tiramisu_kernels
open Tiramisu_core
open Tiramisu
module B = Tiramisu_backends
module L = Tiramisu_codegen.Loop_ir
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

type stats = { s_mean : float; s_median : float; s_min : float }

let stats_of (samples : float array) =
  let n = Array.length samples in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let median =
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
  in
  {
    s_mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n;
    s_median = median;
    s_min = sorted.(0);
  }

type row = {
  r_case : case;
  r_meta : L.loop_meta;
  r_coalesced : int;      (* fused parallel groups emitted by the planner *)
  r_fused_levels : int;   (* original loops folded into those groups *)
  r_serialized : int;     (* Parallel subtrees the planner serialized *)
  r_static : int;         (* pool loops given the static schedule *)
  r_tape : int;           (* nests claimed by the flat-tape backend *)
  r_tape_vec : int;       (* claimed nests bound lane-batched (vector) *)
  r_lanes : int;          (* lane width the vector bindings ran at *)
  r_tape_instr : int;     (* total tape instructions across those nests *)
  r_tape_fb : int;        (* runtime corner-check fallbacks over the reps *)
  r_interp_ms : float;
  r_seq : stats;
  r_seq_notape : stats;          (* tape=off control, sequential *)
  r_seq_nolanes : stats;         (* lanes=1 scalar-tape control, sequential *)
  r_pool : stats;
  r_sweep : (int * stats) list;  (* pool stats at 1/2/4 workers *)
  r_sweep_notape : (int * stats) list;  (* tape=off control sweep *)
  r_cold_ms : float;
    (* median cold compile of the already-lowered stmt: prepare, plan and
       tape/closure compile only — lowering and [widen-parallel] run once,
       before the timed builds, and are excluded *)
  r_hit_ms : float;   (* median warm-cache rebuild of the same stmt *)
}

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
  let cold_ms = (stats_of cold).s_median
  and hit_ms = (stats_of hit).s_min in
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

(* One traced build per kernel (cold, so every pass actually runs), with
   the probe attached: smoke-path compiles carry per-pass differential
   verification rather than reporting every row "skipped". *)
let trace_case case =
  let fn = case.c_build () in
  case.c_sched fn;
  P.clear_cache ();
  let tracer = P.make_tracer ~probe:(probe_of case fn) ~name:case.c_name () in
  ignore
    (Runner.build_native ~tracer ~fn ~params:case.c_params
       ~inputs:case.c_inputs ());
  P.trace_of tracer

(* Per-rep wall-clock samples of Exec.run (one warmup run, which also
   surfaces any bounds failure before we start timing).  Returns the whole
   pipeline artifact so callers can read the planner report alongside the
   executor counters. *)
let time_exec ?(tape = true) ?lanes ~reps case strategy =
  let fn = case.c_build () in
  case.c_sched fn;
  let art =
    Runner.build_native
      ~target:(B.Target.cpu ~parallel:strategy ())
      ~tape ?lanes ~fn ~params:case.c_params
      ~inputs:case.c_inputs ()
  in
  let c = art.P.exec in
  B.Exec.run c;
  let samples =
    Array.init reps (fun _ ->
        let (), ms = Common.time_ms (fun () -> B.Exec.run c) in
        ms)
  in
  (art, stats_of samples)

(* The scaling sweep: the same kernel, pool strategy, at 1/2/4 workers.
   The compile-cache key includes the pool environment, so each size gets
   its own honestly planned compile (at 1 worker the planner serializes
   everything and the sweep's base point is the sequential code). *)
let sweep_points = [ 1; 2; 4 ]

let sweep_workers ?(tape = true) ~reps case =
  let saved = B.Pool.num_workers () in
  Fun.protect
    ~finally:(fun () -> B.Pool.set_num_workers saved)
    (fun () ->
      List.map
        (fun w ->
          B.Pool.set_num_workers w;
          let _, st = time_exec ~tape ~reps case `Pool in
          (w, st))
        sweep_points)

(* The tape/schedule counters are snapshotted per compile (atomic during
   compilation, frozen in the compiled value): recompiling the same case
   must report identical numbers, and the sequential strategy must report
   no pool loops.  Benchmarks compile each strategy separately, so
   accumulating or shared counters would silently corrupt the
   [tape_compiled]/[static_sched] columns — fail fast instead. *)
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

let bench_case ~reps case =
  assert_counters case;
  let fn = case.c_build () in
  case.c_sched fn;
  let (_ : B.Interp.t), interp_ms =
    Common.time_ms (fun () ->
        Runner.run ~fn ~params:case.c_params ~inputs:case.c_inputs)
  in
  let a, seq = time_exec ~reps case `Seq in
  let _, seq_notape = time_exec ~tape:false ~reps case `Seq in
  let _, seq_nolanes = time_exec ~lanes:1 ~reps case `Seq in
  let ap, pool = time_exec ~reps case `Pool in
  let sweep = sweep_workers ~reps case in
  let sweep_notape = sweep_workers ~tape:false ~reps case in
  let cold_ms, hit_ms = cache_bench case in
  let plan = ap.P.plan_report in
  {
    r_case = case;
    r_meta = B.Exec.meta a.P.exec;
    r_coalesced = plan.Plan.r_coalesced;
    r_fused_levels = plan.Plan.r_fused_levels;
    r_serialized = plan.Plan.r_serialized;
    r_static = B.Exec.static_count ap.P.exec;
    r_tape = B.Exec.tape_count a.P.exec;
    r_tape_vec = B.Exec.tape_vec_count a.P.exec;
    r_lanes = B.Exec.tape_lanes a.P.exec;
    r_tape_instr = B.Exec.tape_instrs a.P.exec;
    (* read after the timing reps: accumulates every entry that fell back *)
    r_tape_fb = B.Exec.tape_fallbacks a.P.exec;
    r_interp_ms = interp_ms;
    r_seq = seq;
    r_seq_notape = seq_notape;
    r_seq_nolanes = seq_nolanes;
    r_pool = pool;
    r_sweep = sweep;
    r_sweep_notape = sweep_notape;
    r_cold_ms = cold_ms;
    r_hit_ms = hit_ms;
  }

let json_of_row ~reps r =
  let m = r.r_meta in
  let sweep_str sweep =
    String.concat ", "
      (List.map
         (fun (w, st) ->
           Printf.sprintf
             {|{ "workers": %d, "median_ms": %.4f, "min_ms": %.4f }|} w
             st.s_median st.s_min)
         sweep)
  in
  let sweep_json = sweep_str r.r_sweep in
  let sweep_notape_json = sweep_str r.r_sweep_notape in
  let scaling =
    (* parallel efficiency at the sweep's widest point: (t_1 / t_w) / w *)
    match (List.assoc_opt 1 r.r_sweep, List.rev r.r_sweep) with
    | Some one, (w, wide) :: _ when w > 1 ->
        one.s_median /. wide.s_median /. float_of_int w
    | _ -> 1.0
  in
  Printf.sprintf
    {|    { "kernel": "%s", "size": "%s", "reps": %d,
      "loop_meta": { "n_loops": %d, "n_parallel": %d, "n_nested_parallel": %d, "max_depth": %d, "n_specializable": %d },
      "coalesced": %d, "fused_levels": %d, "plan_serialized": %d, "static_sched": %d,
      "tape_compiled": %d, "tape_instr_count": %d, "tape_fallbacks": %d,
      "vector_claimed": %d, "lane_width": %d,
      "interp_ms": %.4f,
      "exec_seq_ms": %.4f, "exec_seq_median_ms": %.4f, "exec_seq_min_ms": %.4f,
      "exec_seq_notape_median_ms": %.4f,
      "exec_seq_scalar_tape_median_ms": %.4f,
      "exec_pool_ms": %.4f, "exec_pool_median_ms": %.4f, "exec_pool_min_ms": %.4f,
      "workers_sweep": [ %s ],
      "workers_sweep_notape": [ %s ],
      "scaling_efficiency": %.3f,
      "compile_cold_ms": %.4f, "cache_hit_ms": %.4f, "cache_speedup": %.1f,
      "speedup_exec_vs_interp": %.2f, "speedup_pool_vs_seq": %.2f,
      "speedup_tape_vs_closure_seq": %.2f,
      "speedup_vector_vs_scalar_tape": %.2f }|}
    r.r_case.c_name r.r_case.c_size reps m.L.n_loops m.L.n_parallel
    m.L.n_nested_parallel m.L.max_depth m.L.n_specializable
    r.r_coalesced r.r_fused_levels r.r_serialized r.r_static
    r.r_tape r.r_tape_instr r.r_tape_fb
    r.r_tape_vec r.r_lanes
    r.r_interp_ms r.r_seq.s_mean r.r_seq.s_median r.r_seq.s_min
    r.r_seq_notape.s_median r.r_seq_nolanes.s_median
    r.r_pool.s_mean r.r_pool.s_median r.r_pool.s_min sweep_json
    sweep_notape_json scaling
    r.r_cold_ms r.r_hit_ms
    (r.r_cold_ms /. r.r_hit_ms)
    (r.r_interp_ms /. r.r_seq.s_median)
    (r.r_seq.s_median /. r.r_pool.s_median)
    (r.r_seq_notape.s_median /. r.r_seq.s_median)
    (r.r_seq_nolanes.s_median /. r.r_seq.s_median)

let run ?(smoke = false) () =
  let reps = if smoke then 1 else 15 in
  let w = workers () in
  let min_work = Plan.min_work in
  Common.pf "\nExec strategies (workers=%d, reps=%d, pool_min_work=%d%s)\n"
    w reps min_work
    (if smoke then ", smoke" else "");
  Common.pf "%-22s %-16s %10s %10s %10s %5s %5s %5s %5s %10s %10s\n"
    "kernel" "size" "interp ms" "seq ms" "pool ms" "coal" "stat" "tape" "vec"
    "seq/pool" "hit ms";
  let rows = List.map (bench_case ~reps) (cases ~smoke) in
  List.iter
    (fun r ->
      Common.pf
        "%-22s %-16s %10.3f %10.3f %10.3f %5d %5d %5d %5d %9.2fx %10.4f\n"
        r.r_case.c_name r.r_case.c_size r.r_interp_ms r.r_seq.s_median
        r.r_pool.s_median r.r_coalesced r.r_static r.r_tape r.r_tape_vec
        (r.r_seq.s_median /. r.r_pool.s_median)
        r.r_hit_ms;
      Common.pf "%-22s   workers sweep:%s\n" ""
        (String.concat ""
           (List.map
              (fun (w, st) -> Printf.sprintf "  %dw %.3f ms" w st.s_median)
              r.r_sweep)))
    rows;
  if smoke then Common.pf "smoke mode: BENCH_exec.json left untouched\n"
  else begin
    (* The header records the machine the numbers were taken on AND which
       regime the smoke gate would run in there: consumers of the JSON can
       tell a "pool won" claim from a "pool merely didn't lose" one.
       [os_cpus] is what the OS grants, so the gate regime follows it;
       [effective_cpus] is what the planner budgets for, min(workers,
       os_cpus). *)
    let effective = B.Pool.effective_parallelism () in
    let os_cpus = Domain.recommended_domain_count () in
    let gate_mode =
      if min w os_cpus > 1 then "scaling-1.5x" else "never-lose-1.1x"
    in
    let oc = open_out "BENCH_exec.json" in
    Printf.fprintf oc
      "{\n\
      \  \"bench\": \"exec\",\n\
      \  \"workers\": %d,\n\
      \  \"os_cpus\": %d,\n\
      \  \"effective_cpus\": %d,\n\
      \  \"gate_mode\": \"%s\",\n\
      \  \"pool_min_work\": %d,\n\
      \  \"kernels\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      w os_cpus effective gate_mode min_work
      (String.concat ",\n" (List.map (json_of_row ~reps) rows));
    close_out oc;
    Common.pf "wrote BENCH_exec.json\n";
    (* Per-pass pipeline trace for every bench kernel, next to the timing
       numbers. *)
    P.write_traces "BENCH_pass_trace.json"
      (List.map trace_case (cases ~smoke));
    Common.pf "wrote BENCH_pass_trace.json\n"
  end

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
      case.c_name seq.s_min pool.s_min
      (seq.s_min /. pool.s_min);
    (case.c_name, seq, pool)
  in
  let rows = List.map measure (cases ~smoke:true) in
  if multicore then begin
    let winners =
      List.filter (fun (_, seq, pool) -> seq.s_min >= 1.5 *. pool.s_min) rows
    in
    if List.length winners >= 2 then
      Common.pf
        "bench-smoke: pool >= 1.5x seq at %d workers on %d/%d kernels\n"
        (B.Pool.num_workers ()) (List.length winners) (List.length rows)
    else begin
      Common.pf
        "bench-smoke FAILED: pool >= 1.5x seq on only %d/%d kernels (need \
         >= 2)\n"
        (List.length winners) (List.length rows);
      exit 1
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
        (fun (_, seq, pool) -> pool.s_min > (1.1 *. seq.s_min) +. 0.05)
        rows
    in
    match failures with
    | [] -> Common.pf "bench-smoke: pool within 1.1x of seq on every kernel\n"
    | fs ->
        Common.pf "bench-smoke FAILED: pool slower than 1.1x seq on: %s\n"
          (String.concat ", " (List.map (fun (n, _, _) -> n) fs));
        exit 1
  end;
  (* The vector sub-gate compares the lane-batched tape against the
     forced-scalar tape on purely sequential timings, so it is honest on
     a single-CPU box — no regime split.  The accumulator kernel (sgemm)
     stays scalar by design, hence >= 2 of 3, not 3 of 3. *)
  let vec_rows =
    List.map
      (fun case ->
        let a, vec = time_exec ~reps case `Seq in
        let _, scalar = time_exec ~lanes:1 ~reps case `Seq in
        Common.pf
          "bench-smoke %-22s scalar-tape %8.3f ms   vector %8.3f ms   \
           (%.2fx, %d nests @ %d lanes)\n"
          case.c_name scalar.s_min vec.s_min
          (scalar.s_min /. vec.s_min)
          (B.Exec.tape_vec_count a.P.exec)
          (B.Exec.tape_lanes a.P.exec);
        (case.c_name, scalar, vec))
      (cases ~smoke:true)
  in
  let vec_winners =
    List.filter
      (fun (_, scalar, vec) -> scalar.s_min >= 1.2 *. vec.s_min)
      vec_rows
  in
  if List.length vec_winners >= 2 then
    Common.pf "bench-smoke: vector tape >= 1.2x scalar tape on %d/%d kernels\n"
      (List.length vec_winners) (List.length vec_rows)
  else begin
    Common.pf
      "bench-smoke FAILED: vector tape >= 1.2x scalar tape on only %d/%d \
       kernels (need >= 2)\n"
      (List.length vec_winners) (List.length vec_rows);
    exit 1
  end
