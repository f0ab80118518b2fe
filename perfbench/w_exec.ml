(* exec-seq / exec-pool: the five kernels compiled in set-up, then run
   round-robin until the epoch's time is up.  Tape and Exec do nearly all
   the work; the two workloads differ only in the target, so a change to
   the pool or the parallel planner shows as a gap between them.

   Each round runs every kernel a fixed number of times (about 20 ms of
   work each on a 2-CPU Xeon), so host slowdowns land on all kernels alike
   instead of on whichever kernel happened to be running.  Outputs are
   checked bit-exactly after every kernel's slot. *)

module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module Plan = Tiramisu_codegen.Parallel_plan

let reps = function
  | "blur" -> 16
  | "nb" -> 8
  | "sgemm" -> 3
  | _ -> 1

let warmup_runs = 5

type kernel = {
  label : string;
  art : P.artifact;
  reference : Programs.reference;
  mutable samples : float list;  (* this epoch's Exec.run times, ms *)
}

let run ~pool (cfg : Metrics.cfg) : Metrics.result =
  let target = if pool then B.Target.default else B.Target.cpu ~parallel:`Seq () in
  B.Pool.set_num_workers (if pool then Host.workers () else 1);
  let knobs = { P.default_knobs with P.target } in
  let cache0 = P.cache_stats () in
  let progs = Programs.exec_kernels ~seed:cfg.seed ~smoke:cfg.smoke in
  let references, reference_ms =
    Util.time_ms (fun () ->
        Trace.with_span "interp.reference" (fun () ->
            List.map (fun (_, p) -> Programs.reference p) progs))
  in
  let attempted = ref 0 and failed = ref 0 and first_runs = ref [] in
  (* per kernel: every sample, and each epoch's median *)
  let all_samples = Hashtbl.create 8 and epoch_medians = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  let last = ref [] in
  let check k batch =
    let ok =
      try Programs.matches k.reference (Programs.find_in k.art.P.buffers)
      with _ -> false
    in
    if not ok then failed := !failed + batch
  in
  let setup () =
    P.clear_cache ();
    List.map2
      (fun (label, (prog : Programs.program)) reference ->
        let fn = Programs.scheduled prog in
        let art =
          Trace.with_tracer "pipeline.build" (fun tracer ->
              P.build ?tracer ~knobs ~fn ~params:prog.params ~inputs:prog.inputs ())
        in
        let (), ms = Util.time_ms (fun () -> B.Exec.run art.P.exec) in
        first_runs := ms :: !first_runs;
        { label; art; reference; samples = [] })
      progs references
  in
  (* [n] runs of one kernel, then a check of its outputs *)
  let slot ?(timed = true) ~rid k n =
    attempted := !attempted + n;
    try
      for _ = 1 to n do
        let (), ms =
          Util.time_ms (fun () ->
              Trace.with_span ~rid "exec.run" (fun () -> B.Exec.run k.art.P.exec))
        in
        if timed then k.samples <- ms :: k.samples
      done;
      check k n
    with _ -> failed := !failed + n
  in
  let measure ~epoch:_ ~until ks =
    List.iteri (fun i k -> slot ~timed:false ~rid:(i + 1) k warmup_runs) ks;
    let round () =
      List.iteri (fun i k -> slot ~rid:(i + 1) k (reps k.label)) ks;
      Metrics.probe ()
    in
    round ();
    while Util.now_ms () < until do round () done;
    List.iter
      (fun k ->
        List.iter (add all_samples k.label) k.samples;
        add epoch_medians k.label (Util.median k.samples))
      ks;
    last := ks
  in
  (* the next epoch gets fresh pool domains *)
  let teardown _ = B.Pool.shutdown () in
  let log = Metrics.run_epochs cfg ~setup ~measure ~teardown in
  let ks = !last in
  let samples k = Hashtbl.find all_samples k.label in
  (* a kernel's time: the mean over epochs of the epoch's median *)
  let run_ms k =
    let ms = Hashtbl.find epoch_medians k.label in
    Util.sum ms /. float_of_int (List.length ms)
  in
  let per_kernel f = List.map (fun k -> (k.label, f k)) ks in
  let tag name v = List.map (fun (l, x) -> (name ^ "." ^ l, x)) v in
  let count name f = tag name (per_kernel (fun k -> float_of_int (f k))) in
  let sum_of name f =
    let v = per_kernel (fun k -> float_of_int (f k)) in
    (name, Util.sum (List.map snd v)) :: tag name v
  in
  let exec k = k.art.P.exec and plan k = k.art.P.plan_report in
  let pooled = List.concat_map samples ks in
  { Metrics.attempted = !attempted;
    failed = !failed;
    setup_s = log.setup_s;
    probe_ms = log.probe_ms;
    latency_ms = Util.geomean (List.map run_ms ks);
    ops_per_s = float_of_int (List.length pooled) /. (Util.sum pooled /. 1000.0);
    rows = List.map (fun k -> ("run_ms." ^ k.label, Util.timing (samples k))) ks;
    detail =
      tag "run_ms" (per_kernel run_ms) @ [ ("reference_s", reference_ms /. 1000.0) ];
    layer =
      Metrics.pass_layer () @ Metrics.cache_layer cache0
      @ sum_of "codegen.tape_claimed" (fun k -> B.Exec.tape_count (exec k))
      @ sum_of "codegen.tape_vector" (fun k -> B.Exec.tape_vec_count (exec k))
      @ sum_of "codegen.plan_coalesced" (fun k -> (plan k).Plan.r_coalesced)
      @ sum_of "codegen.plan_serialized" (fun k -> (plan k).Plan.r_serialized)
      @ count "backends.tape_fallbacks" (fun k -> B.Exec.tape_fallbacks (exec k))
      @ count "backends.spec_loops" (fun k -> B.Exec.spec_count (exec k))
      @ count "backends.static_loops" (fun k -> B.Exec.static_count (exec k))
      @ count "backends.pool_fallbacks" (fun k -> B.Exec.pool_fallbacks (exec k))
      @ tag "run_ms" (per_kernel run_ms)
      @ tag "backends.run_hi_ms" (per_kernel (fun k -> (Util.timing (samples k)).hi))
      @ [ ("backends.first_run_ms", Util.sum !first_runs /. float_of_int (List.length !first_runs)) ] }
