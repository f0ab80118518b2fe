(* compile-cold: the write path of the pipeline cache.  Every sweep clears
   the cache and builds each program from a freshly scheduled [Ir.fn], so
   every build is a miss and lowering, the dependence queries and the
   passes do all the work.  Each artifact then runs once and its outputs
   are checked bit-exactly against the interpreter.  Set-up draws the
   fuzz programs (the generator vets each schedule step with the legality
   oracle and lowering). *)

module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module Plan = Tiramisu_codegen.Parallel_plan

let run (cfg : Metrics.cfg) : Metrics.result =
  B.Pool.set_num_workers (Host.workers ());
  let cache0 = P.cache_stats () in
  let fuzz_count = if cfg.smoke then 10 else 100 in
  let setup () =
    Programs.cli_kernels ~seed:cfg.seed ~smoke:cfg.smoke
    @ Programs.fuzz_corpus ~seed:cfg.seed ~first:1 ~count:fuzz_count
  in
  (* the corpus is deterministic: its references are computed once *)
  let references = Hashtbl.create 128 in
  let reference_ms = ref 0.0 in
  let reference (p : Programs.program) =
    match Hashtbl.find_opt references p.name with
    | Some r -> r
    | None ->
        let r, ms =
          Util.time_ms (fun () ->
              Trace.with_span "interp.reference" (fun () -> Programs.reference p))
        in
        reference_ms := !reference_ms +. ms;
        Hashtbl.replace references p.name r;
        r
  in
  let samples = Hashtbl.create 128 in
  let attempted = ref 0 and failed = ref 0 and first_runs = ref [] in
  let claimed = ref 0 and vector = ref 0 and coalesced = ref 0 and serialized = ref 0 in
  let rng = Random.State.make [| cfg.seed; 0xc01d |] in
  let build ~first_sweep (p : Programs.program) =
    let reference = reference p in
    incr attempted;
    if !attempted mod 8 = 0 then Metrics.probe ();
    try
      let fn = Programs.scheduled p in
      let art, ms =
        Util.time_ms (fun () ->
            Trace.with_tracer "pipeline.build" (fun tracer ->
                P.build ?tracer ~fn ~params:p.params ~inputs:p.inputs ()))
      in
      Hashtbl.replace samples p.name
        (ms :: Option.value (Hashtbl.find_opt samples p.name) ~default:[]);
      let (), run_ms =
        Util.time_ms (fun () ->
            Trace.with_span "exec.first_run" (fun () -> B.Exec.run art.P.exec))
      in
      first_runs := run_ms :: !first_runs;
      if not (Programs.matches reference (Programs.find_in art.P.buffers)) then
        incr failed;
      if first_sweep then begin
        claimed := !claimed + B.Exec.tape_count art.P.exec;
        vector := !vector + B.Exec.tape_vec_count art.P.exec;
        coalesced := !coalesced + art.P.plan_report.Plan.r_coalesced;
        serialized := !serialized + art.P.plan_report.Plan.r_serialized
      end
    with e ->
      Printf.eprintf "compile-cold: %s: %s\n%!" p.name (Printexc.to_string e);
      incr failed
  in
  let measure ~epoch ~until progs =
    let rec sweeps k =
      P.clear_cache ();
      (* the same programs each sweep, in a seeded order *)
      let order = Array.of_list progs in
      Util.shuffle rng order;
      let first_sweep = epoch = 0 && k = 0 in
      Array.iter
        (fun p -> if first_sweep || Util.now_ms () < until then build ~first_sweep p)
        order;
      if Util.now_ms () < until then sweeps (k + 1)
    in
    sweeps 0
  in
  let log = Metrics.run_epochs cfg ~setup ~measure ~teardown:ignore in
  let per_program = Hashtbl.fold (fun _ s acc -> Util.median s :: acc) samples [] in
  let pooled = Hashtbl.fold (fun _ s acc -> s @ acc) samples [] in
  let count name r = (name, float_of_int !r) in
  { Metrics.attempted = !attempted;
    failed = !failed;
    setup_s = log.setup_s;
    probe_ms = log.probe_ms;
    latency_ms = Util.geomean per_program;
    ops_per_s = float_of_int (List.length pooled) /. (Util.sum pooled /. 1000.0);
    rows = [ ("build_ms", Util.timing pooled) ];
    detail = [ ("reference_s", !reference_ms /. 1000.0) ];
    layer =
      Metrics.pass_layer () @ Metrics.cache_layer cache0
      @ [ count "codegen.tape_claimed" claimed;
          count "codegen.tape_vector" vector;
          count "codegen.plan_coalesced" coalesced;
          count "codegen.plan_serialized" serialized;
          ("backends.first_run_ms",
           Util.sum !first_runs /. float_of_int (max 1 (List.length !first_runs))) ] }
