(* The metric catalogue (names and units, mirrored by BENCHMARK.json and
   checked against it by the smoke run) and what a workload hands back. *)

let kernels = Programs.exec_labels

(* End to end: what a user of the compiler waits on, reported by every
   workload for its own kind of operation (see [result]), and the
   set-up time.  Latency is stated in units of the host probe's time
   measured in the same run: on a 2-CPU Xeon VM the host's speed varied by
   up to 1.8x over minutes, and a plain-OCaml probe slows with it, so the
   ratio keeps what the code costs and drops what the host did.  The
   latency in ms and the throughput are in every run's detail line. *)
let end_to_end = [ ("latency_probes", "probe"); ("setup_s", "s") ]

let per_kernel names unit_ =
  List.concat_map (fun m -> List.map (fun k -> (m ^ "." ^ k, unit_)) kernels) names

let per_layer =
  [ ("deps.widen_parallel_ms", "ms");
    ("core.lower_ms", "ms");
    ("core.alloc_scope_ms", "ms");
    ("codegen.legalize_ms", "ms");
    ("codegen.narrow_ms", "ms");
    ("codegen.simplify_ms", "ms");
    ("codegen.plan_ms", "ms");
    ("codegen.tape_claimed", "count");
    ("codegen.tape_vector", "count");
    ("codegen.plan_coalesced", "count");
    ("codegen.plan_serialized", "count") ]
  @ per_kernel
      [ "codegen.tape_claimed"; "codegen.tape_vector"; "codegen.plan_coalesced";
        "codegen.plan_serialized" ]
      "count"
  @ [ ("pipeline.hash_ms", "ms");
      ("pipeline.other_ms", "ms");
      ("pipeline.cache_hits", "count");
      ("pipeline.cache_misses", "count");
      ("backends.compile_ms", "ms");
      ("backends.first_run_ms", "ms") ]
  @ per_kernel
      [ "backends.tape_fallbacks"; "backends.spec_loops"; "backends.static_loops";
        "backends.pool_fallbacks" ]
      "count"
  @ per_kernel [ "backends.run_hi_ms"; "run_ms" ] "ms"
  @ [ ("service.queue_wait_ms_p50", "ms");
      ("service.queue_wait_ms_p99", "ms");
      ("service.compile_ms_p50", "ms");
      ("service.disk_load_ms_p50", "ms");
      ("service.mem_ms_p50", "ms");
      ("service.instantiate_ms_p50", "ms");
      ("service.compiles", "count");
      ("service.mem_hits", "count");
      ("service.disk_hits", "count");
      ("service.dedup_waits", "count");
      ("service.rejected", "count");
      ("service.quarantined", "count");
      ("service.hit_ratio", "ratio");
      ("store.bytes", "bytes");
      ("search.enumerated", "count");
      ("search.vetted", "count");
      ("search.illegal", "count");
      ("search.errored", "count");
      ("search.measured", "count");
      ("search.cutoffs", "count");
      ("search.useful_ratio", "ratio");
      ("search.candidates_per_s", "1/s");
      ("search.winner_speedup", "x");
      ("host.probe_ms", "ms");
      ("host.cpus_granted", "count");
      ("trace.overhead_pct", "%") ]

(* What one execution of a workload produced. *)
type result = {
  attempted : int;
  failed : int;
  setup_s : float list;  (* one value per epoch *)
  probe_ms : float list;  (* host probes taken between operations *)
  latency_ms : float;
  ops_per_s : float;
  rows : (string * Util.timing) list;
      (* the workload's timing rows under their own names, with sample
         counts and high percentiles *)
  detail : (string * float) list;
      (* workload-specific values (run_ms.<k>, svc_p99_ms, ...): reported
         and diffed, not gated *)
  layer : (string * float) list;  (* per-layer values this workload measured *)
}

(* The host's speed over the run: the mean of its probes, without the
   slowest and fastest tenth.  The mean follows how much of the run the
   host spent slow, as the operations' times do; the trim keeps one
   descheduled probe from moving it. *)
let probe_of r = Util.trimmed_mean r.probe_ms

let end_to_end_values r =
  let probe = probe_of r in
  List.map2
    (fun (name, unit_) v -> (name, v, unit_))
    end_to_end
    [ r.latency_ms /. probe; Util.median r.setup_s ]

(* Per-pass time from the traced pipeline calls, as mean ms per call: the
   pass records of every traced [Pipeline.build] and
   [Pipeline.lower_for_build] are children of its span. *)
let pass_layer () =
  let calls =
    List.filter
      (fun (s : Trace.span) -> s.name = "pipeline.build" || s.name = "pipeline.lower")
      (Trace.all ())
  in
  let n = float_of_int (max 1 (List.length calls)) in
  let ids = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace ids s.id ()) calls;
  let passes =
    List.filter
      (fun (s : Trace.span) -> Hashtbl.mem ids s.parent)
      (Trace.all ())
  in
  let total name =
    Util.sum
      (List.filter_map
         (fun (s : Trace.span) -> if s.name = "pass." ^ name then Some (Trace.dur s) else None)
         passes)
    /. n
  in
  let other =
    (Util.sum (List.map Trace.dur calls) -. Util.sum (List.map Trace.dur passes)) /. n
  in
  [ ("deps.widen_parallel_ms", total "widen-parallel");
    ("core.lower_ms", total "lower");
    ("core.alloc_scope_ms", total "alloc-scope");
    ("codegen.legalize_ms", total "legalize");
    ("codegen.narrow_ms", total "narrow");
    ("codegen.simplify_ms", total "simplify");
    ("codegen.plan_ms", total "parallel-plan");
    ("pipeline.hash_ms", total "hash");
    ("pipeline.other_ms", other);
    ("backends.compile_ms", total "compile") ]

(* Pipeline compile-cache traffic since [before]. *)
let cache_layer (before : Tiramisu_pipeline.Pipeline.cache_stats) =
  let s = Tiramisu_pipeline.Pipeline.cache_stats () in
  [ ("pipeline.cache_hits", float_of_int (s.hits - before.hits));
    ("pipeline.cache_misses", float_of_int (s.misses - before.misses)) ]

type cfg = { seed : int; seconds : float; smoke : bool }

(* A run is [epochs] epochs ([smoke_epochs] in a smoke run).  Each sets
   the workload up afresh (compiled artifacts, pool domains, server), then
   measures for its share of the run's seconds.  Two reasons: set-up time
   becomes a median over several set-ups, and timings that depend on
   per-process state (where buffers and register files land, which CPU a
   pool domain runs on) are averaged over several such states instead of
   resting on one. *)
let epochs = 6
let smoke_epochs = 2

(* Host probes, taken by the workloads between their operations so that
   they see the host in the same moments the operations do. *)
let probes = ref []
let probe_lock = Mutex.create ()

let probe () =
  let ms = Trace.with_span "host.probe" Host.probe in
  Mutex.protect probe_lock (fun () -> probes := ms :: !probes)

type epoch_log = { setup_s : float list; probe_ms : float list }

let run_epochs cfg ~setup ~measure ~teardown =
  probes := [];
  let setup_s = ref [] in
  let epochs = if cfg.smoke then smoke_epochs else epochs in
  for epoch = 0 to epochs - 1 do
    (* neither the set-up nor the measurement pays for collecting what
       the previous epoch left behind *)
    Gc.full_major ();
    let st, ms = Util.time_ms (fun () -> Trace.with_span "setup" setup) in
    setup_s := (ms /. 1000.0) :: !setup_s;
    Gc.full_major ();
    let until = Util.now_ms () +. (cfg.seconds *. 1000.0 /. float_of_int epochs) in
    measure ~epoch ~until st;
    teardown st
  done;
  { setup_s = List.rev !setup_s; probe_ms = !probes }
