(* service-zipf: the read-heavy opposite of compile-cold.  A compile
   service with one worker domain and a 32-entry memory tier serves two
   closed-loop client threads; each client submits a request drawn Zipf(1)
   from a fixed set of lowered programs, instantiates and runs the reply
   and checks its outputs bit-exactly.  The request set is larger than the
   memory tier, so LRU eviction and store reads both happen.  Each epoch
   starts a fresh server on the same store root: the first compiles every
   request once, the later ones start from the disk tier alone. *)

module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module S = Tiramisu_service.Service

type item = {
  req : S.request;
  prog : Programs.program;
  reference : Programs.reference;
}

(* Tallies of one client thread, merged after it is joined. *)
type client = {
  mutable attempted : int;
  mutable failed : int;
  mutable latency : float list;  (* submit to reply, ms *)
  mutable instantiate : float list;
  mutable by_source : (S.source * float) list;  (* server-side rs_ms *)
}

let clients = 2
let probe_every_s = 0.1

let zipf_stream ~seed ~n ~len =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !total
  done;
  let rng = Random.State.make [| seed; 0x21bf |] in
  Array.init len (fun _ ->
      let u = Random.State.float rng !total in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then search (mid + 1) hi else search lo mid
      in
      search 0 (n - 1))

let run (cfg : Metrics.cfg) : Metrics.result =
  B.Pool.set_num_workers 1;
  let knobs = { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () } in
  let sizes = if cfg.smoke then [ 8; 12 ] else [ 16; 24; 32; 48 ] in
  let root = Filename.concat Util.out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  Util.rm_rf root;
  let cache0 = P.cache_stats () in
  let image_progs =
    List.concat_map
      (fun (mk, cpu) ->
        List.concat_map (fun n -> [ ("none", mk n Programs.none); ("cpu", mk n cpu) ]) sizes)
      (Programs.service_images ~seed:cfg.seed)
  in
  let fuzz_progs =
    List.map
      (fun p -> ("fuzz", p))
      (Programs.fuzz_corpus ~seed:cfg.seed ~first:1001 ~count:(if cfg.smoke then 8 else 64))
  in
  (* Zipf ranks follow a fixed shuffle of the request set, the same for
     every seed, so every run sees the same popularity per program *)
  let progs = Array.of_list (image_progs @ fuzz_progs) in
  Util.shuffle (Random.State.make [| 0x5eed |]) progs;
  (* the unscheduled program is the reference of both variants *)
  let references, reference_ms =
    Util.time_ms (fun () ->
        let memo = Hashtbl.create 64 in
        Array.map
          (fun (_, (p : Programs.program)) ->
            let key = (p.name, p.params) in
            match Hashtbl.find_opt memo key with
            | Some r -> r
            | None ->
                let r = Trace.with_span "interp.reference" (fun () -> Programs.reference p) in
                Hashtbl.replace memo key r;
                r)
          progs)
  in
  let stream = zipf_stream ~seed:cfg.seed ~n:(Array.length progs) ~len:(1 lsl 17) in
  (* submit time of the request that triggered each compile, for the queue
     wait the worker's before_compile hook sees *)
  let submitted = Hashtbl.create 256 and sub_lock = Mutex.create () in
  let queue_waits = ref [] in
  let before_compile (req : S.request) =
    let now = Util.now_ms () in
    Mutex.protect sub_lock (fun () ->
        match Hashtbl.find_opt submitted req.S.rq_name with
        | Some (t0, rid) ->
            Hashtbl.remove submitted req.S.rq_name;
            queue_waits := (now -. t0) :: !queue_waits;
            Trace.record ~rid "service.queue_wait" t0 now
        | None -> ())
  in
  (* set-up: the client side lowers every request, then a server starts *)
  let setup () =
    let items =
      Array.mapi
        (fun i (variant, (p : Programs.program)) ->
          let fn = Programs.scheduled p in
          let name =
            Printf.sprintf "%s-%s-%s" p.name variant
              (String.concat "x" (List.map (fun (_, v) -> string_of_int v) p.params))
          in
          let req =
            Trace.with_tracer "pipeline.lower" (fun tracer ->
                P.lower_for_build ?tracer ~knobs fn (fun lowered ->
                    { S.rq_name = name;
                      rq_stmt = lowered.Tiramisu_core.Lower.ast;
                      rq_knobs = knobs;
                      rq_params = p.params;
                      rq_extents = P.extents_of_fn fn ~params:p.params;
                      rq_deadline_s = None }))
          in
          { req; prog = p; reference = references.(i) })
        progs
    in
    let server =
      Trace.with_span "service.start" (fun () ->
          S.create ~workers:1 ~mem_cap:32 ~before_compile ~root ())
    in
    (items, server)
  in
  let next = Atomic.make 0 and tallies = ref [] and stats = ref [] in
  let wall_ms = ref 0.0 in
  (* Every [probe_every_s] both clients park between requests and the host
     probe runs alone: with no request in flight the server's worker is
     idle too, so the probe sees the host, not this workload. *)
  let gate = Mutex.create () and gate_cv = Condition.create () in
  let pausing = ref false and parked = ref 0 and live = ref 0 in
  let park () =
    Mutex.protect gate (fun () ->
        if !pausing then begin
          incr parked;
          Condition.broadcast gate_cv;
          while !pausing do Condition.wait gate_cv gate done;
          decr parked
        end)
  in
  let client items server until () =
    let c = { attempted = 0; failed = 0; latency = []; instantiate = []; by_source = [] } in
    let running () = park (); Util.now_ms () < until in
    while running () do
      let i = Atomic.fetch_and_add next 1 in
      let it = items.(stream.(i mod Array.length stream)) in
      let rid = i + 1 in
      c.attempted <- c.attempted + 1;
      let t0 = Util.now_ms () in
      Mutex.protect sub_lock (fun () ->
          if not (Hashtbl.mem submitted it.req.S.rq_name) then
            Hashtbl.replace submitted it.req.S.rq_name (t0, rid));
      (match Trace.with_span ~rid "service.submit" (fun () -> S.submit server it.req) with
       | S.Done rs -> (
           c.latency <- (Util.now_ms () -. t0) :: c.latency;
           c.by_source <- (rs.S.rs_source, rs.S.rs_ms) :: c.by_source;
           try
             let exec, ms =
               Util.time_ms (fun () ->
                   Trace.with_span ~rid "service.instantiate" (fun () ->
                       S.instantiate it.req rs ~inputs:it.prog.inputs))
             in
             c.instantiate <- ms :: c.instantiate;
             Trace.with_span ~rid "exec.run" (fun () -> B.Exec.run exec);
             if not (Programs.matches it.reference (B.Exec.buffer exec)) then
               c.failed <- c.failed + 1
           with e ->
             Printf.eprintf "service-zipf: %s: %s\n%!" it.req.S.rq_name (Printexc.to_string e);
             c.failed <- c.failed + 1)
       | S.Rejected | S.Failed _ -> c.failed <- c.failed + 1);
      Thread.yield ()
    done;
    Mutex.protect gate (fun () ->
        decr live;
        tallies := c :: !tallies;
        Condition.broadcast gate_cv)
  in
  let measure ~epoch:_ ~until (items, server) =
    let t0 = Util.now_ms () in
    live := clients;
    let threads = List.init clients (fun _ -> Thread.create (client items server until) ()) in
    while Util.now_ms () < until do
      Thread.delay probe_every_s;
      Mutex.protect gate (fun () ->
          pausing := true;
          while !parked < !live do Condition.wait gate_cv gate done);
      Metrics.probe ();
      Mutex.protect gate (fun () ->
          pausing := false;
          Condition.broadcast gate_cv)
    done;
    List.iter Thread.join threads;
    wall_ms := !wall_ms +. (Util.now_ms () -. t0)
  in
  let teardown (_, server) =
    Trace.with_span "service.stop" (fun () -> S.shutdown server);
    stats := S.stats server :: !stats
  in
  let log = Metrics.run_epochs cfg ~setup ~measure ~teardown in
  let store_bytes = Util.du root in
  Util.rm_rf root;
  let cs = !tallies in
  let all f = List.concat_map f cs in
  let total f = List.fold_left (fun a (s : S.stats) -> a + f s) 0 !stats in
  let attempted = List.fold_left (fun a c -> a + c.attempted) 0 cs in
  let failed = List.fold_left (fun a c -> a + c.failed) 0 cs in
  let latency = all (fun c -> c.latency) in
  let source src =
    List.filter_map (fun (s, ms) -> if s = src then Some ms else None) (all (fun c -> c.by_source))
  in
  let rps = float_of_int (attempted - failed) /. (!wall_ms /. 1000.0) in
  let count name f = (name, float_of_int (total f)) in
  { Metrics.attempted;
    failed;
    setup_s = log.setup_s;
    probe_ms = log.probe_ms;
    latency_ms = Util.sum latency /. float_of_int (max 1 (List.length latency));
    ops_per_s = rps;
    rows = [ ("svc_latency_ms", Util.timing latency) ];
    detail =
      [ ("svc_p50_ms", Util.median latency);
        ("svc_p99_ms", Util.percentile latency 0.99);
        ("reference_s", reference_ms /. 1000.0) ];
    layer =
      Metrics.pass_layer () @ Metrics.cache_layer cache0
      @ [ ("service.queue_wait_ms_p50", Util.median !queue_waits);
          ("service.queue_wait_ms_p99", Util.percentile !queue_waits 0.99);
          ("service.compile_ms_p50", Util.median (source `Compiled));
          ("service.disk_load_ms_p50", Util.median (source `Disk));
          ("service.mem_ms_p50", Util.median (source `Mem));
          ("service.instantiate_ms_p50", Util.median (all (fun c -> c.instantiate)));
          count "service.compiles" (fun s -> s.S.compiles);
          count "service.mem_hits" (fun s -> s.S.mem_hits);
          count "service.disk_hits" (fun s -> s.S.disk_hits);
          count "service.dedup_waits" (fun s -> s.S.dedup_waits);
          count "service.rejected" (fun s -> s.S.rejected);
          count "service.quarantined" (fun s -> s.S.quarantined);
          ("service.hit_ratio",
           float_of_int (total (fun s -> s.S.mem_hits + s.S.disk_hits))
           /. float_of_int (max 1 (total (fun s -> s.S.requests))));
          ("store.bytes", float_of_int store_bytes) ] }
