(* Compile-service benchmark: a closed-loop harness driving the concurrent
   compile server (lib/service) and the repaired pipeline cache, writing
   BENCH_service.json.

   For each client count in {1, 8, 64} the harness runs three phases
   against a worker pool of 4:

   - cold: every client submits every one of K unique kernel configs once
     against a fresh store — the in-flight dedup and memory tier must
     collapse C*K requests to exactly K pipeline compiles;
   - warm_mem: the same requests against the same (live) server — all
     memory-tier hits, zero compiles;
   - warm_disk: the same requests against a *new* server on the same
     store root — the persistent tier feeds the first request per key,
     the memory tier the rest, still zero compiles.

   Then two focused scenarios: 64 clients hammering ONE kernel on a cold
   server (the dedup headline: exactly 1 compile), and an insert storm
   through the pipeline cache at a lowered capacity (the eviction
   headline: one-at-a-time LRU eviction, never a wipe, the hot entry
   survives).

   Every phase records requests/compiles/tier hits and p50/p99 latency;
   the gate asserts the dedup and eviction invariants and that warm p50
   beats cold p50.  Smoke mode (`make service-smoke`) runs the identical
   harness and additionally pins the JSON schema against
   bench/service.golden (digits collapse to N; regenerate with
   TIRAMISU_UPDATE_GOLDEN=1). *)

module L = Tiramisu_codegen.Loop_ir
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module S = Tiramisu_service.Service

let golden_path = "bench/service.golden"
let json_path = "BENCH_service.json"
let workers = 4
let unique_kernels = 6
let client_counts = [ 1; 8; 64 ]

(* ---------- workload ---------- *)

(* K distinct kernel configs: same shape, different constants, so each
   hashes (and compiles) independently while compile cost stays uniform. *)
let bench_stmt c =
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int 255; tag = L.Seq;
      body =
        L.For
          { var = "j"; lo = L.Int 0; hi = L.Int 15; tag = L.Seq;
            body =
              L.Store
                ( "out",
                  [ L.Bin (L.Add, L.Bin (L.Mul, L.Var "i", L.Int 16),
                           L.Var "j") ],
                  L.Bin
                    ( L.Add,
                      L.Bin (L.Mul, L.Var "i", L.Int c),
                      L.Bin (L.Mul, L.Var "j", L.Int (c + 1)) ) ) } }

let bench_req c =
  { S.rq_name = Printf.sprintf "svc%d" c;
    rq_stmt = bench_stmt c;
    rq_knobs = { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () };
    rq_params = [];
    rq_extents = [ ("out", [| 4096 |], L.Host) ];
    rq_deadline_s = None }

(* ---------- harness plumbing ---------- *)

let fresh_root =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tiramisu_service_bench_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
    end
    else try Sys.remove path with Sys_error _ -> ()

type phase_row = {
  ph_name : string;
  ph_clients : int;
  ph_requests : int;
  ph_compiles : int;
  ph_mem_hits : int;
  ph_disk_hits : int;
  ph_dedup_waits : int;
  ph_p50 : float;
  ph_p99 : float;
  ph_rps : float;
}

(* Run one closed-loop phase: [clients] threads, each submitting every
   request in [reqs] once, back to back.  Returns the phase row (service
   counters diffed across the phase) and the p50 for the summary. *)
let run_phase sv ~name ~clients reqs =
  let before = S.stats sv in
  let lat = Array.make clients [] in
  let t0 = B.Clock.now_ms () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            List.iter
              (fun req ->
                let s0 = B.Clock.now_ms () in
                (match S.submit sv req with
                | S.Done _ -> ()
                | S.Rejected -> failwith (name ^ ": unexpected rejection")
                | S.Failed m -> failwith (name ^ ": " ^ m));
                lat.(c) <- (B.Clock.now_ms () -. s0) :: lat.(c))
              reqs)
          ())
  in
  List.iter Thread.join threads;
  let wall_ms = B.Clock.now_ms () -. t0 in
  let after = S.stats sv in
  let samples = Array.of_list (List.concat (Array.to_list lat)) in
  let requests = after.S.requests - before.S.requests in
  { ph_name = name;
    ph_clients = clients;
    ph_requests = requests;
    ph_compiles = after.S.compiles - before.S.compiles;
    ph_mem_hits = after.S.mem_hits - before.S.mem_hits;
    ph_disk_hits = after.S.disk_hits - before.S.disk_hits;
    ph_dedup_waits = after.S.dedup_waits - before.S.dedup_waits;
    ph_p50 = Common.percentile samples 0.50;
    ph_p99 = Common.percentile samples 0.99;
    ph_rps = float_of_int requests /. (wall_ms /. 1000.0) }

let require msg ok = if not ok then failwith ("service bench gate: " ^ msg)

(* ---------- scenarios ---------- *)

let tier_phases clients =
  let reqs = List.init unique_kernels bench_req in
  let root = fresh_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let sv = S.create ~workers ~root () in
  let cold = run_phase sv ~name:"cold" ~clients reqs in
  let warm_mem = run_phase sv ~name:"warm_mem" ~clients reqs in
  S.shutdown sv;
  let sv2 = S.create ~workers ~root () in
  let warm_disk = run_phase sv2 ~name:"warm_disk" ~clients reqs in
  S.shutdown sv2;
  require
    (Printf.sprintf "cold@%d: %d compiles for %d unique kernels" clients
       cold.ph_compiles unique_kernels)
    (cold.ph_compiles = unique_kernels);
  require "warm_mem recompiled" (warm_mem.ph_compiles = 0);
  require "warm_mem missed the memory tier"
    (warm_mem.ph_mem_hits = warm_mem.ph_requests);
  require "warm_disk recompiled" (warm_disk.ph_compiles = 0);
  require "warm_disk never touched the store" (warm_disk.ph_disk_hits >= 1);
  [ cold; warm_mem; warm_disk ]

let dedup_scenario () =
  let root = fresh_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let sv = S.create ~workers ~root () in
  let row = run_phase sv ~name:"dedup" ~clients:64 [ bench_req 1000 ] in
  S.shutdown sv;
  require
    (Printf.sprintf "dedup: %d compiles for 64 clients of one kernel"
       row.ph_compiles)
    (row.ph_compiles = 1);
  require "dedup accounting"
    (row.ph_dedup_waits + row.ph_mem_hits = row.ph_requests - 1);
  row

type storm_row = {
  st_cap : int;
  st_inserts : int;
  st_evictions : int;
  st_resets : int;
  st_max_entries : int;
  st_hot_survived : bool;
}

(* The eviction half of the bugfix, measured end to end: an insert storm
   of 4x the capacity through Pipeline.build_stmt.  The old code wiped
   the whole table at the cap (resets would grow, entries would crater);
   the fix evicts exactly one LRU victim per insert. *)
let eviction_storm () =
  P.clear_cache ();
  let base = P.cache_stats () in
  let old_cap = P.cache_cap () in
  P.set_cache_cap 16;
  Fun.protect ~finally:(fun () -> P.set_cache_cap old_cap) @@ fun () ->
  let build c =
    P.build_stmt
      ~knobs:{ P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () }
      ~params:[]
      ~extents:[ ("out", [| 4096 |], L.Host) ]
      ~inputs:[] (bench_stmt c)
  in
  ignore (build 0);
  let max_entries = ref 0 in
  let inserts = 64 in
  for c = 1 to inserts - 1 do
    ignore (build c);
    ignore (build 0);  (* keep entry 0 hot *)
    let s = P.cache_stats () in
    if s.P.entries > !max_entries then max_entries := s.P.entries;
    require "storm: cache collapsed to zero entries" (s.P.entries > 0)
  done;
  let hot = (build 0).P.cache = P.Hit in
  let s = P.cache_stats () in
  let row =
    { st_cap = 16;
      st_inserts = inserts;
      st_evictions = s.P.evictions - base.P.evictions;
      st_resets = s.P.resets - base.P.resets;
      st_max_entries = !max_entries;
      st_hot_survived = hot }
  in
  require "storm: entries exceeded the cap" (row.st_max_entries <= 16);
  require "storm: no incremental evictions" (row.st_evictions >= inserts - 16);
  require "storm: cache was wiped wholesale" (row.st_resets = 0);
  require "storm: hot entry was evicted" row.st_hot_survived;
  row

(* ---------- JSON + golden ---------- *)

let emit buf phases dedup storm ~warm_over_cold =
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"phases\": [\n";
  let n = List.length phases in
  List.iteri
    (fun i p ->
      bpf
        "    { \"phase\": \"%s\", \"clients\": %d, \"requests\": %d, \
         \"compiles\": %d, \"mem_hits\": %d, \"disk_hits\": %d, \
         \"dedup_waits\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f, \
         \"rps\": %.1f }%s\n"
        p.ph_name p.ph_clients p.ph_requests p.ph_compiles p.ph_mem_hits
        p.ph_disk_hits p.ph_dedup_waits p.ph_p50 p.ph_p99 p.ph_rps
        (if i = n - 1 then "" else ","))
    phases;
  bpf "  ],\n";
  bpf
    "  \"dedup\": { \"clients\": %d, \"unique_kernels\": 1, \"requests\": \
     %d, \"compiles\": %d, \"dedup_waits\": %d, \"mem_hits\": %d },\n"
    dedup.ph_clients dedup.ph_requests dedup.ph_compiles dedup.ph_dedup_waits
    dedup.ph_mem_hits;
  bpf
    "  \"eviction_storm\": { \"cap\": %d, \"inserts\": %d, \"evictions\": \
     %d, \"resets\": %d, \"max_entries\": %d, \"hot_survived\": %b },\n"
    storm.st_cap storm.st_inserts storm.st_evictions storm.st_resets
    storm.st_max_entries storm.st_hot_survived;
  bpf "  \"summary\": { \"workers\": %d, \"unique_kernels\": %d, \
       \"warm_over_cold\": %.2f }\n}\n"
    workers unique_kernels warm_over_cold

(* The one boolean, hot_survived, collapses to B. *)
let collapse_bool line =
  List.fold_left
    (fun l w -> String.concat "B" (Astring.String.cuts ~sep:w l))
    line [ "true"; "false" ]

(* ---------- driver ---------- *)

let run ?(smoke = false) () =
  Common.pf "\n== compile service (%d workers, %d unique kernels) ==\n"
    workers unique_kernels;
  let phases = List.concat_map tier_phases client_counts in
  List.iter
    (fun p ->
      Common.pf
        "  %-9s c=%-3d req=%-4d compile=%-3d mem=%-4d disk=%-3d wait=%-4d \
         p50=%.3fms p99=%.3fms %.0f req/s\n"
        p.ph_name p.ph_clients p.ph_requests p.ph_compiles p.ph_mem_hits
        p.ph_disk_hits p.ph_dedup_waits p.ph_p50 p.ph_p99 p.ph_rps)
    phases;
  let dedup = dedup_scenario () in
  Common.pf "  dedup: 64 clients, 1 kernel -> %d compile, %d shared\n"
    dedup.ph_compiles
    (dedup.ph_dedup_waits + dedup.ph_mem_hits);
  let storm = eviction_storm () in
  Common.pf
    "  eviction storm: %d inserts at cap %d -> %d evictions, %d resets, \
     hot %s\n"
    storm.st_inserts storm.st_cap storm.st_evictions storm.st_resets
    (if storm.st_hot_survived then "survived" else "LOST");
  (* warm-over-cold: median cold latency vs median warm-memory latency,
     averaged across client counts *)
  let med name =
    let xs =
      List.filter_map
        (fun p -> if p.ph_name = name then Some p.ph_p50 else None)
        phases
    in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let warm_over_cold = med "cold" /. max 1e-9 (med "warm_mem") in
  require
    (Printf.sprintf "warm is not faster than cold (ratio %.2f)"
       warm_over_cold)
    (warm_over_cold > 1.0);
  Common.pf "  warm-over-cold p50 speedup: %.1fx\n" warm_over_cold;
  let buf = Buffer.create 4096 in
  emit buf phases dedup storm ~warm_over_cold;
  let json = Buffer.contents buf in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Common.pf "  wrote %s\n" json_path;
  if smoke then begin
    Common.golden_gate ~rewrite:collapse_bool ~tag:"service" ~golden_path json;
    Common.pf "service smoke gate: ok\n"
  end
