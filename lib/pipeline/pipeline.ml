(** Unified compilation pipeline: a typed pass manager owning the whole
    path from [Ir.fn] to a runnable artifact.

    The paper's toolchain (§V) is a fixed sequence of lowering stages
    (Layer IV → ISL AST → Halide IR → LLVM); this module makes our
    reproduction's equivalent sequence — widen-parallel, expand/lower,
    legalize, alloc-scope, narrow, simplify, parallel-plan, backend
    compile — a first-class object, and is the only module that knows its
    order: users and the fuzzer go through [build], the compile service
    through its two halves [prepare_and_plan] and [compile_stage].
    Every stage runs as a named pass with per-pass wall-clock timing,
    before/after {!Tiramisu_codegen.Loop_ir.loop_meta} deltas, and an
    optional differential-verify hook (the reference interpreter runs on
    the IR before and after a statement-level pass on a probe input, and
    the outputs must match bitwise).  A run's trace serializes to JSON.

    On top of the pass manager sits a compile cache keyed on
    [(structural hash of the statement, params, knobs, extents)]: building
    an identical configuration twice returns the previously compiled
    executor with its buffers restored to their initial contents — making
    repeated compiles in benchmark reps, fuzz replay, and autoscheduler
    candidate search near-free. *)

module L = Tiramisu_codegen.Loop_ir
module Passes = Tiramisu_codegen.Passes
module Plan = Tiramisu_codegen.Parallel_plan
module Tape_gen = Tiramisu_codegen.Tape_gen
module Lower = Tiramisu_core.Lower
module Ir = Tiramisu_core.Ir
module B = Tiramisu_backends
module Deps = Tiramisu_deps.Deps

(* ---------- typed errors ---------- *)

type error = {
  err_stage : string;    (** name of the pass that rejected the program *)
  err_context : string;  (** what the pipeline was doing (function name…) *)
  err_msg : string;
}

exception Error of error

let error_to_string e =
  Printf.sprintf "pipeline pass %S rejected %s: %s" e.err_stage
    e.err_context e.err_msg

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_to_string e)
    | _ -> None)

(* Wrap only the exception families the stages are specified to raise on
   unsupported programs.  Everything else — notably the fuzzer's
   [Limits.Timeout] — must propagate untouched.

   Every pass boundary is also a cooperative cancellation point: when the
   caller (the compile service) set a domain-local deadline via
   [Limits.with_deadline], an expired budget raises [Limits.Timeout] here
   instead of letting a slow pass run to completion.  With no deadline set
   (every pre-service caller) the check is a few loads and never fires. *)
let guard ~stage ~context f x =
  Tiramisu_support.Limits.check_deadline ();
  try f x with
  | Failure m -> raise (Error { err_stage = stage; err_context = context; err_msg = m })
  | Lower.Unsupported m ->
      raise (Error { err_stage = stage; err_context = context;
                     err_msg = "unsupported: " ^ m })
  | Invalid_argument m ->
      raise (Error { err_stage = stage; err_context = context; err_msg = m })

(* ---------- tracing ---------- *)

type verdict =
  | Verified            (** probe outputs bitwise-equal before/after *)
  | Mismatch of string  (** semantics changed — the pass is buggy *)
  | Skipped             (** no probe, pass not verifiable, or probe N/A *)

type pass_trace = {
  p_name : string;
  p_ms : float;
  p_before : L.loop_meta option;  (** [None] for non-statement passes *)
  p_after : L.loop_meta option;
  p_verify : verdict;
  p_note : string;  (** pass-specific summary (planner decisions…), or "" *)
}

type cache_status = Hit | Miss | Bypass

type trace = {
  t_fn : string;
  t_cache : cache_status;
  t_target : string;  (** resolved {!Tiramisu_backends.Target.to_key_string} *)
  t_total_ms : float;
  t_passes : pass_trace list;  (** in execution order *)
}

(** Probe input for differential verification: enough to run the
    interpreter on a statement in isolation. *)
type probe = {
  probe_params : (string * int) list;
  probe_extents : (string * int array * L.mem_space) list;
  probe_fills : (string * (int array -> float)) list;
  probe_outputs : string list;  (** buffers compared bitwise *)
}

type tracer = {
  tr_fn : string;
  tr_start : float;
  mutable tr_cache : cache_status;
  mutable tr_target : string;  (* resolved target key, "" until known *)
  mutable tr_passes : pass_trace list;  (* reverse execution order *)
  tr_probe : probe option;
  tr_on_after : (string -> L.stmt -> unit) option;
}

let make_tracer ?probe ?on_after ?(name = "<stmt>") () =
  { tr_fn = name; tr_start = B.Clock.now_ms (); tr_cache = Bypass;
    tr_target = ""; tr_passes = []; tr_probe = probe; tr_on_after = on_after }

let trace_of tr =
  { t_fn = tr.tr_fn; t_cache = tr.tr_cache; t_target = tr.tr_target;
    t_total_ms = B.Clock.now_ms () -. tr.tr_start;
    t_passes = List.rev tr.tr_passes }

(* ---------- differential verification ---------- *)

let probe_run (p : probe) (s : L.stmt) =
  let interp =
    B.Interp.reference ~params:p.probe_params ~extents:p.probe_extents
      ~inputs:p.probe_fills s
  in
  List.map (B.Interp.buffer interp) p.probe_outputs

(* Interp the probe on [before] and [after]; outputs must match bitwise.
   If the *reference* run on [before] fails (construct outside the probe's
   reach), the probe can't judge the pass: Skipped.  If only the [after]
   run fails, the pass broke the program: Mismatch.  A [Limits.Timeout]
   judges nothing and propagates, like everywhere else in the pipeline. *)
let differential_verify p ~before ~after =
  match probe_run p before with
  | exception (Tiramisu_support.Limits.Timeout as t) -> raise t
  | exception e ->
      if Sys.getenv_opt "TIRAMISU_DEBUG_PROBE" <> None then
        Printf.eprintf "probe reference run failed: %s\n"
          (Printexc.to_string e);
      Skipped
  | ref_out -> (
      match probe_run p after with
      | exception (Tiramisu_support.Limits.Timeout as t) -> raise t
      | exception e ->
          Mismatch ("transformed program failed: " ^ Printexc.to_string e)
      | out -> (
          match
            List.find_opt
              (fun (r, o) -> not (B.Buffers.bits_equal r o))
              (List.combine ref_out out)
          with
          | None -> Verified
          | Some (r, _) ->
              Mismatch ("buffer " ^ r.B.Buffers.name ^ " differs bitwise")))

(* ---------- the pass runner ---------- *)

let record tr pt =
  tr.tr_passes <- pt :: tr.tr_passes

(** Run one statement→statement pass: time it, wrap its errors, diff the
    loop metadata, optionally verify semantics on the probe, and fire the
    dump hook.  A verification mismatch is itself a pipeline {!Error} on
    the failing pass. *)
let stmt_pass ?tracer ~name ~context ?(verifiable = false)
    ?(note = fun () -> "") f (s : L.stmt) =
  match tracer with
  | None -> guard ~stage:name ~context f s
  | Some tr ->
      let before = L.analyze_loops s in
      let t0 = B.Clock.now_ms () in
      let s' = guard ~stage:name ~context f s in
      let ms = B.Clock.now_ms () -. t0 in
      let verify =
        match tr.tr_probe with
        | Some p when verifiable -> differential_verify p ~before:s ~after:s'
        | _ -> Skipped
      in
      record tr
        { p_name = name; p_ms = ms; p_before = Some before;
          p_after = Some (L.analyze_loops s'); p_verify = verify;
          p_note = note () };
      (match tr.tr_on_after with Some h -> h name s' | None -> ());
      (match verify with
       | Mismatch m ->
           raise (Error { err_stage = name; err_context = context;
                          err_msg = "differential verify failed: " ^ m })
       | Verified | Skipped -> ());
      s'

(* A pass whose input is not a statement (the Layer-IV expansion); only
   the output metadata is recorded. *)
let front_pass ?tracer ~name ~context f x =
  match tracer with
  | None -> guard ~stage:name ~context f x
  | Some tr ->
      let t0 = B.Clock.now_ms () in
      let s = guard ~stage:name ~context f x in
      let ms = B.Clock.now_ms () -. t0 in
      record tr
        { p_name = name; p_ms = ms; p_before = None;
          p_after = Some (L.analyze_loops s); p_verify = Skipped;
          p_note = "" };
      (match tr.tr_on_after with Some h -> h name s | None -> ());
      s

(* ---------- the staged path ---------- *)

type knobs = {
  target : B.Target.t;
      (** which backend this compilation is for (see
          {!Tiramisu_backends.Target}): the CPU strategy, the GPU
          simulator's grid config, or the distributed rank count.
          The target's capability flag gates the parallel planner
          ([pool_schedulable]), and its key string participates in the compile-cache and service-store
          keys. *)
  plan : [ `Auto | `Force ];
      (** parallel-planning pass, the one place that decides which pool
          loops fork: [`Auto] plans with the pool's effective parallelism
          and {!Plan.min_work}, [`Force] keeps every parallel loop and
          fuses the maximal rectangular prefix unconditionally
          (machine-independent, for differential testing).  Runs whenever
          the target is pool-schedulable. *)
  tape : bool;
      (** flat-tape backend: rectangular nests compile to register-file
          bytecode (see {!Tiramisu_backends.Tape}), with the closure path
          as the checked fallback.  Also steers the parallel planner away
          from coalescing nests the tape would claim.  Applies on every
          target. *)
  lanes : int;
      (** vector lane width the tape binds claimed nests with (see
          {!Tiramisu_backends.Tape.bind}); [<= 1] forces the scalar tape.
          Participates in the compile-cache key: the vector and scalar
          tapes are different generated code. *)
}

let default_knobs =
  { target = B.Target.default; plan = `Auto; tape = true; lanes = 8 }

(** Layer IV → loop IR, as three traced passes: [lower] (scheduled-domain
    AST generation), [legalize] (vector/unroll legality rewrites, the one
    front-end pass that is semantics-preserving on its own and therefore
    verifiable), and [alloc-scope] ([allocate_at] placement). *)
let lower ?tracer ?(keep_claimable = false) (fn : Ir.fn) : Lower.t =
  let context = "function " ^ fn.Ir.fn_name in
  let ast = front_pass ?tracer ~name:"lower" ~context Lower.generate_ast fn in
  let ast =
    stmt_pass ?tracer ~name:"legalize" ~context ~verifiable:true
      (Passes.legalize ~keep_claimable) ast
  in
  let ast =
    stmt_pass ?tracer ~name:"alloc-scope" ~context (Lower.scope_allocs fn) ast
  in
  { Lower.ast; fn }

(** The statement-level optimization passes: interval narrowing under the
    concrete parameter values, then unroll expansion + simplification
    (which deletes the loops narrowing proved empty, e.g. vector epilogues
    of exact tiles).  Both are verifiable. *)
let prepare ?tracer ~params (s : L.stmt) =
  let context = "statement" in
  let s =
    stmt_pass ?tracer ~name:"narrow" ~context ~verifiable:true
      (Passes.narrow ~params) s
  in
  stmt_pass ?tracer ~name:"simplify" ~context ~verifiable:true
    (fun s -> L.simplify_stmt (Passes.unroll_expand s))
    s

(** The parallel-planning pass (see {!Tiramisu_codegen.Parallel_plan}):
    runs after [prepare] so the bounds the trip-count estimator sees are
    already narrowed to concrete integers, and only under the [`Pool]
    strategy.  Returns the rewritten statement and the planner's report. *)
let plan_pass ?tracer ~knobs ~params (s : L.stmt) =
  if not (B.Target.pool_schedulable knobs.target) then (s, Plan.empty_report)
  else begin
    let report = ref Plan.empty_report in
    let s =
      stmt_pass ?tracer ~name:"parallel-plan" ~context:"statement"
        ~verifiable:true
        ~note:(fun () -> Plan.report_str !report)
        (fun s ->
          let s', r =
            Plan.plan
              ~workers:(B.Pool.effective_parallelism ())
              ~params
              ~force:(knobs.plan = `Force)
              ~tape:knobs.tape
              s
          in
          report := r;
          s')
        s
    in
    (s, !report)
  end

(** The whole statement-level rewrite sequence — [prepare] then the
    parallel-planning pass — as one function: what the compile service
    persists in its on-disk artifact tier is exactly this function's
    result (a prepared+planned statement plus the planner's report), so
    a warm service load skips every pass and goes straight to
    {!compile_stage}. *)
let prepare_and_plan ?tracer ?(knobs = default_knobs) ~params (s : L.stmt) =
  let s = prepare ?tracer ~params s in
  plan_pass ?tracer ~knobs ~params s

(** Compile an already prepared+planned statement (the backend stage
    alone, traced).  Buffers are captured by reference, exactly as with
    [Exec.compile]. *)
let compile_stage ?tracer ?(knobs = default_knobs) ~params ~buffers
    (s : L.stmt) =
  (* The tape claim itself happens inside [Exec.compile]; this
     named identity pass exists for observability — its note lists every
     nest the tape backend will claim ([--trace-passes]), and its dump
     hook ([--dump-after=tape-compile]) is where the disassembler binds.
     With the tape off the pass is skipped entirely. *)
  let s =
    if not knobs.tape then s
    else
      stmt_pass ?tracer ~name:"tape-compile" ~context:"statement"
        ~note:(fun () ->
          match Tape_gen.scan s with
          | [] -> "no nest claimed"
          | ps -> String.concat "; " (List.map Tape_gen.summary ps))
        (fun s -> s) s
  in
  let do_compile s =
    B.Exec.compile ~target:knobs.target ~tape:knobs.tape
      ~lanes:knobs.lanes ~params ~buffers s
  in
  (match tracer with
  | Some tr -> tr.tr_target <- B.Target.to_key_string knobs.target
  | None -> ());
  match tracer with
  | None -> guard ~stage:"compile" ~context:"statement" do_compile s
  | Some tr ->
      let meta = L.analyze_loops s in
      let t0 = B.Clock.now_ms () in
      let exec = guard ~stage:"compile" ~context:"statement" do_compile s in
      let ms = B.Clock.now_ms () -. t0 in
      record tr
        { p_name = "compile"; p_ms = ms; p_before = Some meta;
          p_after = Some meta; p_verify = Skipped; p_note = "" };
      exec

(* ---------- compile cache ---------- *)

type artifact = {
  exec : B.Exec.compiled;
  buffers : B.Buffers.t list;
      (** leased to this artifact: exclusively owned by the caller's domain
          until {!field-release} is called (see the lease model below) *)
  cache : cache_status;
  key_hash : int;              (** structural hash of the source statement *)
  plan_report : Plan.report;   (** parallel-planner decisions (empty when
                                   the pass did not run) *)
  release : unit -> unit;
      (** return the leased executor+buffers to the cache so another domain
          can check them out.  Idempotent; never required for correctness —
          an unreleased lease stays pinned to its domain (sequential reuse
          by that domain keeps hitting it) and other domains get their own
          clone — but releasing keeps the lease pool minimal. *)
}

(* The key is pure data (no closures): structural equality and the
   polymorphic hash are both well-defined on it.  The structural hash of
   the statement stands in for the statement itself; collisions are
   disambiguated by comparing the stored statement structurally. *)
type ckey = {
  k_hash : int;
  k_params : (string * int) list;  (* sorted by name *)
  k_target : string;
    (* {!B.Target.to_key_string}: artifacts for different execution
       targets never alias — the same program compiled for [Cpu] and
       [Gpu_sim] is two cache entries and two store artifacts *)
  k_plan : [ `Auto | `Force ];
  k_tape : bool;
  k_lanes : int;
    (* vector lane width claimed nests are bound with: the vector and
       scalar tapes are different generated code, so artifacts built at
       different widths never alias *)
  k_tapegen : int;
    (* {!Tape_gen.version}: a cached artifact compiled by an older tape
       generator must miss, never be served — the same determinism class
       as the pool-environment fields below *)
  k_pool : int * int;
    (* (num_workers, effective_parallelism) sampled at build
       time: planner decisions and the compiled schedule depend on the
       pool environment, so a [set_num_workers] or TIRAMISU_* change
       between builds must miss rather than replay a stale plan *)
  k_extents : (string * int array * L.mem_space) list;
}

(* A lease is one (compiled executor, buffer set) pair.  The executor
   captures its buffers by reference at compile time, so the two are
   inseparable: handing out fresh buffers means handing out a fresh
   executor.  [l_owner] is the domain id currently holding the pair
   ([None] = checked in):

   - the same domain re-hitting an entry reuses its own lease — the
     pre-lease semantics, and the pure lookup+blit fast path the warm-hit
     benchmark gate measures;
   - a hit from a *different* domain while every lease is held checks out
     nothing shared: it compiles a clone pair from the stored prepared
     statement (no pass re-runs, just closure compilation) and registers
     it as a new lease.  Two concurrent users of one entry can therefore
     never alias mutable buffers. *)
type lease = {
  l_exec : B.Exec.compiled;
  l_buffers : B.Buffers.t list;
  mutable l_owner : int option;  (* domain id holding the pair *)
}

type centry = {
  ce_stmt : L.stmt;  (* collision guard: must equal the requested stmt *)
  ce_prepared : L.stmt;  (* post prepare+plan: clones skip every pass *)
  ce_knobs : knobs;
  ce_params : (string * int) list;
  ce_extents : (string * int array * L.mem_space) list;
  mutable ce_leases : lease list;
  ce_snapshot : float array list;
    (* initial buffer contents, one per extent: every lease's buffers are
       instantiated from [ce_extents], so they line up index by index *)
  ce_fills : (string * (int array -> float)) list;
  ce_plan : Plan.report;
  mutable ce_gen : int;  (* LRU generation: bumped on every hit/insert *)
}

let cache : (ckey, centry list) Hashtbl.t = Hashtbl.create 64
let default_cache_cap = 512
let cache_cap_ref = ref default_cache_cap
let cache_entries = ref 0
let cache_hits = ref 0
let cache_misses = ref 0
let cache_evictions = ref 0
let cache_resets = ref 0
let cache_clones = ref 0
let cache_tick = ref 0

(* One lock for the table, the counters and the hash memo.  Everything it
   guards is O(entries) bookkeeping; compiles, pass runs and buffer
   restores all happen outside it. *)
let cache_mutex = Mutex.create ()
let locked f = Mutex.protect cache_mutex f
let self_id () = (Domain.self () :> int)

let cache_cap () = !cache_cap_ref

(* with the mutex held: evict the least-recently-used entry, preferring
   entries with no lease checked out (an evicted busy lease stays valid
   for its holder — it just no longer belongs to the cache). *)
let evict_one_locked () =
  let is_free e = List.for_all (fun l -> l.l_owner = None) e.ce_leases in
  let best_free = ref None and best_any = ref None in
  let consider slot (c : ckey * centry) =
    match !slot with
    | None -> slot := Some c
    | Some (_, e') -> if (snd c).ce_gen < e'.ce_gen then slot := Some c
  in
  Hashtbl.iter
    (fun k es ->
      List.iter
        (fun e ->
          consider best_any (k, e);
          if is_free e then consider best_free (k, e))
        es)
    cache;
  match (match !best_free with Some _ as c -> c | None -> !best_any) with
  | None -> ()
  | Some (k, victim) ->
      let rest = List.filter (fun e -> e != victim) (Hashtbl.find cache k) in
      if rest = [] then Hashtbl.remove cache k
      else Hashtbl.replace cache k rest;
      decr cache_entries;
      incr cache_evictions

let set_cache_cap n =
  if n < 1 then invalid_arg "Pipeline.set_cache_cap";
  locked (fun () ->
      cache_cap_ref := n;
      while !cache_entries > n do
        evict_one_locked ()
      done)

(* Explicit full reset (tests, bench isolation).  The capacity-overflow
   path never comes here: reaching [cache_cap] evicts exactly one entry
   ({!evict_one_locked}), so warm state is shed incrementally, never
   destroyed wholesale. *)
let clear_cache () =
  locked (fun () ->
      Hashtbl.reset cache;
      cache_entries := 0;
      incr cache_resets)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** single-entry LRU evictions at capacity *)
  resets : int;     (** explicit {!clear_cache} calls — never incremented
                        by the eviction path *)
  clones : int;     (** hits served by compiling a fresh lease because every
                        existing one was held by another domain *)
}

let cache_stats () =
  locked (fun () ->
      { hits = !cache_hits; misses = !cache_misses;
        entries = !cache_entries; evictions = !cache_evictions;
        resets = !cache_resets; clones = !cache_clones })

(* Hashing is a full statement traversal; rebuilding the *same* statement
   value (benchmark reps, fuzz replay of one case, repeated autoscheduler
   probes) would pay it on every hit.  A tiny physical-equality memo keeps
   the hit path free of the traversal without affecting the hash's
   structural semantics. *)
let hash_memo : (L.stmt * int) list ref = ref []
let hash_memo_cap = 16

let structural_hash_memo s =
  match
    locked (fun () -> List.find_opt (fun (s', _) -> s' == s) !hash_memo)
  with
  | Some (_, h) -> h
  | None ->
      let h = L.structural_hash s in
      locked (fun () ->
          let kept =
            if List.length !hash_memo >= hash_memo_cap then
              List.filteri (fun i _ -> i < hash_memo_cap - 1) !hash_memo
            else !hash_memo
          in
          hash_memo := (s, h) :: kept);
      h

let make_key ~knobs ~params ~extents hash =
  { k_hash = hash;
    k_params = List.sort (fun (a, _) (b, _) -> compare a b) params;
    k_target = B.Target.to_key_string knobs.target;
    k_plan = knobs.plan;
    k_tape = knobs.tape; k_lanes = knobs.lanes;
    k_tapegen = Tape_gen.version;
    k_pool = (B.Pool.num_workers (), B.Pool.effective_parallelism ());
    k_extents = extents }

(* Buffer setup as a typed stage: an input naming no buffer is an
   [Error] on [stage] ("buffers" on a miss, "cache" on a hit). *)
let instantiate ~stage ~extents ~inputs =
  guard ~stage ~context:"buffer setup"
    (fun () -> B.Buffers.instantiate ~extents ~inputs) ()

(* Restore a lease's buffers to the initial state implied by [fills].
   When the fill closures are the very same functions the entry was built
   with (the common case: call sites pass top-level functions), blitting
   the snapshot back is both exact and allocation-free.  Otherwise zero
   everything and re-fill. *)
let restore entry lease fills =
  let same =
    List.length fills = List.length entry.ce_fills
    && List.for_all2
         (fun (n1, f1) (n2, f2) -> String.equal n1 n2 && f1 == f2)
         fills entry.ce_fills
  in
  if same then
    List.iter2
      (fun snap b -> Array.blit snap 0 b.B.Buffers.data 0 (Array.length snap))
      entry.ce_snapshot lease.l_buffers
  else begin
    List.iter
      (fun b ->
        Array.fill b.B.Buffers.data 0 (Array.length b.B.Buffers.data) 0.)
      lease.l_buffers;
    guard ~stage:"cache" ~context:"buffer setup"
      (B.Buffers.fill_inputs lease.l_buffers) fills
  end

let release_of lease () = locked (fun () -> lease.l_owner <- None)

(* bump the entry's LRU generation; with the mutex held *)
let touch_locked entry =
  incr cache_tick;
  entry.ce_gen <- !cache_tick

let artifact_of_lease entry lease ~hash ~status =
  { exec = lease.l_exec; buffers = lease.l_buffers; cache = status;
    key_hash = hash; plan_report = entry.ce_plan;
    release = release_of lease }

(** Serializable digest of a cache key — what the on-disk service tier is
    content-addressed by.  [ckey] is pure data (the structural hash stands
    in for the statement), so marshalling it is well-defined. *)
let key_digest (k : ckey) = Digest.to_hex (Digest.string (Marshal.to_string k []))

(** Compile a statement through the cache.  [extents] declares every
    buffer the program touches ([(name, dims, mem_space)]); [inputs] are
    fill functions applied before the snapshot is taken.  On a hit the
    caller's domain checks out an exclusive (executor, buffers) lease with
    the buffers restored to their initial contents — bit-identical to what
    a cold build would produce — and concurrent hits from other domains
    are served disjoint leases (see {!type-lease}).  At capacity the
    least-recently-used entry is evicted; the cache never resets
    wholesale on its own. *)
let build_stmt ?tracer ?(knobs = default_knobs) ~params ~extents ~inputs
    (s : L.stmt) : artifact =
  let t0 = B.Clock.now_ms () in
  let hash = structural_hash_memo s in
  (match tracer with
   | Some tr ->
       tr.tr_target <- B.Target.to_key_string knobs.target;
       record tr
         { p_name = "hash"; p_ms = B.Clock.now_ms () -. t0;
           p_before = None; p_after = None; p_verify = Skipped;
           p_note = "" }
   | None -> ());
  let key = make_key ~knobs ~params ~extents hash in
  let find_entry_locked () =
    match Hashtbl.find_opt cache key with
    | None -> None
    | Some bucket -> List.find_opt (fun e -> e.ce_stmt = s) bucket
  in
  (* claim: on a hit, either check out a free lease (or the one this very
     domain already holds — sequential reuse) or decide to clone. *)
  let claim =
    locked (fun () ->
        match find_entry_locked () with
        | None -> None
        | Some entry ->
            touch_locked entry;
            incr cache_hits;
            let self = self_id () in
            (match
               List.find_opt
                 (fun l -> l.l_owner = None || l.l_owner = Some self)
                 entry.ce_leases
             with
            | Some l ->
                l.l_owner <- Some self;
                Some (entry, Some l)
            | None ->
                incr cache_clones;
                Some (entry, None)))
  in
  match claim with
  | Some (entry, Some lease) ->
      restore entry lease inputs;
      (match tracer with Some tr -> tr.tr_cache <- Hit | None -> ());
      artifact_of_lease entry lease ~hash ~status:Hit
  | Some (entry, None) ->
      (* every lease is checked out by some other domain: compile a clone
         pair from the stored prepared statement — no pass re-runs, only
         the backend closure compilation — and lease it to this domain. *)
      let buffers =
        instantiate ~stage:"cache" ~extents:entry.ce_extents ~inputs
      in
      let exec =
        compile_stage ?tracer ~knobs:entry.ce_knobs ~params:entry.ce_params
          ~buffers entry.ce_prepared
      in
      let lease = { l_exec = exec; l_buffers = buffers;
                    l_owner = Some (self_id ()) } in
      locked (fun () -> entry.ce_leases <- entry.ce_leases @ [ lease ]);
      (match tracer with Some tr -> tr.tr_cache <- Hit | None -> ());
      artifact_of_lease entry lease ~hash ~status:Hit
  | None ->
      locked (fun () -> incr cache_misses);
      let buffers = instantiate ~stage:"buffers" ~extents ~inputs in
      let prepared, report = prepare_and_plan ?tracer ~knobs ~params s in
      let exec = compile_stage ?tracer ~knobs ~params ~buffers prepared in
      let snapshot = List.map (fun b -> Array.copy b.B.Buffers.data) buffers in
      let lease =
        { l_exec = exec; l_buffers = buffers; l_owner = Some (self_id ()) }
      in
      let entry =
        locked (fun () ->
            match find_entry_locked () with
            | Some entry ->
                (* another domain compiled the same configuration while we
                   did: keep one entry and register our pair as an extra
                   lease of it *)
                touch_locked entry;
                entry.ce_leases <- entry.ce_leases @ [ lease ];
                entry
            | None ->
                if !cache_entries >= !cache_cap_ref then evict_one_locked ();
                let entry =
                  { ce_stmt = s; ce_prepared = prepared; ce_knobs = knobs;
                    ce_params = params; ce_extents = extents;
                    ce_leases = [ lease ]; ce_snapshot = snapshot;
                    ce_fills = inputs; ce_plan = report; ce_gen = 0 }
                in
                touch_locked entry;
                let bucket =
                  match Hashtbl.find_opt cache key with
                  | Some b -> b
                  | None -> []
                in
                Hashtbl.replace cache key (entry :: bucket);
                incr cache_entries;
                entry)
      in
      (match tracer with Some tr -> tr.tr_cache <- Miss | None -> ());
      artifact_of_lease entry lease ~hash ~status:Miss

let extents_of_fn fn ~params =
  List.map
    (fun ((b : Ir.buffer), dims) -> (b.Ir.buf_name, dims, b.Ir.buf_mem))
    (Lower.buffer_extents fn ~params)

(** The whole path: [Ir.fn] → lowered statement → cached compiled
    artifact, with buffer extents derived from the function's buffer
    declarations.

    Under the [`Pool] strategy, the schedule-level
    widening pass ({!Tiramisu_deps.Deps.widen_parallel}) first grows each
    computation's parallel band with every adjacent [Seq] dim the
    dependence oracle proves safe — handing the planner a deeper perfectly
    nested [Parallel] chain to coalesce.  The user's schedule is restored
    after lowering whatever happens. *)
let lower_for_build ?tracer ?(knobs = default_knobs) fn
    (k : Lower.t -> 'a) : 'a =
  let context = "function " ^ fn.Ir.fn_name in
  let widen () =
    if B.Target.pool_schedulable knobs.target then begin
      let t0 = B.Clock.now_ms () in
      let widened, undo =
        guard ~stage:"widen-parallel" ~context Deps.widen_parallel fn
      in
      (match tracer with
       | Some tr ->
           record tr
             { p_name = "widen-parallel"; p_ms = B.Clock.now_ms () -. t0;
               p_before = None; p_after = None; p_verify = Skipped;
               p_note =
                 (match widened with
                  | [] -> "no dim widened"
                  | ws ->
                      String.concat ", "
                        (List.map (fun (c, d) -> c ^ "/" ^ d) ws)) }
       | None -> ());
      undo
    end
    else fun () -> ()
  in
  let undo = widen () in
  (* Vector loops the tape would claim stay unsplit when this compile can
     actually claim them (tape on): the tape lane-batches the
     unsplit loop with its own scalar remainder, and splitting would only
     fragment the nest into many small per-invocation tape entries.  See
     {!Passes.vector_legalize}. *)
  Fun.protect ~finally:undo (fun () ->
      k (lower ?tracer ~keep_claimable:knobs.tape fn))

let build ?tracer ?(knobs = default_knobs) ~fn ~params ~inputs () : artifact =
  lower_for_build ?tracer ~knobs fn (fun lowered ->
      build_stmt ?tracer ~knobs ~params ~extents:(extents_of_fn fn ~params)
        ~inputs lowered.Lower.ast)

(* ---------- trace serialization ---------- *)

let json_of_meta (m : L.loop_meta) =
  Printf.sprintf
    {|{ "n_loops": %d, "n_parallel": %d, "n_nested_parallel": %d, "max_depth": %d, "n_specializable": %d }|}
    m.L.n_loops m.L.n_parallel m.L.n_nested_parallel m.L.max_depth
    m.L.n_specializable

let json_of_verdict = function
  | Verified -> {|"verified"|}
  | Skipped -> {|"skipped"|}
  | Mismatch m -> Printf.sprintf "%S" ("mismatch: " ^ m)

let string_of_cache_status = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

let json_of_pass p =
  let opt_meta = function
    | None -> "null"
    | Some m -> json_of_meta m
  in
  let note = if p.p_note = "" then "" else Printf.sprintf {|, "note": %S|} p.p_note in
  Printf.sprintf
    {|      { "pass": %S, "ms": %.4f, "verify": %s, "before": %s, "after": %s%s }|}
    p.p_name p.p_ms (json_of_verdict p.p_verify) (opt_meta p.p_before)
    (opt_meta p.p_after) note

let json_of_trace t =
  Printf.sprintf
    "  { \"fn\": %S, \"cache\": \"%s\", \"target\": %S, \"total_ms\": \
     %.4f,\n    \"passes\": [\n%s\n    ] }"
    t.t_fn
    (string_of_cache_status t.t_cache)
    t.t_target t.t_total_ms
    (String.concat ",\n" (List.map json_of_pass t.t_passes))

let write_traces path traces =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.map json_of_trace traces));
  output_string oc "\n]\n";
  close_out oc

let print_trace ppf t =
  Fmt.pf ppf "%s: target %s, cache %s, %.3f ms total@." t.t_fn
    (if t.t_target = "" then "<unresolved>" else t.t_target)
    (string_of_cache_status t.t_cache)
    t.t_total_ms;
  List.iter
    (fun p ->
      let delta =
        match (p.p_before, p.p_after) with
        | Some b, Some a when b <> a ->
            Printf.sprintf " loops %d->%d depth %d->%d" b.L.n_loops
              a.L.n_loops b.L.max_depth a.L.max_depth
        | _ -> ""
      in
      let verify =
        match p.p_verify with
        | Verified -> " [verified]"
        | Mismatch m -> " [MISMATCH: " ^ m ^ "]"
        | Skipped -> ""
      in
      let note = if p.p_note = "" then "" else " (" ^ p.p_note ^ ")" in
      Fmt.pf ppf "  %-14s %8.4f ms%s%s%s@." p.p_name p.p_ms delta verify note)
    t.t_passes
