(** Unified compilation pipeline: a typed pass manager owning the whole
    path from [Ir.fn] to a runnable artifact.

    The paper's toolchain (§V) is a fixed sequence of lowering stages
    (Layer IV → ISL AST → Halide IR → LLVM); this module makes our
    reproduction's equivalent sequence — widen-parallel, expand/lower,
    legalize, alloc-scope, narrow, simplify, parallel-plan, backend
    compile — a first-class object, and is the only module that knows its
    order: users, the fuzzer and the search go through [build] (the latter
    two with a {!lowerings} memo, so rows or measurements that lower alike
    share one lowering), the compile service through its two halves
    [prepare_and_plan] and [compile_stage].
    Every stage runs as a named pass with per-pass wall-clock timing,
    before/after {!Tiramisu_codegen.Loop_ir.loop_meta} deltas, and an
    optional differential-verify hook (the reference interpreter runs on
    the IR before and after a statement-level pass on a probe input, and
    the outputs must match bitwise).  A run's trace serializes to JSON.

    On top of the pass manager sits a compile cache, one per domain, keyed
    on [(structural hash of the statement, params, knobs, extents)]: building
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
   unsupported programs.  Everything else — notably [Limits.Timeout] and
   the work budget's [Limits.Budget_exceeded] — must propagate untouched.

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
  mutable tr_claims : Tape_gen.claims option;  (* tape-compile's output *)
}

let make_tracer ?probe ?on_after ?(name = "<stmt>") () =
  { tr_fn = name; tr_start = B.Clock.now_ms (); tr_cache = Bypass;
    tr_target = ""; tr_passes = []; tr_probe = probe; tr_on_after = on_after;
    tr_claims = None }

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
   run fails, the pass broke the program: Mismatch.  A [Limits.Timeout] or
   [Limits.Budget_exceeded] judges nothing and propagates, like everywhere
   else in the pipeline. *)
let differential_verify p ~before ~after =
  let module Lm = Tiramisu_support.Limits in
  match probe_run p before with
  | exception ((Lm.Timeout | Lm.Budget_exceeded _) as t) -> raise t
  | exception _ -> Skipped
  | ref_out -> (
      match probe_run p after with
      | exception ((Lm.Timeout | Lm.Budget_exceeded _) as t) -> raise t
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

(** Run an unverified pass: time it, wrap its errors, and record the loop
    metadata [meta] gives for its input and output. *)
let timed_pass ?tracer ~name ~context ?(meta = fun _ _ -> (None, None))
    ?(note = fun _ -> "") f x =
  match tracer with
  | None -> guard ~stage:name ~context f x
  | Some tr ->
      let t0 = B.Clock.now_ms () in
      let y = guard ~stage:name ~context f x in
      let p_ms = B.Clock.now_ms () -. t0 in
      let p_before, p_after = meta x y in
      record tr
        { p_name = name; p_ms; p_before; p_after; p_verify = Skipped;
          p_note = note y };
      y

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
      (** the widest lane batch the tape's vector tier may run claimed
          nests with (see {!Tiramisu_backends.Tape.bind}); [<= 1] forces
          the scalar tape.  The width is an interpreter strip, not SIMD:
          binding fits it to each nest and caps it at store collisions,
          and segments run as few batches as fit.  Default
          {!Tiramisu_backends.Tape.default_lanes}.  Participates in the
          compile-cache key: the vector and scalar tapes are different
          generated code. *)
}

let default_knobs =
  { target = B.Target.default; plan = `Auto; tape = true;
    lanes = B.Tape.default_lanes }

(* Lowerings done so far in this process (memo hits excluded). *)
let n_lower = Atomic.make 0
let lower_calls () = Atomic.get n_lower

(** A lowering memo bound to one function value, which must not be
    rescheduled while the memo lives (DESIGN §10).  Each lowering class
    (widen-parallel or not, [keep_claimable] or not) lowers once; a later
    call appends the first one's passes to its tracer, without re-running
    hooks or verification. *)
type lowerings = {
  lw_fn : Ir.fn;
  mutable lw_classes : ((bool * bool) * (Lower.t * pass_trace list)) list;
      (* per class, the lowering and its passes in reverse order *)
}

let lowerings fn = { lw_fn = fn; lw_classes = [] }

(* The widen-parallel note's last item when a trial ran over its work
   budget ({!Deps.widen_parallel}'s [spent]). *)
let widen_spent_note = "not widened: legality budget exceeded"

(* Layer IV → loop IR: widen-parallel when [widen], then the passes
   {!lower} lists.  The user's schedule is restored after lowering
   whatever happens. *)
let lower_passes ?tracer ~widen ~keep_claimable (fn : Ir.fn) : Lower.t =
  Atomic.incr n_lower;
  let context = "function " ^ fn.Ir.fn_name in
  let undo =
    if widen then
      let _, _, undo =
        timed_pass ?tracer ~name:"widen-parallel" ~context
          ~note:(fun (widened, spent, _) ->
            let ws = List.map (fun (c, d) -> c ^ "/" ^ d) widened in
            let ws =
              if spent then ws @ [ widen_spent_note ]
              else ws
            in
            if ws = [] then "no dim widened" else String.concat ", " ws)
          Deps.widen_parallel fn
      in
      undo
    else fun () -> ()
  in
  Fun.protect ~finally:undo @@ fun () ->
  (* its input is not a statement: only the output metadata is recorded *)
  let ast =
    timed_pass ?tracer ~name:"lower" ~context
      ~meta:(fun _ s -> (None, Some (L.analyze_loops s)))
      Lower.generate_ast fn
  in
  (match tracer with
  | Some { tr_on_after = Some h; _ } -> h "lower" ast
  | _ -> ());
  let ast =
    stmt_pass ?tracer ~name:"legalize" ~context ~verifiable:true
      (Passes.legalize ~keep_claimable) ast
  in
  let ast =
    stmt_pass ?tracer ~name:"alloc-scope" ~context (Lower.scope_allocs fn) ast
  in
  { Lower.ast; fn }

(* [lower_passes] through the memo, when one is given. *)
let lower_class ?tracer ?lowerings ~widen ~keep_claimable fn =
  match lowerings with
  | None -> lower_passes ?tracer ~widen ~keep_claimable fn
  | Some m when m.lw_fn != fn ->
      invalid_arg ("Pipeline: a lowering memo of another function than "
                   ^ fn.Ir.fn_name)
  | Some m ->
      let cls = (widen, keep_claimable) in
      let l, passes =
        match List.assoc_opt cls m.lw_classes with
        | Some lp -> lp
        | None ->
            (* traced on its own, so a later hit can replay its passes *)
            let own =
              match tracer with
              | Some tr -> { tr with tr_passes = [] }
              | None -> make_tracer ()
            in
            let l = lower_passes ~tracer:own ~widen ~keep_claimable fn in
            m.lw_classes <- (cls, (l, own.tr_passes)) :: m.lw_classes;
            (l, own.tr_passes)
      in
      Option.iter (fun tr -> tr.tr_passes <- passes @ tr.tr_passes) tracer;
      l

(** Layer IV → loop IR, as three traced passes: [lower] (scheduled-domain
    AST generation), [legalize] (vector/unroll legality rewrites, the one
    front-end pass that is semantics-preserving on its own and therefore
    verifiable), and [alloc-scope] ([allocate_at] placement). *)
let lower ?tracer ?lowerings ?(keep_claimable = false) fn =
  lower_class ?tracer ?lowerings ~widen:false ~keep_claimable fn

(** The statement-level optimization passes: interval narrowing under the
    concrete parameter values, which also splits loops at index clamps
    (its note lists the splits), then unroll expansion, one-point loop
    removal and simplification (which deletes the loops narrowing proved
    empty, e.g. vector epilogues of exact tiles).  Both are verifiable. *)
let prepare ?tracer ~params (s : L.stmt) =
  let context = "statement" in
  let splits = ref [] in
  let s =
    stmt_pass ?tracer ~name:"narrow" ~context ~verifiable:true
      ~note:(fun () -> Passes.split_note !splits)
      (fun s ->
        let s', sp = Passes.narrow_splits ~params s in
        splits := sp;
        s')
      s
  in
  stmt_pass ?tracer ~name:"simplify" ~context ~verifiable:true Passes.simplify
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
  (* [tape-compile] is the tape claim: {!Tape_gen.claims} classifies the
     nests once, traced or not, and [compile] hands the record to
     [Exec.compile], which never classifies.  With the tape off the pass
     is skipped and the executor gets the empty record. *)
  let meta s _ = let m = Some (L.analyze_loops s) in (m, m) in
  let claims =
    if not knobs.tape then Tape_gen.no_claims
    else begin
      let cs =
        timed_pass ?tracer ~name:"tape-compile" ~context:"statement" ~meta
          ~note:(fun cs ->
            match cs.Tape_gen.cs_nests with
            | [] -> "no nest claimed"
            | nests ->
                String.concat "; "
                  (List.map (fun c -> Tape_gen.summary c.Tape_gen.cl_program)
                     nests))
          Tape_gen.claims s
      in
      Option.iter (fun tr -> tr.tr_claims <- Some cs) tracer;
      cs
    end
  in
  (match tracer with
  | Some tr -> tr.tr_target <- B.Target.to_key_string knobs.target
  | None -> ());
  timed_pass ?tracer ~name:"compile" ~context:"statement" ~meta
    (B.Exec.compile ~target:knobs.target ~claims ~lanes:knobs.lanes ~params
       ~buffers)
    s

(* ---------- compile cache ---------- *)

type artifact = {
  exec : B.Exec.compiled;
  buffers : B.Buffers.t list;
      (** the cache entry's own buffers: the building domain's next hit on
          the same configuration restores them and hands them out again *)
  cache : cache_status;
  key_hash : int;              (** structural hash of the source statement *)
  plan_report : Plan.report;   (** parallel-planner decisions (empty when
                                   the pass did not run) *)
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

(* One entry is one compiled executor and the buffers it captured by
   reference at compile time. *)
type centry = {
  ce_stmt : L.stmt;  (* collision guard: must equal the requested stmt *)
  ce_exec : B.Exec.compiled;
  ce_buffers : B.Buffers.t list;
  ce_snapshot : float array list;  (* initial contents, one per buffer *)
  ce_fills : (string * (int array -> float)) list;
  ce_plan : Plan.report;
  mutable ce_gen : int;  (* LRU generation: bumped on every hit/insert *)
}

(* Every domain has a cache of its own ([Domain.DLS]), so two domains
   building one configuration compile it twice and can never be handed
   the same mutable buffers — a shared entry once did exactly that, and
   the executor would race on them.  Nothing here takes a lock: a domain's
   cache must not be driven from two of its systhreads at once (no
   caller does; the compile service's worker domains use
   {!prepare_and_plan} and {!compile_stage} and never touch it). *)
type dcache = {
  table : (ckey, centry list) Hashtbl.t;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable resets : int;
  mutable tick : int;
}

let dcache_key =
  Domain.DLS.new_key (fun () ->
      { table = Hashtbl.create 64; entries = 0; hits = 0; misses = 0;
        evictions = 0; resets = 0; tick = 0 })

let default_cache_cap = 512
let shared_cap = Atomic.make default_cache_cap  (* one cap for every domain *)
let cache_cap () = Atomic.get shared_cap

(* evict the least-recently-used entry *)
let evict_one c =
  let victim =
    Hashtbl.fold
      (fun k es best ->
        List.fold_left
          (fun best e ->
            match best with
            | Some (_, e') when e'.ce_gen <= e.ce_gen -> best
            | _ -> Some (k, e))
          best es)
      c.table None
  in
  match victim with
  | None -> ()
  | Some (k, victim) ->
      let rest = List.filter (fun e -> e != victim) (Hashtbl.find c.table k) in
      if rest = [] then Hashtbl.remove c.table k
      else Hashtbl.replace c.table k rest;
      c.entries <- c.entries - 1;
      c.evictions <- c.evictions + 1

(* Sets the cap of every domain's cache; the calling domain's is trimmed
   now, another domain's at its next insert. *)
let set_cache_cap n =
  if n < 1 then invalid_arg "Pipeline.set_cache_cap";
  Atomic.set shared_cap n;
  let c = Domain.DLS.get dcache_key in
  while c.entries > n do
    evict_one c
  done

(* Explicit full reset of the calling domain's cache (tests, bench
   isolation).  The capacity-overflow path never comes here: reaching
   [cache_cap] evicts exactly one entry ({!evict_one}), so warm state is
   shed incrementally, never destroyed wholesale. *)
let clear_cache () =
  let c = Domain.DLS.get dcache_key in
  Hashtbl.reset c.table;
  c.entries <- 0;
  c.resets <- c.resets + 1

(** The calling domain's cache counters. *)
type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** single-entry LRU evictions at capacity *)
  resets : int;     (** explicit {!clear_cache} calls — never incremented
                        by the eviction path *)
}

let cache_stats () =
  let c = Domain.DLS.get dcache_key in
  { hits = c.hits; misses = c.misses; entries = c.entries;
    evictions = c.evictions; resets = c.resets }

(* Hashing is a full statement traversal; rebuilding the *same* statement
   value (benchmark reps, fuzz replay of one case, repeated autoscheduler
   probes) would pay it on every hit.  A tiny physical-equality memo keeps
   the hit path free of the traversal without affecting the hash's
   structural semantics.  The compile service's client threads call this
   too ([Service.key_of]): the memo is one immutable list swapped
   atomically, so a racing update is lost, never torn. *)
let hash_memo : (L.stmt * int) list Atomic.t = Atomic.make []
let hash_memo_cap = 16

let structural_hash_memo s =
  let memo = Atomic.get hash_memo in
  match List.find_opt (fun (s', _) -> s' == s) memo with
  | Some (_, h) -> h
  | None ->
      let h = L.structural_hash s in
      let kept =
        if List.length memo >= hash_memo_cap then
          List.filteri (fun i _ -> i < hash_memo_cap - 1) memo
        else memo
      in
      Atomic.set hash_memo ((s, h) :: kept);
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

(* Restore an entry's buffers to the initial state implied by [fills].
   When the fill closures are the very same functions the entry was built
   with (the common case: call sites pass top-level functions), blitting
   the snapshot back is both exact and allocation-free.  Otherwise zero
   everything and re-fill. *)
let restore entry fills =
  let same =
    List.length fills = List.length entry.ce_fills
    && List.for_all2
         (fun (n1, f1) (n2, f2) -> String.equal n1 n2 && f1 == f2)
         fills entry.ce_fills
  in
  if same then
    List.iter2
      (fun snap b -> Array.blit snap 0 b.B.Buffers.data 0 (Array.length snap))
      entry.ce_snapshot entry.ce_buffers
  else begin
    List.iter
      (fun b ->
        Array.fill b.B.Buffers.data 0 (Array.length b.B.Buffers.data) 0.)
      entry.ce_buffers;
    guard ~stage:"cache" ~context:"buffer setup"
      (B.Buffers.fill_inputs entry.ce_buffers) fills
  end

(* bump the entry's LRU generation *)
let touch c entry =
  c.tick <- c.tick + 1;
  entry.ce_gen <- c.tick

(** Serializable digest of a cache key — what the on-disk service tier is
    content-addressed by.  [ckey] is pure data (the structural hash stands
    in for the statement), so marshalling it is well-defined. *)
let key_digest (k : ckey) = Digest.to_hex (Digest.string (Marshal.to_string k []))

(** Compile a statement through the calling domain's cache.  [extents]
    declares every buffer the program touches ([(name, dims,
    mem_space)]); [inputs] are fill functions applied before the snapshot
    is taken.  On a hit the entry's executor comes back with its buffers
    restored to their initial contents — bit-identical to what a cold
    build would produce.  At capacity the least-recently-used entry is
    evicted; the cache never resets wholesale on its own. *)
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
  let c = Domain.DLS.get dcache_key in
  let bucket = Option.value (Hashtbl.find_opt c.table key) ~default:[] in
  let status, entry =
    match List.find_opt (fun e -> e.ce_stmt = s) bucket with
    | Some entry ->
        touch c entry;
        c.hits <- c.hits + 1;
        restore entry inputs;
        (Hit, entry)
    | None ->
        c.misses <- c.misses + 1;
        let buffers = instantiate ~stage:"buffers" ~extents ~inputs in
        let prepared, report = prepare_and_plan ?tracer ~knobs ~params s in
        let exec = compile_stage ?tracer ~knobs ~params ~buffers prepared in
        let entry =
          { ce_stmt = s; ce_exec = exec; ce_buffers = buffers;
            ce_snapshot =
              List.map (fun b -> Array.copy b.B.Buffers.data) buffers;
            ce_fills = inputs; ce_plan = report; ce_gen = 0 }
        in
        while c.entries >= cache_cap () do
          evict_one c
        done;
        touch c entry;
        (* the bucket is re-read: an eviction may have just emptied it *)
        Hashtbl.replace c.table key
          (entry :: Option.value (Hashtbl.find_opt c.table key) ~default:[]);
        c.entries <- c.entries + 1;
        (Miss, entry)
  in
  (match tracer with Some tr -> tr.tr_cache <- status | None -> ());
  { exec = entry.ce_exec; buffers = entry.ce_buffers; cache = status;
    key_hash = hash; plan_report = entry.ce_plan }

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
    nested [Parallel] chain to coalesce.  With the tape on, vector loops
    it would claim stay unsplit ({!Passes.vector_legalize}): the tape
    lane-batches a loop with its own remainder. *)
let lower_for_build ?tracer ?lowerings ?(knobs = default_knobs) fn
    (k : Lower.t -> 'a) : 'a =
  k (lower_class ?tracer ?lowerings
       ~widen:(B.Target.pool_schedulable knobs.target)
       ~keep_claimable:knobs.tape fn)

let build ?tracer ?lowerings ?(knobs = default_knobs) ~fn ~params ~inputs ()
    : artifact =
  lower_for_build ?tracer ?lowerings ~knobs fn (fun lowered ->
      build_stmt ?tracer ~knobs ~params ~extents:(extents_of_fn fn ~params)
        ~inputs lowered.Lower.ast)

(* ---------- trace serialization ---------- *)

let json_of_meta (m : L.loop_meta) =
  Printf.sprintf
    {|{ "n_loops": %d, "n_parallel": %d, "n_nested_parallel": %d, "max_depth": %d }|}
    m.L.n_loops m.L.n_parallel m.L.n_nested_parallel m.L.max_depth

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
