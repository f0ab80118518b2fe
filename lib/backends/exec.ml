open Tiramisu_codegen
module L = Loop_ir

(* Compiled code operates on a register file of integers (loop variables and
   parameters), one slot per name; closures capture slot indices.

   Rectangular nests over straight-line affine stores are claimed by the
   flat tape ({!Tape_gen} / {!Tape}) on every target; everything else, and
   every tape entry whose corner check fails, runs the closures compiled
   here.  Two runtime subsystems distinguish the closure path from a naive
   closure compiler:

   - Parallel loops run on the persistent domain pool ({!Pool});
     statically nested Parallel loops are compiled sequentially (the loop
     metadata of {!Loop_ir.analyze_loops} names this case) and dynamically
     nested ones run inline on their worker.  Which loops fork is decided
     earlier, by the parallel planner ({!Parallel_plan}).

   - Addressing is precomputed: buffer strides are computed once at
     compile time, constant indices fold into a static base (bounds
     checked at compile time), and affine indices evaluate through small
     fixed-arity sums.  Every other access checks its bounds each time it
     runs, so a fault raises at the iteration that makes it and a guarded
     access that never runs out of range is accepted.  The only hoisted
     check is the tape's: {!Tape.enter} checks the whole box of a claimed
     nest once per entry and falls back to these closures when it fails. *)

type par_strategy = [ `Pool | `Seq ]

exception Comm_error = Interp.Comm_error

type compiled = {
  body : int array -> unit;
  regs0 : int array;             (* initial register file (params bound) *)
  bufs : (string, Buffers.t) Hashtbl.t;
  cmeta : L.loop_meta;
  c_static : int;                (* pool loops given the static schedule *)
  c_tape_lanes : int;            (* requested lane width (0 = scalar tape) *)
  c_tape_instr : int;            (* total tape instructions across nests *)
  c_bound : (string * Tape.t) list;
    (* per nest claimed by the tape, in claim order: its bound tape *)
  c_tape_fb : int Atomic.t;      (* runtime corner-check fallbacks (shared) *)
  c_msgs : int Atomic.t;         (* messages sent at run time (shared) *)
  c_bytes : int Atomic.t;        (* payload bytes sent at run time (shared) *)
}

type ctx = {
  slots : (string, int) Hashtbl.t;
  mutable nslots : int;
  cbufs : (string, Buffers.t) Hashtbl.t;
  (* (src rank, dst rank) -> queued (channel buffer, payload) messages *)
  channels : (int * int, (string * float array) Queue.t) Hashtbl.t;
  chan_mutex : Mutex.t;
  rank_slot : int;
  par_mode : par_strategy;
  mutable par_depth : int;           (* enclosing Parallel loops *)
  est_vars : (string, int) Hashtbl.t;  (* params, enclosing-loop midpoints *)
  n_static : int Atomic.t;           (* pool loops compiled static *)
  (* the flat-tape backend (see {!Tape}) *)
  claims : Tape_gen.claims;          (* the nests it runs *)
  tape_lanes : int;                  (* vector lane width (<= 1: scalar) *)
  mutable bound : (Tape_gen.program * Tape.t) list;
    (* per claimed nest, newest first *)
  n_tape_fb : int Atomic.t;          (* runtime corner-check fallbacks *)
  n_msgs : int Atomic.t;             (* runtime: messages sent *)
  n_bytes : int Atomic.t;            (* runtime: payload bytes sent *)
}

let slot ctx name =
  match Hashtbl.find_opt ctx.slots name with
  | Some s -> s
  | None ->
      let s = ctx.nslots in
      ctx.nslots <- ctx.nslots + 1;
      Hashtbl.replace ctx.slots name s;
      s

let buf ctx name =
  match Hashtbl.find_opt ctx.cbufs name with
  | Some b -> b
  | None -> failwith (Printf.sprintf "Exec: unknown buffer %s" name)

(* Σ coeff·var + const view of an index expression; None if not affine.
   Lives in {!Loop_ir} so the classifier, the cost model and this executor
   agree on what "affine" means. *)
let affine_terms = L.affine_terms

let rec compile_int ctx (e : L.expr) : int array -> int =
  match e with
  | L.Int n -> fun _ -> n
  | L.Float _ -> failwith "Exec: float in integer context"
  | L.Var v ->
      let s = slot ctx v in
      fun env -> env.(s)
  | L.Neg a ->
      let f = compile_int ctx a in
      fun env -> -f env
  | L.Cast (L.I32, a) ->
      let f = compile_f ctx a in
      fun env -> int_of_float (f env)
  | L.Cast (_, a) -> compile_int ctx a
  | L.Load (b, idx) ->
      let bb = buf ctx b in
      let fidx = index_fn ctx bb idx in
      fun env -> int_of_float bb.Buffers.data.(fidx env)
  | L.Select (c, a, b) ->
      let fc = compile_cond ctx c
      and fa = compile_int ctx a
      and fb = compile_int ctx b in
      fun env -> if fc env then fa env else fb env
  | L.Call ("abs", [ a ]) ->
      let f = compile_int ctx a in
      fun env -> abs (f env)
  | L.Call (f, _) -> failwith ("Exec: unknown int intrinsic " ^ f)
  | L.Bin (op, a, b) -> (
      let fa = compile_int ctx a and fb = compile_int ctx b in
      match op with
      | L.Add -> fun env -> fa env + fb env
      | L.Sub -> fun env -> fa env - fb env
      | L.Mul -> fun env -> fa env * fb env
      | L.Div -> fun env -> fa env / fb env
      | L.FloorDiv -> fun env -> Tiramisu_support.Ints.fdiv (fa env) (fb env)
      | L.Mod -> fun env -> Tiramisu_support.Ints.emod (fa env) (fb env)
      | L.MinOp -> fun env -> Int.min (fa env) (fb env)
      | L.MaxOp -> fun env -> Int.max (fa env) (fb env))

and compile_cond ctx (c : L.cond) : int array -> bool =
  match c with
  | L.True -> fun _ -> true
  | L.And (a, b) ->
      let fa = compile_cond ctx a and fb = compile_cond ctx b in
      fun env -> fa env && fb env
  | L.Or (a, b) ->
      let fa = compile_cond ctx a and fb = compile_cond ctx b in
      fun env -> fa env || fb env
  | L.Not a ->
      let f = compile_cond ctx a in
      fun env -> not (f env)
  | L.Cmp (op, a, b) -> (
      let fa = compile_int ctx a and fb = compile_int ctx b in
      match op with
      | L.EqOp -> fun env -> fa env = fb env
      | L.NeOp -> fun env -> fa env <> fb env
      | L.LtOp -> fun env -> fa env < fb env
      | L.LeOp -> fun env -> fa env <= fb env
      | L.GtOp -> fun env -> fa env > fb env
      | L.GeOp -> fun env -> fa env >= fb env)

and compile_f ctx (e : L.expr) : int array -> float =
  match e with
  | L.Int n ->
      let x = float_of_int n in
      fun _ -> x
  | L.Float f -> fun _ -> f
  | L.Var v ->
      let s = slot ctx v in
      fun env -> float_of_int env.(s)
  | L.Neg a ->
      let f = compile_f ctx a in
      fun env -> -.f env
  | L.Cast (L.I32, a) ->
      let f = compile_f ctx a in
      fun env -> Float.of_int (int_of_float (f env))
  | L.Cast (_, a) -> compile_f ctx a
  | L.Load (b, idx) ->
      let bb = buf ctx b in
      let fidx = index_fn ctx bb idx in
      fun env -> bb.Buffers.data.(fidx env)
  | L.Select (c, a, b) ->
      let fc = compile_cond ctx c
      and fa = compile_f ctx a
      and fb = compile_f ctx b in
      fun env -> if fc env then fa env else fb env
  | L.Call (name, args) -> (
      let fargs = List.map (compile_f ctx) args in
      match (name, fargs) with
      | "abs", [ a ] -> fun env -> Float.abs (a env)
      | "sqrt", [ a ] -> fun env -> sqrt (a env)
      | "exp", [ a ] -> fun env -> exp (a env)
      | "log", [ a ] -> fun env -> log (a env)
      | "sin", [ a ] -> fun env -> sin (a env)
      | "cos", [ a ] -> fun env -> cos (a env)
      | "floor", [ a ] -> fun env -> Float.floor (a env)
      | "pow", [ a; b ] -> fun env -> Float.pow (a env) (b env)
      | "fmin", [ a; b ] -> fun env -> Float.min (a env) (b env)
      | "fmax", [ a; b ] -> fun env -> Float.max (a env) (b env)
      | "clamp", [ x; lo; hi ] ->
          fun env -> Float.min (Float.max (x env) (lo env)) (hi env)
      | _ -> failwith ("Exec: unknown intrinsic " ^ name))
  | L.Bin (op, a, b) -> (
      let fa = compile_f ctx a and fb = compile_f ctx b in
      match op with
      | L.Add -> fun env -> fa env +. fb env
      | L.Sub -> fun env -> fa env -. fb env
      | L.Mul -> fun env -> fa env *. fb env
      | L.Div -> fun env -> fa env /. fb env
      | L.FloorDiv ->
          fun env ->
            Float.of_int
              (Tiramisu_support.Ints.fdiv (int_of_float (fa env))
                 (int_of_float (fb env)))
      | L.Mod ->
          fun env ->
            Float.of_int
              (Tiramisu_support.Ints.emod (int_of_float (fa env))
                 (int_of_float (fb env)))
      | L.MinOp -> fun env -> Float.min (fa env) (fb env)
      | L.MaxOp -> fun env -> Float.max (fa env) (fb env))

(* Flat-index closure of a full-rank access.  Strides are precomputed once;
   per dimension, an in-range constant index folds into the static base
   (checked here, at compile time) and every other index is checked each
   time the access runs. *)
and index_fn ctx (b : Buffers.t) (idx : L.expr list) : int array -> int =
  let dims = b.Buffers.dims in
  let rank = Array.length dims in
  if List.length idx <> rank then
    failwith (Printf.sprintf "Exec: rank mismatch on %s" b.Buffers.name);
  let strides = Buffers.strides_of dims in
  let base = ref 0 in
  let terms = ref [] in
  List.iteri
    (fun k e ->
      let stride = strides.(k) and dk = dims.(k) in
      let oob i =
        invalid_arg
          (Printf.sprintf "buffer %s: index %d out of bounds [0,%d) at dim %d"
             b.Buffers.name i dk k)
      in
      match affine_terms e with
      | Some ([], c) ->
          if c >= 0 && c < dk then base := !base + (c * stride)
          else terms := (fun _ -> oob c) :: !terms
      | aff ->
          let idx =
            match aff with
            | Some ([ (v0, a0) ], c) ->
                let s0 = slot ctx v0 in
                fun env -> (a0 * env.(s0)) + c
            | Some ([ (v0, a0); (v1, a1) ], c) ->
                let s0 = slot ctx v0 and s1 = slot ctx v1 in
                fun env -> (a0 * env.(s0)) + (a1 * env.(s1)) + c
            | Some (ts, c) ->
                let slots =
                  Array.of_list (List.map (fun (v, _) -> slot ctx v) ts)
                in
                let coeffs = Array.of_list (List.map snd ts) in
                let nv = Array.length slots in
                fun env ->
                  let x = ref c in
                  for t = 0 to nv - 1 do
                    x := !x + (coeffs.(t) * env.(slots.(t)))
                  done;
                  !x
            | None -> compile_int ctx e
          in
          terms :=
            (fun env ->
              let i = idx env in
              if i < 0 || i >= dk then oob i;
              i * stride)
            :: !terms)
    idx;
  let base = !base in
  match Array.of_list (List.rev !terms) with
  | [||] -> fun _ -> base
  | [| t0 |] -> fun env -> base + t0 env
  | [| t0; t1 |] -> fun env -> base + t0 env + t1 env
  | [| t0; t1; t2 |] -> fun env -> base + t0 env + t1 env + t2 env
  | terms -> fun env -> Array.fold_left (fun acc t -> acc + t env) base terms

(* Offset of a starting element given (possibly shorter) leading indices;
   used by send/recv.  Strides are computed once at compile time. *)
let offset_fn (b : Buffers.t) (fidx : (int array -> int) array) =
  let strides = Buffers.strides b in
  fun env ->
    let acc = ref 0 in
    Array.iteri (fun k f -> acc := !acc + (f env * strides.(k))) fidx;
    !acc

let rec compile_stmt ctx (s : L.stmt) : int array -> unit =
  match s with
  | L.Block l ->
      let fs = Array.of_list (List.map (compile_stmt ctx) l) in
      fun env -> Array.iter (fun f -> f env) fs
  | L.Comment _ | L.Barrier -> fun _ -> ()
  | L.If (c, t, e) -> (
      let fc = compile_cond ctx c and ft = compile_stmt ctx t in
      match e with
      | None -> fun env -> if fc env then ft env
      | Some e ->
          let fe = compile_stmt ctx e in
          fun env -> if fc env then ft env else fe env)
  | L.Store (b, idx, v) ->
      let bb = buf ctx b in
      let fidx = index_fn ctx bb idx in
      let fv = compile_f ctx v in
      fun env -> bb.Buffers.data.(fidx env) <- fv env
  | L.Alloc _ ->
      (* Scoped allocations capture buffers by reference at compile time;
         re-sizing per entry would need re-compilation. The reference
         interpreter handles these pipelines. *)
      failwith "Exec: scoped Alloc not supported; use the interpreter"
  | L.For { var; lo; hi; tag; body } as whole ->
      let s = slot ctx var in
      let flo = compile_int ctx lo and fhi = compile_int ctx hi in
      (* A nest the claim record names runs on the flat tape (see
         {!Tape_gen} / {!Tape}): register-file bytecode with
         strength-reduced cursors, and the whole closure compile below
         becomes the checked fallback taken when the whole-box corner
         check fails at run time.  The tape reads every bound and hoisted
         name from [env] on entry, so nests under GPU-grid and rank loops
         claim the same way as on the CPU. *)
      let tape_rt =
        match Tape_gen.find ctx.claims whole with
        | None -> None
        | Some prog -> (
            match
              Tape.bind ~lanes:ctx.tape_lanes
                ~buf:(Hashtbl.find_opt ctx.cbufs)
                ~slot:(slot ctx) prog
            with
            | None -> None
            | Some bt ->
                ctx.bound <- (prog, bt) :: ctx.bound;
                Some bt)
      in
      (* Statically nested Parallel loops run sequentially inside their
         chunk: the pool already owns the machine at the outer level.  Every
         other pool-strategy Parallel loop forks, static or dynamic by the
         planner's shape rule. *)
      let parallel =
        tag = L.Parallel && ctx.par_mode = `Pool && ctx.par_depth = 0
      in
      let static_sched =
        parallel && Parallel_plan.uniform ctx.est_vars ~var ~lo ~hi body
      in
      if static_sched then Atomic.incr ctx.n_static;
      if tag = L.Parallel then ctx.par_depth <- ctx.par_depth + 1;
      (* midpoint binding so nested shape-rule tests see this loop's extent *)
      let saved_est = Hashtbl.find_opt ctx.est_vars var in
      let est_lo = Parallel_plan.est_int ctx.est_vars lo
      and est_hi = Parallel_plan.est_int ctx.est_vars hi in
      Hashtbl.replace ctx.est_vars var
        (est_lo + (max 0 (est_hi - est_lo) / 2));
      let fbody = compile_stmt ctx body in
      (match saved_est with
      | Some x -> Hashtbl.replace ctx.est_vars var x
      | None -> Hashtbl.remove ctx.est_vars var);
      if tag = L.Parallel then ctx.par_depth <- ctx.par_depth - 1;
      let rs = ctx.rank_slot in
      let seq_run =
        if tag = L.Distributed then (fun env lo hi ->
          for x = lo to hi do
            env.(s) <- x;
            env.(rs) <- x;
            fbody env
          done)
        else fun env lo hi ->
          for x = lo to hi do
            env.(s) <- x;
            fbody env
          done
      in
      (* One runner for both paths below: inline, or a pool loop static or
         dynamic by the shape rule.  A range may run on any domain, so the
         bodies take their scratch from per-domain getters. *)
      let fork =
        if not parallel then fun lo hi ~body -> body lo hi
        else if static_sched then Pool.static_for
        else fun lo hi ~body -> Pool.parallel_for lo hi ~body
      in
      let run =
        if not parallel then seq_run
        else begin
          (* a private register file per domain, refreshed by blit: no
             per-range allocation once warm *)
          let regs = Pool.per_domain (fun () -> ref [||]) in
          fun env lo hi ->
            fork lo hi ~body:(fun clo chi ->
                let r = regs () and len = Array.length env in
                if Array.length !r = len then Array.blit env 0 !r 0 len
                else r := Array.copy env;
                seq_run !r clo chi)
        end
      in
      (match tape_rt with
      | None ->
          fun env ->
            let lo = flo env and hi = fhi env in
            if hi >= lo then run env lo hi
      | Some bt ->
          (* Tape dispatch: [Tape.enter] evaluates bounds and the
             whole-box corner checks once per nest entry — a failure
             falls back to the closure path (whose per-access checks
             raise at the faulting iteration) and is counted. *)
          let tfb = ctx.n_tape_fb in
          (* per-domain states, reused across entries once warm; [enter]
             evaluates its bounds into the entering domain's one.  The env
             is shared read-only — the tape never writes registers. *)
          let state = Pool.per_domain (fun () -> Tape.new_state bt) in
          fun env ->
            let lo = flo env and hi = fhi env in
            if hi >= lo then begin
              let total = Tape.enter bt (state ()) env in
              if total < 0 then begin
                Atomic.incr tfb;
                run env lo hi
              end
              else if total > 0 then
                fork 0 (total - 1) ~body:(fun clo chi ->
                    Tape.run_range bt (state ()) env clo chi)
            end)
  | L.Send { dst; buf = b; offset; count; _ } ->
      let bb = buf ctx b in
      let fdst = compile_int ctx dst in
      let foffs =
        offset_fn bb (Array.of_list (List.map (compile_int ctx) offset))
      in
      let fcount = compile_int ctx count in
      let rs = ctx.rank_slot in
      let msgs = ctx.n_msgs and bytes = ctx.n_bytes in
      fun env ->
        let offset = foffs env and count = fcount env in
        Interp.check_slice bb ~src:env.(rs) ~dst:(fdst env) ~offset ~count;
        let payload = Array.sub bb.Buffers.data offset count in
        Atomic.incr msgs;
        ignore (Atomic.fetch_and_add bytes (8 * Array.length payload));
        Mutex.lock ctx.chan_mutex;
        let key = (env.(rs), fdst env) in
        let q =
          match Hashtbl.find_opt ctx.channels key with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace ctx.channels key q;
              q
        in
        Queue.push (b, payload) q;
        Mutex.unlock ctx.chan_mutex
  | L.Recv { src; buf = b; offset; count; _ } ->
      let bb = buf ctx b in
      let fsrc = compile_int ctx src in
      let foffs =
        offset_fn bb (Array.of_list (List.map (compile_int ctx) offset))
      in
      let fcount = compile_int ctx count in
      let rs = ctx.rank_slot in
      fun env ->
        let src = fsrc env and dst = env.(rs) in
        let offset = foffs env and want = fcount env in
        Interp.check_slice bb ~src ~dst ~offset ~count:want;
        Mutex.lock ctx.chan_mutex;
        (match Hashtbl.find_opt ctx.channels (src, dst) with
        | Some q when not (Queue.is_empty q) ->
            let channel, payload = Queue.pop q in
            Mutex.unlock ctx.chan_mutex;
            if Array.length payload <> want then
              raise
                (Comm_error
                   { src; dst; channel;
                     reason =
                       Printf.sprintf
                         "message size mismatch: sent %d elements, recv \
                          expects %d"
                         (Array.length payload) want });
            Array.blit payload 0 bb.Buffers.data offset want
        | _ ->
            Mutex.unlock ctx.chan_mutex;
            raise
              (Comm_error
                 { src; dst; channel = b;
                   reason = "synchronous recv with no message (deadlock)" }))
  | L.Memcpy { dst; src; _ } ->
      let s = buf ctx src and d = buf ctx dst in
      fun _ ->
        if Buffers.size s <> Buffers.size d then
          failwith "Exec: memcpy size mismatch";
        Array.blit s.Buffers.data 0 d.Buffers.data 0 (Buffers.size s)

(* Whether the statement communicates at all: only then does the compiled
   body pay for per-run channel reset and the unmatched-send drain check
   (CPU kernels in timing loops stay untouched). *)
let rec has_comm (s : L.stmt) =
  match s with
  | L.Send _ | L.Recv _ -> true
  | L.Block l -> List.exists has_comm l
  | L.If (_, t, e) -> (
      has_comm t || match e with Some e -> has_comm e | None -> false)
  | L.For { body; _ } | L.Alloc { body; _ } -> has_comm body
  | L.Store _ | L.Comment _ | L.Barrier | L.Memcpy _ -> false

(* Static thread-block check for the GPU simulator: the product of the
   extents of nested [Gpu_thread] loops must fit the target's
   [max_threads] ceiling (the per-SM cap of the machine model).  Extents
   are the planner's estimates over [env], the params table (unbound names
   read 0).  Raised as [Failure] so the pipeline's guard reports it as a
   typed error. *)
let check_gpu_grid ~max_threads env stmt =
  let rec walk threads (s : L.stmt) =
    match s with
    | L.Block l -> List.iter (walk threads) l
    | L.If (_, t, e) ->
        walk threads t;
        Option.iter (walk threads) e
    | L.Alloc { body; _ } -> walk threads body
    | L.For { lo; hi; tag; body; _ } ->
        let threads =
          match tag with
          | L.Gpu_thread _ ->
              let ext =
                max 1
                  (Parallel_plan.est_int env hi - Parallel_plan.est_int env lo
                  + 1)
              in
              let t = threads * ext in
              if t > max_threads then
                failwith
                  (Printf.sprintf
                     "Exec: GPU thread block of %d threads exceeds the \
                      target's max_threads=%d"
                     t max_threads);
              t
          | L.Gpu_block _ -> 1
          | _ -> threads
        in
        walk threads body
    | L.Store _ | L.Comment _ | L.Barrier | L.Send _ | L.Recv _ | L.Memcpy _
      ->
        ()
  in
  walk 1 stmt

(* Compile a statement verbatim for a given execution target (the
   pipeline has already run narrowing, simplification, planning and the
   tape claim).  The target decides the CPU parallel strategy (its
   projection) and — for [Gpu_sim] — the static thread-block validation;
   the flat tape runs the claimed nests on every target. *)
let compile ?(target = Target.default) ?claims
    ?(lanes = Tape.default_lanes) ~params
    ~buffers stmt =
  let claims =
    match claims with
    | None -> Tape_gen.claims stmt
    | Some { Tape_gen.cs_source = Some s; _ } when s != stmt ->
        invalid_arg "Exec.compile: claims computed from another statement"
    | Some c -> c
  in
  let parallel = Target.par_strategy target in
  let ctx =
    {
      slots = Hashtbl.create 32;
      nslots = 0;
      cbufs = Hashtbl.create 16;
      channels = Hashtbl.create 16;
      chan_mutex = Mutex.create ();
      rank_slot = 0;
      par_mode = parallel;
      par_depth = 0;
      est_vars = Hashtbl.create 16;
      n_static = Atomic.make 0;
      claims;
      tape_lanes = lanes;
      bound = [];
      n_tape_fb = Atomic.make 0;
      n_msgs = Atomic.make 0;
      n_bytes = Atomic.make 0;
    }
  in
  let rank_slot = slot ctx "__rank" in
  assert (rank_slot = 0);
  List.iter (fun b -> Hashtbl.replace ctx.cbufs b.Buffers.name b) buffers;
  List.iter
    (fun (p, v) ->
      ignore (slot ctx p);
      Hashtbl.replace ctx.est_vars p v)
    params;
  (match target with
  | Target.Gpu_sim g ->
      check_gpu_grid ~max_threads:g.Target.max_threads ctx.est_vars stmt
  | Target.Cpu _ | Target.Distributed _ -> ());
  let body = compile_stmt ctx stmt in
  (* Communicating programs get a per-run envelope: channels start empty
     (no stale messages from a previous run), and any payload still
     queued when the program finishes is an unmatched send — the
     deadlock-analogue fault — reported with its rank pair and channel. *)
  let body =
    if not (has_comm stmt) then body
    else begin
      let channels = ctx.channels and m = ctx.chan_mutex in
      fun env ->
        Mutex.lock m;
        Hashtbl.reset channels;
        Mutex.unlock m;
        body env;
        Mutex.lock m;
        let leftover =
          Hashtbl.fold
            (fun (src, dst) q acc ->
              if Queue.is_empty q then acc
              else ((src, dst), fst (Queue.peek q), Queue.length q) :: acc)
            channels []
        in
        Mutex.unlock m;
        match leftover with
        | [] -> ()
        | ((src, dst), channel, n) :: _ ->
            raise
              (Comm_error
                 { src; dst; channel;
                   reason =
                     Printf.sprintf
                       "unmatched send: %d message(s) left undelivered" n })
    end
  in
  (* size the register file after compilation discovered all names *)
  let regs0 = Array.make (max 1 ctx.nslots) 0 in
  List.iter (fun (p, v) -> regs0.(Hashtbl.find ctx.slots p) <- v) params;
  (* Snapshot the per-compile counters into the result: every [compiled]
     value reports its own numbers, never a process-wide accumulation, so
     repeated compiles in one process (the fuzzer, the benchmarks) stay
     independent. *)
  { body; regs0; bufs = ctx.cbufs; cmeta = L.analyze_loops stmt;
    c_static = Atomic.get ctx.n_static;
    c_tape_lanes =
      (if claims.Tape_gen.cs_source <> None && lanes > 1 then lanes else 0);
    c_tape_instr =
      List.fold_left (fun n (p, _) -> n + Tape_gen.instr_count p) 0 ctx.bound;
    c_bound =
      List.rev_map (fun (p, bt) -> (Tape_gen.nest_name p, bt)) ctx.bound;
    (* runtime counters (tape fallbacks, comm traffic) keep accumulating
       as the compiled object runs, so the compiled value shares the
       Atomics instead of snapshotting them *)
    c_tape_fb = ctx.n_tape_fb; c_msgs = ctx.n_msgs; c_bytes = ctx.n_bytes }

let run c = c.body (Array.copy c.regs0)
let spec_count _ = 0
let pool_fallbacks _ = 0
let static_count c = c.c_static
let tape_count c = List.length c.c_bound
let bound_tapes c = c.c_bound
let lane_modes c = List.map (fun (n, bt) -> (n, Tape.mode bt)) c.c_bound

let tape_vec_count c =
  List.length
    (List.filter
       (fun (_, m) -> match m with Tape.Scalar _ -> false | _ -> true)
       (lane_modes c))
let tape_lanes c = c.c_tape_lanes
let tape_instrs c = c.c_tape_instr
let tape_fallbacks c = Atomic.get c.c_tape_fb
let comm_msgs c = Atomic.get c.c_msgs
let comm_bytes c = Atomic.get c.c_bytes

let buffer c name =
  match Hashtbl.find_opt c.bufs name with
  | Some b -> b
  | None -> failwith (Printf.sprintf "Exec: unknown buffer %s" name)

let meta c = c.cmeta

let time_run c =
  let (), dt = Clock.time (fun () -> run c) in
  dt
