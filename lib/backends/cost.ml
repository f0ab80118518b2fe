module L = Tiramisu_codegen.Loop_ir
module M = Machine

type report = {
  time_ns : float;
  compute_ns : float;
  memory_ns : float;
  overhead_ns : float;
  comm_ns : float;
  flops : float;
  bytes : float;
  messages : int;
}

(* Cost of one execution of a statement under the current environment. *)
type cost = {
  c_compute : float;
  c_memory : float;
  c_overhead : float;
  c_comm : float;
  c_flops : float;
  c_bytes : float;
  c_msgs : float;
}

let zero =
  { c_compute = 0.; c_memory = 0.; c_overhead = 0.; c_comm = 0.;
    c_flops = 0.; c_bytes = 0.; c_msgs = 0. }

let ( ++ ) a b =
  {
    c_compute = a.c_compute +. b.c_compute;
    c_memory = a.c_memory +. b.c_memory;
    c_overhead = a.c_overhead +. b.c_overhead;
    c_comm = a.c_comm +. b.c_comm;
    c_flops = a.c_flops +. b.c_flops;
    c_bytes = a.c_bytes +. b.c_bytes;
    c_msgs = a.c_msgs +. b.c_msgs;
  }

let scale k c =
  {
    c_compute = k *. c.c_compute;
    c_memory = k *. c.c_memory;
    c_overhead = k *. c.c_overhead;
    c_comm = k *. c.c_comm;
    c_flops = k *. c.c_flops;
    c_bytes = k *. c.c_bytes;
    c_msgs = k *. c.c_msgs;
  }

type frame = {
  f_var : string;
  f_extent : int;
  f_tag : L.loop_tag;
}

type state = {
  m : M.t;
  vars : (string, int) Hashtbl.t;          (* representative values *)
  bufs : (string, int array * L.mem_space) Hashtbl.t;
  mutable stack : frame list;              (* innermost first *)
  mutable in_gpu : bool;
  mutable launch_charged : bool;
  mutable block_threads : int;   (* product of Gpu_thread extents on path *)
  mutable local_stores : string list;
      (* buffers stored within the current innermost loop body: loads of
         them hit the cache (producer-consumer fusion locality) *)
  claims : Tiramisu_codegen.Tape_gen.claims;  (* the tape's nests (§11) *)
  lanes : int;     (* vector-tape lane width (<= 1: scalar tape) *)
  mutable in_tape : bool;
      (* inside a claimed nest: loop control runs as strength-reduced
         bytecode cursors, not closure dispatch *)
  mutable tape_vec : string option;
      (* the claimed nest's lane variable: its innermost one when the
         generator marked it lane-safe, or an accumulator's outer lane
         level ({!Tape_gen.outer_lane}) — that loop runs
         width-[lanes] batches, amortizing the per-instruction dispatch *)
}

let rec eval st (e : L.expr) : int =
  match e with
  | L.Int n -> n
  | L.Float f -> int_of_float f
  | L.Var v -> ( match Hashtbl.find_opt st.vars v with Some x -> x | None -> 0)
  | L.Neg a -> -eval st a
  | L.Cast (_, a) -> eval st a
  | L.Load _ -> 0
  | L.Select (c, a, b) -> if eval_cond st c then eval st a else eval st b
  | L.Call _ -> 0
  | L.Bin (op, a, b) -> (
      let x = eval st a and y = eval st b in
      match op with
      | L.Add -> x + y
      | L.Sub -> x - y
      | L.Mul -> x * y
      | L.Div -> if y = 0 then 0 else x / y
      | L.FloorDiv -> if y = 0 then 0 else Tiramisu_support.Ints.fdiv x y
      | L.Mod -> if y = 0 then 0 else Tiramisu_support.Ints.emod x y
      | L.MinOp -> Int.min x y
      | L.MaxOp -> Int.max x y)

and eval_cond st (c : L.cond) : bool =
  match c with
  | L.True -> true
  | L.And (a, b) -> eval_cond st a && eval_cond st b
  | L.Or (a, b) -> eval_cond st a || eval_cond st b
  | L.Not a -> not (eval_cond st a)
  | L.Cmp (op, a, b) -> (
      let x = eval st a and y = eval st b in
      match op with
      | L.EqOp -> x = y | L.NeOp -> x <> y | L.LtOp -> x < y
      | L.LeOp -> x <= y | L.GtOp -> x > y | L.GeOp -> x >= y)

(* Count arithmetic in a value expression (address arithmetic inside Load
   indices is considered free). *)
let rec flops_of (e : L.expr) : float =
  match e with
  | L.Int _ | L.Float _ | L.Var _ | L.Load _ -> 0.
  | L.Neg a | L.Cast (_, a) -> flops_of a
  | L.Bin (L.Div, a, b) -> 4. +. flops_of a +. flops_of b
  | L.Bin (_, a, b) -> 1. +. flops_of a +. flops_of b
  | L.Select (_, a, b) -> 1. +. flops_of a +. flops_of b
  | L.Call ("sqrt", args) | L.Call ("exp", args) | L.Call ("log", args) ->
      8. +. List.fold_left (fun acc a -> acc +. flops_of a) 0. args
  | L.Call (_, args) ->
      2. +. List.fold_left (fun acc a -> acc +. flops_of a) 0. args

let rec loads_of (e : L.expr) : (string * L.expr list) list =
  match e with
  | L.Int _ | L.Float _ | L.Var _ -> []
  | L.Load (b, idx) -> (b, idx) :: List.concat_map loads_of idx
  | L.Neg a | L.Cast (_, a) -> loads_of a
  | L.Bin (_, a, b) -> loads_of a @ loads_of b
  | L.Select (c, a, b) -> loads_of_cond c @ loads_of a @ loads_of b
  | L.Call (_, args) -> List.concat_map loads_of args

and loads_of_cond (c : L.cond) : (string * L.expr list) list =
  match c with
  | L.True -> []
  | L.Cmp (_, a, b) -> loads_of a @ loads_of b
  | L.And (a, b) | L.Or (a, b) -> loads_of_cond a @ loads_of_cond b
  | L.Not a -> loads_of_cond a

let flat_index st buf idx =
  match Hashtbl.find_opt st.bufs buf with
  | None -> List.fold_left (fun acc e -> (acc * 1024) + eval st e) 0 idx
  | Some (dims, _) ->
      let acc = ref 0 in
      List.iteri
        (fun k e ->
          let d = if k < Array.length dims then dims.(k) else 1 in
          acc := (!acc * d) + eval st e)
        idx;
      !acc

let buffer_bytes st buf =
  match Hashtbl.find_opt st.bufs buf with
  | None -> 1 lsl 24
  | Some (dims, _) -> 4 * Array.fold_left ( * ) 1 dims

let buffer_mem st buf =
  match Hashtbl.find_opt st.bufs buf with
  | None -> L.Host
  | Some (_, mem) -> mem

(* Stride of the flat index w.r.t. a loop variable. *)
let stride_wrt st buf idx v =
  let base = flat_index st buf idx in
  let old = Hashtbl.find_opt st.vars v in
  Hashtbl.replace st.vars v (Option.value old ~default:0 + 1);
  let bumped = flat_index st buf idx in
  (match old with
  | Some x -> Hashtbl.replace st.vars v x
  | None -> Hashtbl.remove st.vars v);
  bumped - base

(* A claimed program's access [a]'s flat step along level [l], from the
   buffer's row-major strides as [Tape.bind] computes it; 0 when the
   buffer is unknown or its rank differs, where the bind fails. *)
let tape_step st (p : Tiramisu_codegen.Tape_gen.program) a l =
  let module T = Tiramisu_codegen.Tape_gen in
  let ac = p.T.p_accesses.(a) in
  match Hashtbl.find_opt st.bufs ac.T.ac_buf with
  | Some (dims, _) when Array.length dims = Array.length ac.T.ac_idx ->
      let strides = Buffers.strides_of dims and v = p.T.p_levels.(l).T.lv_var in
      let step = ref 0 in
      Array.iteri
        (fun k (ts, _) ->
          List.iter
            (fun (u, c) -> if u = v then step := !step + (c * strides.(k)))
            ts)
        ac.T.ac_idx;
      !step
  | _ -> 0

(* Amortization for register promotion: an access whose address is fixed
   across the innermost sequential loop (e.g. the gemm accumulator along k)
   is kept in a register by any serious backend, paying its cost once per
   loop entry rather than per iteration. *)
let promotion_factor st buf idx =
  match st.stack with
  | f :: _
    when (match f.f_tag with
         | L.Seq | L.Unrolled | L.Vectorized _ -> true
         | _ -> false)
         && stride_wrt st buf idx f.f_var = 0
         && f.f_extent > 1 ->
      1.0 /. float_of_int f.f_extent
  | _ -> 1.0

(* Cost of one execution of a single memory access. *)
let access_cost st ?(is_store = false) (buf, idx) =
  ignore is_store;
  let m = st.m in
  let promo = promotion_factor st buf idx in
  if st.in_gpu then begin
    let g = m.M.gpu in
    (* Occupancy: small thread blocks leave SMs idle. *)
    let occ =
      if st.block_threads <= 0 then 1.0
      else Float.max 1.0 (sqrt (192.0 /. float_of_int st.block_threads))
    in
    let base =
      if List.mem buf st.local_stores then
        (* produced by this very thread in this loop body: register reuse *)
        g.M.lat_shared *. 0.5
      else
        match buffer_mem st buf with
        | L.Gpu_shared | L.Gpu_local -> g.M.lat_shared
        | L.Gpu_constant -> g.M.lat_constant
        | _ -> (
            (* Global memory: coalescing w.r.t. the x thread axis
               (threadIdx.x decides the memory transaction shape). *)
            let thread_x =
              List.find_opt
                (fun f -> f.f_tag = L.Gpu_thread 0)
                st.stack
            in
            match thread_x with
            | Some f ->
                let s = abs (stride_wrt st buf idx f.f_var) in
                if s = 0 then
                  (* broadcast from global: served by L2, slower than the
                     constant cache — the tag_gpu_constant() win (§VI-B) *)
                  4.0 *. g.M.lat_constant
                else if s = 1 then g.M.lat_coalesced
                else g.M.lat_global
            | None -> g.M.lat_global)
    in
    (base *. occ *. promo, 4. *. promo)
  end
  else if List.mem buf st.local_stores then
    (* Produced in this very loop body: register/L1 reuse — the locality
       fusion buys (nb, VGG; §VI-B). *)
    (m.M.lat_l1 *. promo, 0.)
  else begin
    (* Innermost loop whose variable moves this access. *)
    let rec find_varying = function
      | [] -> None
      | f :: rest ->
          let s = stride_wrt st buf idx f.f_var in
          if s <> 0 then Some (f, s, rest) else find_varying rest
    in
    match find_varying st.stack with
    | None -> (m.M.lat_l1, 0.)
    | Some (_f, s, outer) ->
        let s = abs s in
        (* A cache line is amortized along whichever (inner) loop walks this
           access with the smallest stride — e.g. a conv input indexed
           [c][y][x] with c innermost still enjoys unit-stride line reuse
           along x. *)
        let best_stride =
          List.fold_left
            (fun acc fr ->
              let sf = abs (stride_wrt st buf idx fr.f_var) in
              if sf <> 0 then min acc sf else acc)
            s st.stack
        in
        let miss_rate =
          Float.min 1.0
            (float_of_int best_stride /. float_of_int m.M.cache_line)
        in
        (* Reuse loop: innermost enclosing loop that does NOT move the
           access; its body's distinct-element footprint decides which cache
           level serves the misses. *)
        let footprint_inside frames =
          (* distinct elements touched by this access inside [frames]
             (the loops inner to the reuse loop), approximated by the
             product of extents of varying loops. *)
          let prod = ref 1.0 in
          List.iter
            (fun fr ->
              if stride_wrt st buf idx fr.f_var <> 0 then
                prod := !prod *. float_of_int (max 1 fr.f_extent))
            frames;
          Float.min (!prod *. 4.0) (float_of_int (buffer_bytes st buf))
        in
        let rec find_reuse inner = function
          | [] -> None
          | f :: rest ->
              if stride_wrt st buf idx f.f_var = 0 then Some inner
              else find_reuse (inner @ [ f ]) rest
        in
        let lat_src =
          match find_reuse [] st.stack with
          | Some inner_frames ->
              let fp = footprint_inside inner_frames in
              if fp <= float_of_int m.M.l1 then m.M.lat_l1
              else if fp <= float_of_int m.M.l2 then m.M.lat_l2
              else if fp <= float_of_int m.M.l3 then m.M.lat_l3
              else m.M.lat_mem
          | None ->
              (* Streamed once: served from the level that fits the whole
                 buffer, or memory. *)
              let b = float_of_int (buffer_bytes st buf) in
              if b <= float_of_int m.M.l2 then m.M.lat_l2
              else if b <= float_of_int m.M.l3 then m.M.lat_l3
              else m.M.lat_mem
        in
        ignore outer;
        (* Only misses served by DRAM count toward the bandwidth bound. *)
        let dram_bytes =
          if lat_src >= m.M.lat_mem then miss_rate *. 64. else 0.
        in
        ((m.M.lat_l1 +. (miss_rate *. lat_src)) *. promo,
         dram_bytes *. promo)
  end

let rec walk st (s : L.stmt) : cost =
  let m = st.m in
  match s with
  | L.Block l -> List.fold_left (fun acc s -> acc ++ walk st s) zero l
  | L.Comment _ -> zero
  | L.Barrier ->
      { zero with c_overhead = (if st.in_gpu then 20.0 else 200.0) }
  | L.If (c, t, e) ->
      let branch = { zero with c_overhead = m.M.branch } in
      let body =
        if eval_cond st c then walk st t
        else match e with Some e -> walk st e | None -> zero
      in
      (* Divergent control flow is costly inside GPU kernels (the PENCIL
         comparison in §VI-B hinges on this) — but only when the condition
         actually depends on thread indices; uniform branches are free. *)
      let rec cond_vars (c : L.cond) =
        let rec expr_vars (e : L.expr) =
          match e with
          | L.Var v -> [ v ]
          | L.Int _ | L.Float _ -> []
          | L.Load (_, idx) -> List.concat_map expr_vars idx
          | L.Bin (_, a, b) -> expr_vars a @ expr_vars b
          | L.Neg a | L.Cast (_, a) -> expr_vars a
          | L.Select (c, a, b) -> cond_vars c @ expr_vars a @ expr_vars b
          | L.Call (_, args) -> List.concat_map expr_vars args
        in
        match c with
        | L.True -> []
        | L.Cmp (_, a, b) -> expr_vars a @ expr_vars b
        | L.And (a, b) | L.Or (a, b) -> cond_vars a @ cond_vars b
        | L.Not a -> cond_vars a
      in
      let divergent =
        st.in_gpu
        && List.exists
             (fun v ->
               List.exists
                 (fun f ->
                   f.f_var = v
                   && match f.f_tag with L.Gpu_thread _ -> true | _ -> false)
                 st.stack)
             (cond_vars c)
      in
      let body =
        if divergent then scale m.M.gpu.M.divergence_penalty body else body
      in
      branch ++ body
  | L.Store (b, idx, v) ->
      let fl = flops_of v in
      (* gflop_ns is per scalar op at full-chip throughput: GPU grids are
         modeled as throughput-limited, so grid loops multiply normally. *)
      let flop_time =
        fl *. (if st.in_gpu then m.M.gpu.M.gflop_ns else m.M.flop)
      in
      let accesses =
        ((b, idx) :: List.map (fun (bb, ii) -> (bb, ii)) (loads_of v))
      in
      let mem, bytes =
        List.fold_left
          (fun (t, by) acc ->
            let c, b' = access_cost st acc in
            (t +. c, by +. b'))
          (0., 0.) accesses
      in
      {
        zero with
        c_compute = flop_time;
        c_memory = mem;
        c_flops = fl;
        c_bytes = bytes;
      }
  | L.Alloc a ->
      { zero with c_overhead = 100.0 } ++ walk st a.body
  | L.Memcpy { src; _ } ->
      let bytes = float_of_int (buffer_bytes st src) in
      {
        zero with
        c_comm = bytes /. m.M.gpu.M.copy_bandwidth;  (* GB/s = B/ns *)
        c_bytes = bytes;
        c_msgs = 1.;
      }
  | L.Send { count; props; _ } ->
      let bytes = 4.0 *. float_of_int (max 0 (eval st count)) in
      let t = m.M.net.M.alpha +. (bytes *. m.M.net.M.beta) in
      {
        zero with
        c_comm = (if props.L.async then 0.4 *. t else t);
        c_bytes = bytes;
        c_msgs = 1.;
      }
  | L.Recv { count; _ } ->
      let bytes = 4.0 *. float_of_int (max 0 (eval st count)) in
      { zero with c_comm = m.M.net.M.alpha +. (bytes *. m.M.net.M.beta);
        c_bytes = bytes; c_msgs = 1. }
  | L.For { var; lo; hi; tag; body } as whole ->
      let lo_v = eval st lo and hi_v = eval st hi in
      let extent = max 0 (hi_v - lo_v + 1) in
      if extent = 0 then zero
      else begin
        let saved_tape = st.in_tape in
        let saved_vec = st.tape_vec in
        (if not st.in_tape then
           match Tiramisu_codegen.Tape_gen.find st.claims whole with
           | Some p ->
               let module T = Tiramisu_codegen.Tape_gen in
               st.in_tape <- true;
               let lane l = Some p.T.p_levels.(l).T.lv_var in
               if st.lanes > 1 then
                 st.tape_vec <-
                   (if p.T.p_vec_ok then lane (Array.length p.T.p_levels - 1)
                    else
                      match T.outer_lane p ~step:(tape_step st p) with
                      | Some (T.Lane_level l) -> lane l
                      | _ -> None)
           | None -> ());
        let mid = lo_v + ((extent - 1) / 2) in
        let saved = Hashtbl.find_opt st.vars var in
        Hashtbl.replace st.vars var mid;
        st.stack <- { f_var = var; f_extent = extent; f_tag = tag } :: st.stack;
        let saved_local = st.local_stores in
        (* Buffers stored directly in this loop's body (not under deeper
           loops): loads of them within the same body are cache-resident. *)
        let rec direct_stores (s : L.stmt) =
          match s with
          | L.Store (b, _, _) -> [ b ]
          | L.Block l -> List.concat_map direct_stores l
          | L.If (_, t, e) ->
              direct_stores t
              @ (match e with Some e -> direct_stores e | None -> [])
          | _ -> []
        in
        st.local_stores <- direct_stores body;
        let saved_gpu = st.in_gpu in
        let saved_bt = st.block_threads in
        (match tag with
        | L.Gpu_block _ -> st.in_gpu <- true
        | L.Gpu_thread _ ->
            st.in_gpu <- true;
            st.block_threads <-
              (if st.block_threads <= 0 then extent
               else st.block_threads * extent)
        | _ -> ());
        let c = walk st body in
        let in_tape = st.in_tape in
        let batched =
          in_tape
          && (match st.tape_vec with Some v -> v = var | None -> false)
          && (match tag with L.Vectorized _ -> false | _ -> true)
        in
        st.in_tape <- saved_tape;
        st.tape_vec <- saved_vec;
        st.stack <- List.tl st.stack;
        st.in_gpu <- saved_gpu;
        st.block_threads <- saved_bt;
        st.local_stores <- saved_local;
        (match saved with
        | Some x -> Hashtbl.replace st.vars var x
        | None -> Hashtbl.remove st.vars var);
        let e = float_of_int extent in
        (* Lane batching of the claimed nest's innermost loop: one
           bytecode dispatch covers [lanes] elements and unit-stride
           loads/stores become blits, so the per-element compute/dispatch
           cost amortizes the same way a [Vectorized] driver's does. *)
        let c =
          if not batched then c
          else begin
            let f = float_of_int (min st.lanes st.m.M.vec_width) in
            {
              c with
              c_compute = c.c_compute /. f;
              c_memory = c.c_memory *. (0.25 +. (0.75 /. f));
            }
          end
        in
        match tag with
        | L.Seq ->
            (* Inside a tape-claimed nest, loop control is bytecode cursor
               bumps — nearly free (the 1.9-2.8x tape-vs-closure wins are
               mostly this term).  Outside a claimed nest a tape-claimable
               leaf (straight-line affine stores) keeps a partial
               discount; with [~tape] off (the figure calibration) it
               stands in for the tape, which claims such leaves whenever
               their nest is rectangular. *)
            let oh =
              if in_tape then m.M.loop_overhead *. 0.05
              else if L.spec_candidate whole then
                m.M.loop_overhead *. 0.25
              else m.M.loop_overhead
            in
            scale e c ++ { zero with c_overhead = e *. oh }
        | L.Unrolled ->
            let oh = if in_tape then 0.05 else 0.15 in
            scale e c ++ { zero with c_overhead = e *. m.M.loop_overhead *. oh }
        | L.Vectorized w ->
            let f = float_of_int (min w m.M.vec_width) in
            let c' =
              {
                c with
                c_compute = c.c_compute /. f;
                c_memory = c.c_memory *. (0.25 +. (0.75 /. f));
              }
            in
            scale e c'
        | L.Parallel ->
            let p = float_of_int (min extent m.M.cores) in
            let r =
              scale (e /. p)
                (c ++ { zero with c_overhead = m.M.loop_overhead })
              ++ { zero with c_overhead = m.M.parallel_overhead }
            in
            (* p cores streaming together saturate DRAM bandwidth: the
               aggregate-bytes bound can exceed the per-core latency bound. *)
            let bw_bound = e *. c.c_bytes *. m.M.mem_bw in
            { r with c_memory = Float.max r.c_memory bw_bound }
        | L.Distributed ->
            (* SPMD: wall-clock is one rank's share (assumed balanced). *)
            c ++ { zero with c_overhead = m.M.loop_overhead }
        | L.Gpu_block _ | L.Gpu_thread _ ->
            (* Throughput model: per-op/per-access GPU constants already
               express full-chip parallel throughput, so the grid loops
               multiply normally; one launch cost per kernel. *)
            let launch =
              if saved_gpu || st.launch_charged then 0.0
              else begin
                st.launch_charged <- true;
                m.M.gpu.M.kernel_launch
              end
            in
            scale e c ++ { zero with c_overhead = launch }
      end

let estimate ?(machine = M.default) ?(tape = false)
    ?(lanes = Tape.default_lanes) ~params
    ~buffers stmt =
  let st =
    {
      m = machine;
      vars = Hashtbl.create 32;
      bufs = Hashtbl.create 32;
      stack = [];
      in_gpu = false;
      launch_charged = false;
      block_threads = 0;
      local_stores = [];
      claims =
        (if tape then Tiramisu_codegen.Tape_gen.claims stmt
         else Tiramisu_codegen.Tape_gen.no_claims);
      lanes;
      in_tape = false;
      tape_vec = None;
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace st.vars k v) params;
  List.iter (fun (k, dims, mem) -> Hashtbl.replace st.bufs k (dims, mem)) buffers;
  let c = walk st stmt in
  {
    time_ns = c.c_compute +. c.c_memory +. c.c_overhead +. c.c_comm;
    compute_ns = c.c_compute;
    memory_ns = c.c_memory;
    overhead_ns = c.c_overhead;
    comm_ns = c.c_comm;
    flops = c.c_flops;
    bytes = c.c_bytes;
    messages = int_of_float c.c_msgs;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "time %.3f ms (compute %.3f, memory %.3f, overhead %.3f, comm %.3f) \
     flops %.3g bytes %.3g msgs %d"
    (r.time_ns /. 1e6) (r.compute_ns /. 1e6) (r.memory_ns /. 1e6)
    (r.overhead_ns /. 1e6) (r.comm_ns /. 1e6) r.flops r.bytes r.messages
