(* The flat-tape executor: binds an abstract {!Tiramisu_codegen.Tape_gen}
   program against concrete buffers and runs it with no closures, no env
   lookups and no allocation in the hot loop.

   Binding strength-reduces the addressing once: per access, the affine
   index of every dimension folds with the buffer's strides into a single
   flat base (affine over env slots of names outside the nest) plus one
   integer step per nest level.  Execution walks the nest as an odometer
   over "segments" — maximal runs of the innermost variable — and per
   segment recomputes each cursor from the base and the current outer
   indices, then runs the instruction tape once per iteration with
   constant cursor bumps.

   Binding also builds an "execution view" of the nest: trailing levels
   whose fold is a pure linearization — constant 0-based inner bounds,
   every access stepping through the pair as one flat run, no body use of
   either variable — are merged, so a [lane][channel] tail becomes one
   long unit-stride segment, and a nest with no parallel prefix may merge
   all the way to level 0 (conv2D's steady [j.j_v] rows: one 112-wide
   run).  The merge never folds into the parallel prefix, the range
   callers split across workers.  It preserves iteration order exactly,
   so it is semantically invisible; entry corner checks keep the
   original per-level view.

   On top of the exec view sits the vector tier: when the generator
   marked the program lane-batchable ([p_vec_ok]) and the caller asked
   for [lanes] > 1, binding derives a vector tape from the scalar code —
   loads and stores specialized by their now-known innermost step into
   unit (blit), strided and broadcast forms, ALU opcodes re-read with
   lane-wise semantics over a vector register file.  The width is an
   interpreter strip, not a hardware vector: a vector dispatch costs the
   same however many floats it covers, so a segment runs as few batches
   as it can — [len / w] full ones, the remainder as one narrower batch,
   and only a single leftover iteration through the scalar tape.  Each
   lane applies the same float operations in the same order as the
   scalar interpreter, so results stay bit-identical.  [w] is the
   request fitted to the nest: capped by the exec-inner extent when that
   is a bind-time constant, and by the distance at which two stores into
   one buffer would meet across lanes.  A state allocates its lane
   registers at its first vector batch, at the width that batch needs.
   Programs with inexact store/load aliasing never batch (the
   generator's analysis), and at bind time a read-modify-write access
   with innermost step 0, or two stores into one buffer whose lanes meet
   one lane apart, fall back to scalar (lanes must touch distinct
   addresses, and stores must not overtake each other).

   An accumulator never batches along its innermost (reduction) level:
   that would reassociate the sum.  It batches along the level above
   instead ([Outer]), when the schedule tagged that level [Vectorized]
   (sgemm's [j1_v] above [k1]) — register blocking.  That level is
   merged with its linearizable parents into one lane run; each batch of
   [w] positions loads the accumulator into a lane register, runs the
   whole innermost loop through the vector tape (loads specialized by
   their step along the lane level: broadcast, unit or strided), and
   stores it once.  Lane [j] computes position [j]'s sum in the scalar
   order, and the accumulator is the only stored access and moves along
   the lane level, so lanes never share an address: the batch is exact.
   Positions past the last full batch run as one narrower batch (a
   single leftover position runs scalar).

   An [Outer] batch may also be 2-D.  When the lane run stops merging at
   a level that is outside the parallel prefix, has constant bounds and a
   variable the body does not read, that level becomes a row level: a
   batch covers [rows] of its positions times [w] run positions, [rows =
   min(extent, lanes / w)] (sgemm's [i1] above [j1 x j1_v]: C's row
   stride does not linearize with the run, so the 1-D run is only 8
   wide).  Vector loads and stores address row [r] at [r] row steps past
   the cursor.  The accumulator's row step must clear a whole run,
   [|S_r| >= w * |S_c|], so the [rows x w] addresses are distinct and each
   lane still owns one; the exactness argument is the 1-D one.  Every
   binding records its decision as a {!lane_mode}, with a typed reason
   when scalar.

   The iteration space of the [Parallel] tag prefix (levels [0..p_par-1])
   is linearized into a single fused range the caller may split across
   workers (one point when there is no prefix): ranges of the fused space
   never cut a sequential subnest, so accumulators and loop-carried
   store/load orders inside it are preserved exactly.  When the whole
   nest is the prefix, segments are additionally clipped to the caller's
   range (and the generator emitted no accumulator for that shape).

   Entry corner checks cover the whole box at once: every access
   dimension's min and max over all levels' ranges are computed from the
   coefficient signs, so a passing check makes every executed iteration
   in-bounds with no per-access checks inside the loop.  Dimensions that
   differ only by their constant (a stencil's taps) share one check over
   the extreme constants, which passes exactly when each of theirs would.  A failing check
   (or a zero-extent level: nothing to do) is reported to the caller, who
   falls back to the generic closure path — whose per-access checks then
   raise at exactly the faulting iteration. *)

module T = Tiramisu_codegen.Tape_gen

type baccess = {
  b_data : float array;
  b_base : int array -> int;  (* env -> flat offset with all nest ivs 0 *)
  b_steps : int array;        (* flat-offset step per unit of each level *)
  b_rest : (string * int) list * int;
    (* the base as data: sorted non-nest flat terms and the constant *)
}

(* One whole-box bounds check, shared by every access dimension of the
   same extent whose index differs from the others only by its constant
   (a stencil's taps): [c_lo]/[c_hi] are the extreme constants. *)
type dimchk = {
  c_coeffs : int array;       (* per nest level *)
  c_rest : int array -> int;  (* env -> non-nest, non-constant part *)
  c_lo : int;
  c_hi : int;
  c_dim : int;
}

type scalar_reason =
  | Lanes_off
  | Not_lane_safe
  | Rmw_step_zero
  | Store_collision
  | Accum_no_lane_level
  | Accum_reads_lane_var
  | Accum_step_zero

type lane_mode =
  | Inner of int
  | Outer of { rows : (string * int) option; level : string; width : int }
  | Scalar of scalar_reason

let default_lanes = 128

let reason_to_string = function
  | Lanes_off -> "lanes off"
  | Not_lane_safe -> "not lane-safe"
  | Rmw_step_zero -> "read-modify-write step 0"
  | Store_collision -> "store collision"
  | Accum_no_lane_level -> "accumulator without a vectorized level above it"
  | Accum_reads_lane_var -> "accumulator body reads a lane variable"
  | Accum_step_zero -> "accumulator step 0 along the lane level"

let mode_to_string = function
  | Inner w -> Printf.sprintf "inner x%d" w
  | Outer { rows = None; level; width } ->
      Printf.sprintf "outer %s x%d" level width
  | Outer { rows = Some (row, n); level; width } ->
      Printf.sprintf "outer %s x%d × %s x%d" row n level width
  | Scalar r -> "scalar (" ^ reason_to_string r ^ ")"

type t = {
  t_d : int;                   (* nest depth (original view) *)
  t_split : int;
    (* fused split depth: p_par (0 when the nest has no parallel prefix,
       so the exec-view merge may reach level 0) *)
  t_nregs : int;
  t_lits : (int * float) array;
  t_hoists : (int * int) array;     (* (reg, env slot) *)
  t_accum : (int * int * bool) option;
  t_code : int array;
  t_accs : baccess array;
  t_datas : float array array;      (* per access, aliases t_accs *)
  t_checks : dimchk array;
  t_lo : (int array -> int) array;  (* per original level (entry checks) *)
  t_hi : (int array -> int) array;
  t_promos : (int * int) array;
  (* --- execution view: trailing levels merged where linearizable --- *)
  t_xd : int;                       (* exec depth, <= t_d *)
  t_xlo : (int array -> int) array; (* per exec level *)
  t_xhi : (int array -> int) array;
  t_xivregs : int array;            (* per exec level *)
  t_xsteps : int array array;       (* per access, per exec level *)
  t_inner_steps : int array;        (* per access, step of the exec-inner level *)
  t_pieces : ((int array -> int) * (int array -> int)) array array;
    (* guarded-piece bounds, piece-major then level-major; [||] when the
       program's leaf was unguarded (no per-entry coverage check) *)
  (* --- vector tier --- *)
  t_mode : lane_mode;
  t_lanes : int;
    (* lanes of the widest batch, 0 = scalar: the fitted width, times the
       row count for a 2-D [Outer] block *)
  t_rows : int;                     (* [Outer] rows per batch, 1 = 1-D *)
  t_vcode : int array;              (* derived vector tape ([||] if scalar) *)
  t_vpro : int array;
    (* [Outer]: per-batch vector loads of the promoted registers and the
       accumulator, before the innermost loop *)
  t_vepi : int array;               (* [Outer]: the accumulator's store *)
  t_vlivein : int array;
    (* registers the vector tape reads before writing (minus the batched
       iteration variable): the only ones whose scalar value must be
       broadcast into lanes at segment (or lane-run) entry *)
  t_bsteps : int array;             (* per access, step of the batched level *)
  t_rsteps : int array;
    (* per access, step of the row level ([t_rows] > 1), else 0 *)
  t_iv_vec : bool;                  (* body reads the batched level's var *)
}

type state = {
  regs : float array;
  mutable vregs : float array array;
    (* lane registers: empty until the first vector batch, then grown to
       the widest batch so far (at most [t_lanes]) *)
  cur : int array;     (* flat cursor per access *)
  abase : int array;   (* per-range base per access *)
  ivs : int array;     (* integer odometer per exec level *)
  lbase : int array;   (* [Outer]: per access, cursor at the batch start *)
  los : int array;
  exts : int array;
  fstr : int array;    (* fused-space stride per split level *)
}

let affine_fn ~slot ((ts, c) : T.affine) : int array -> int =
  match ts with
  | [] -> fun _ -> c
  | [ (v, a) ] ->
      let s = slot v in
      fun env -> (a * env.(s)) + c
  | ts ->
      let pairs = Array.of_list (List.map (fun (v, a) -> (slot v, a)) ts) in
      fun env ->
        let x = ref c in
        Array.iter (fun (s, a) -> x := !x + (a * env.(s))) pairs;
        !x

(* Bound-expression compiler: euclidean floordiv/mod, matching the
   interpreter and the closure path exactly. *)
let rec bexpr_fn ~slot (e : T.bexpr) : int array -> int =
  match e with
  | T.Baff a -> affine_fn ~slot a
  | T.Badd (x, y) ->
      let f = bexpr_fn ~slot x and g = bexpr_fn ~slot y in
      fun env -> f env + g env
  | T.Bsub (x, y) ->
      let f = bexpr_fn ~slot x and g = bexpr_fn ~slot y in
      fun env -> f env - g env
  | T.Bscale (x, k) ->
      let f = bexpr_fn ~slot x in
      fun env -> k * f env
  | T.Bmin (x, y) ->
      let f = bexpr_fn ~slot x and g = bexpr_fn ~slot y in
      fun env -> min (f env) (g env)
  | T.Bmax (x, y) ->
      let f = bexpr_fn ~slot x and g = bexpr_fn ~slot y in
      fun env -> max (f env) (g env)
  | T.Bfdiv (x, k) ->
      let f = bexpr_fn ~slot x in
      fun env -> Tiramisu_support.Ints.fdiv (f env) k
  | T.Bmod (x, k) ->
      let f = bexpr_fn ~slot x in
      fun env -> Tiramisu_support.Ints.emod (f env) k

(* Constant bounds of a level, when statically known. *)
let const_bounds (lv : T.level) =
  match (lv.T.lv_lo, lv.T.lv_hi) with
  | T.Baff ([], lo), T.Baff ([], hi) -> Some (lo, hi)
  | _ -> None

(* [bind p ~buf ~slot] resolves buffer names and free names; [None] when
   a buffer is unknown or its rank does not match the access.  [lanes]
   asks for vector execution at most that wide; it takes effect only
   when the program is lane-batchable (see the header comment). *)
let bind ?(lanes = 0) ~(buf : string -> Buffers.t option)
    ~(slot : string -> int) (p : T.program) : t option =
  let d = Array.length p.T.p_levels in
  let nest_vars =
    Array.to_list (Array.map (fun l -> l.T.lv_var) p.T.p_levels)
  in
  let level_of v =
    let rec go l = if p.T.p_levels.(l).T.lv_var = v then l else go (l + 1) in
    go 0
  in
  let exception Unbound in
  try
    let checks : (int * int list * (string * int) list, int * int) Hashtbl.t
        =
      Hashtbl.create 16
    in
    let accs =
      Array.map
        (fun (a : T.access) ->
          let b = match buf a.T.ac_buf with Some b -> b | None -> raise Unbound in
          let dims = b.Buffers.dims in
          if Array.length dims <> Array.length a.T.ac_idx then raise Unbound;
          let strides = Buffers.strides_of dims in
          let steps = Array.make d 0 in
          (* non-nest part of the flat offset, merged across dimensions *)
          let rest_terms : (string, int) Hashtbl.t = Hashtbl.create 4 in
          let rest_const = ref 0 in
          Array.iteri
            (fun k (ts, c) ->
              let stride = strides.(k) in
              let dim_coeffs = Array.make d 0 in
              let dim_rest = ref [] in
              List.iter
                (fun (v, coeff) ->
                  if List.mem v nest_vars then begin
                    let l = level_of v in
                    steps.(l) <- steps.(l) + (coeff * stride);
                    dim_coeffs.(l) <- dim_coeffs.(l) + coeff
                  end
                  else begin
                    let prev =
                      Option.value ~default:0 (Hashtbl.find_opt rest_terms v)
                    in
                    Hashtbl.replace rest_terms v (prev + (coeff * stride));
                    dim_rest := (v, coeff) :: !dim_rest
                  end)
                ts;
              rest_const := !rest_const + (c * stride);
              let key =
                (dims.(k), Array.to_list dim_coeffs, List.sort compare !dim_rest)
              in
              Hashtbl.replace checks key
                (match Hashtbl.find_opt checks key with
                | Some (lo, hi) -> (min lo c, max hi c)
                | None -> (c, c)))
            a.T.ac_idx;
          let rest =
            List.sort compare
              (Hashtbl.fold
                 (fun v c acc -> if c = 0 then acc else (v, c) :: acc)
                 rest_terms [])
          in
          { b_data = b.Buffers.data;
            b_base = affine_fn ~slot (rest, !rest_const);
            b_steps = steps;
            b_rest = (rest, !rest_const) })
        p.T.p_accesses
    in
    let nacc = Array.length accs in
    let lo = Array.map (fun l -> bexpr_fn ~slot l.T.lv_lo) p.T.p_levels in
    let hi = Array.map (fun l -> bexpr_fn ~slot l.T.lv_hi) p.T.p_levels in
    (* An accumulator nest batches lanes along the level above its
       innermost one, or not at all.  The generator names that level
       ([outer_lane_level]: tagged [Vectorized], outside the parallel
       prefix); batching along it is exact when the body reads neither
       lane variable and the accumulator's address moves along it, so
       every lane owns one address (the generator already made the
       accumulator the only stored access, aliased by every load of its
       buffer). *)
    let outer =
      match p.T.p_accum with
      | None -> Ok None
      | Some (_, ai, _) -> (
          if lanes <= 1 then Error Lanes_off
          else
            match T.outer_lane_level p with
            | None -> Error Accum_no_lane_level
            | Some l ->
                if p.T.p_ivuse.(l) || p.T.p_ivuse.(d - 1) then
                  Error Accum_reads_lane_var
                else if accs.(ai).b_steps.(l) = 0 then Error Accum_step_zero
                else Ok (Some l))
    in
    let split = p.T.p_par in
    (* execution view: greedily fold a level into its parent while the
       fold is a pure linearization.  Conditions: the child level has
       constant bounds [0..e-1]; the pair is outside the fused split
       space (the parallel prefix: with none, the fold may reach level
       0); the body reads neither variable's register; every access
       steps through the pair as one flat run (outer step = e * inner
       step, which also keeps promoted loads segment-invariant).  The
       child is the innermost level, or — for an accumulator batched
       along an outer level — that lane level, so sgemm's [j1 x j1_v]
       becomes one lane run; an accumulator otherwise folds nothing. *)
    let xd = ref d in
    let xlo = Array.copy lo and xhi = Array.copy hi in
    let xiv = Array.copy p.T.p_ivregs in
    let xsteps = Array.map (fun a -> Array.copy a.b_steps) accs in
    let child, stop =
      match outer with
      | Ok (Some l) -> (l, false)
      | _ -> (d - 1, p.T.p_accum <> None || p.T.p_ivuse.(d - 1))
    in
    let child = ref child and stop = ref stop in
    let inner_c = ref (const_bounds p.T.p_levels.(!child)) in
    while (not !stop) && !child >= 1 do
      let li = !child - 1 in
      match !inner_c with
      | Some (0, hi_i)
        when hi_i >= 0 && li >= split && not p.T.p_ivuse.(li) ->
          let e = hi_i + 1 in
          let ok = ref true in
          for a = 0 to nacc - 1 do
            if xsteps.(a).(li) <> e * xsteps.(a).(li + 1) then ok := false
          done;
          if !ok then begin
            let lo_o = xlo.(li) and hi_o = xhi.(li) in
            xlo.(li) <- (fun env -> lo_o env * e);
            xhi.(li) <- (fun env -> (hi_o env * e) + e - 1);
            for a = 0 to nacc - 1 do
              xsteps.(a).(li) <- xsteps.(a).(li + 1)
            done;
            xiv.(li) <- xiv.(li + 1);
            (* close the gap the child leaves (non-empty only when the
               child is an outer lane level) *)
            for m = li + 1 to !xd - 2 do
              xlo.(m) <- xlo.(m + 1);
              xhi.(m) <- xhi.(m + 1);
              xiv.(m) <- xiv.(m + 1);
              for a = 0 to nacc - 1 do
                xsteps.(a).(m) <- xsteps.(a).(m + 1)
              done
            done;
            inner_c :=
              (match const_bounds p.T.p_levels.(li) with
              | Some (clo, chi) -> Some (clo * e, (chi * e) + e - 1)
              | None -> None);
            child := li;
            decr xd
          end
          else stop := true
      | _ -> stop := true
    done;
    let xd = !xd in
    let inner_steps = Array.init nacc (fun a -> xsteps.(a).(xd - 1)) in
    (* Two stores into one buffer keep their scalar order within an
       iteration but not across the lanes of a batch.  Equal steps and
       non-nest terms make their offsets differ by a constant [d] at
       every point; with inner step [s <> 0], a lane of one meets a lane
       of the other exactly when [d = s*k], [k] the lane distance, so the
       pair caps the width at [|k|] (any other pair shape at 1: scalar). *)
    let collision_cap (i, j) =
      let a = accs.(i) and b = accs.(j) in
      let s = inner_steps.(i) in
      let d = snd a.b_rest - snd b.b_rest in
      if a.b_steps <> b.b_steps || fst a.b_rest <> fst b.b_rest || s = 0 then 1
      else if d mod s <> 0 || d = 0 then max_int
      else abs (d / s)
    in
    (* the widest batch lanes may take: the exec-inner extent (the lane
       run for [Outer]) when it is a bind-time constant, capped by the
       request — a wider register file would only hold dead lanes *)
    let fit =
      match !inner_c with
      | Some (clo, chi) -> max 2 (min lanes (chi - clo + 1))
      | None -> lanes
    in
    (* A 2-D block for an [Outer] binding: the level directly above the
       merged lane run becomes a row level when it is outside the split
       prefix, has constant bounds and an unread variable, and the
       accumulator's row step clears a whole run ([|S_r| >= fit * |S_c|]),
       so the rows' addresses are disjoint and each lane of a
       [rows x fit] batch still owns one accumulator address.  Fewer than
       two rows leaves the 1-D run. *)
    let rows =
      match (outer, p.T.p_accum, !inner_c) with
      | Ok (Some _), Some (_, ai, _), Some _ ->
          let rl = !child - 1 in
          if rl < split || p.T.p_ivuse.(rl) then None
          else begin
            match const_bounds p.T.p_levels.(rl) with
            | Some (rlo, rhi) ->
                let n = Int.min (rhi - rlo + 1) (lanes / fit) in
                let s_r = xsteps.(ai).(rl) and s_c = xsteps.(ai).(xd - 2) in
                if n >= 2 && abs s_r >= fit * abs s_c then Some (rl, n)
                else None
            | None -> None
          end
      | _ -> None
    in
    (* the lane decision: along the outer level proven above, along the
       innermost level when the program is lane-batchable, every
       read-modify-write access has lanes on distinct addresses and no
       two stores into one buffer meet within a batch of at least two
       lanes (their distance caps the width) — otherwise scalar, and why *)
    let mode =
      match outer with
      | Ok (Some l) ->
          Outer
            { rows =
                Option.map
                  (fun (rl, n) -> (p.T.p_levels.(rl).T.lv_var, n))
                  rows;
              level = p.T.p_levels.(l).T.lv_var;
              width = fit }
      | Error r -> Scalar r
      | Ok None ->
          let cap =
            Array.fold_left
              (fun m pr -> min m (collision_cap pr))
              max_int p.T.p_store_pairs
          in
          if lanes <= 1 then Scalar Lanes_off
          else if Array.exists (fun i -> inner_steps.(i) = 0) p.T.p_rmw then
            Scalar Rmw_step_zero
          else if not p.T.p_vec_ok then Scalar Not_lane_safe
          else if cap < 2 then Scalar Store_collision
          else Inner (min fit cap)
    in
    let nrows = match rows with Some (_, n) -> n | None -> 1 in
    let lanes_eff =
      match mode with
      | Inner w -> w
      | Outer { width; _ } -> width * nrows
      | Scalar _ -> 0
    in
    (* the batched level: its steps specialize the vector memory ops *)
    let bsteps =
      match mode with
      | Outer _ -> Array.init nacc (fun a -> xsteps.(a).(xd - 2))
      | Inner _ | Scalar _ -> inner_steps
    in
    let vload dst a =
      let s = bsteps.(a) in
      if s = 0 then [| T.op_vload_bcast; dst; a; 0 |]
      else if s = 1 then [| T.op_vload_unit; dst; a; 0 |]
      else [| T.op_vload_strided; dst; a; s |]
    in
    let vstore a src =
      let s = bsteps.(a) in
      if s = 1 then [| T.op_vstore_unit; 0; a; src |]
      else [| T.op_vstore_strided; s; a; src |]
    in
    let vcode =
      if lanes_eff = 0 then [||]
      else begin
        (* an accumulator program has no store in its body: every store
           folded into the accumulator register *)
        let c = Array.copy p.T.p_code in
        let n = Array.length c / 4 in
        for k = 0 to n - 1 do
          let op = c.(4 * k) and a = c.((4 * k) + 2) in
          if op = T.op_load then
            Array.blit (vload c.((4 * k) + 1) a) 0 c (4 * k) 4
          else if op = T.op_store then
            Array.blit (vstore a c.((4 * k) + 3)) 0 c (4 * k) 4
        done;
        c
      end
    in
    let vpro, vepi =
      match (mode, p.T.p_accum) with
      | Outer _, Some (r, a, init) ->
          ( Array.concat
              (List.map (fun (r, a) -> vload r a) (Array.to_list p.T.p_promos)
              @ if init then [ vload r a ] else []),
            vstore a r )
      | _ -> ([||], [||])
    in
    let vlivein =
      if lanes_eff = 0 then [||]
      else begin
        (* live-in scan over the derived vector tape: a register read
           before any write needs its scalar value broadcast at segment
           entry; one written first (vector loads, ALU results) does not.
           The batched level's variable is excluded — when the body reads
           it, the batch loop fills its lanes itself (an outer lane run
           has a body that reads no lane variable). *)
        let ivd = match mode with Inner _ -> xiv.(xd - 1) | _ -> -1 in
        let nregs = p.T.p_nregs in
        let written = Array.make nregs false in
        let livein = Array.make nregs false in
        let read r =
          if r <> ivd && not written.(r) then livein.(r) <- true
        in
        let code = Array.append vpro vcode in
        let n = Array.length code / 4 in
        for k = 0 to n - 1 do
          let op = code.(4 * k) in
          let dst = code.((4 * k) + 1)
          and a = code.((4 * k) + 2)
          and b = code.((4 * k) + 3) in
          if
            op = T.op_vload_unit || op = T.op_vload_strided
            || op = T.op_vload_bcast
          then written.(dst) <- true
          else if op = T.op_vstore_unit || op = T.op_vstore_strided then
            read b
          else if op = T.op_fma then begin
            read dst;
            read a;
            read b;
            written.(dst) <- true
          end
          else if
            op = T.op_mov
            || (op >= T.op_neg && op <= T.op_floor)
            || op = T.op_trunc
          then begin
            read a;
            written.(dst) <- true
          end
          else begin
            read a;
            read b;
            written.(dst) <- true
          end
        done;
        let out = ref [] in
        for r = nregs - 1 downto 0 do
          if livein.(r) then out := r :: !out
        done;
        Array.of_list !out
      end
    in
    Some
      { t_d = d;
        t_split = split;
        t_nregs = p.T.p_nregs;
        t_lits = p.T.p_lits;
        t_hoists = Array.map (fun (r, v) -> (r, slot v)) p.T.p_hoists;
        t_accum = p.T.p_accum;
        t_code = p.T.p_code;
        t_accs = accs;
        t_datas = Array.map (fun a -> a.b_data) accs;
        t_checks =
          Array.of_list
            (Hashtbl.fold
               (fun (dim, coeffs, rest) (clo, chi) acc ->
                 { c_coeffs = Array.of_list coeffs;
                   c_rest = affine_fn ~slot (rest, 0);
                   c_lo = clo; c_hi = chi; c_dim = dim }
                 :: acc)
               checks []);
        t_lo = lo;
        t_hi = hi;
        t_promos = p.T.p_promos;
        t_xd = xd;
        t_xlo = Array.sub xlo 0 xd;
        t_xhi = Array.sub xhi 0 xd;
        t_xivregs = Array.sub xiv 0 xd;
        t_xsteps = Array.map (fun s -> Array.sub s 0 xd) xsteps;
        t_inner_steps = inner_steps;
        t_pieces =
          Array.map
            (Array.map (fun (plo, phi) ->
                 (bexpr_fn ~slot plo, bexpr_fn ~slot phi)))
            p.T.p_pieces;
        t_mode = mode;
        t_lanes = lanes_eff;
        t_rows = nrows;
        t_vcode = vcode;
        t_vpro = vpro;
        t_vepi = vepi;
        t_vlivein = vlivein;
        t_bsteps = bsteps;
        t_rsteps =
          (match rows with
          | Some (rl, _) -> Array.init nacc (fun a -> xsteps.(a).(rl))
          | None -> Array.make nacc 0);
        t_iv_vec =
          (match mode with
          | Inner _ -> xd = d && p.T.p_ivuse.(d - 1)
          | Outer _ | Scalar _ -> false) }
  with Unbound -> None

let mode t = t.t_mode

let new_state t =
  let st =
    { regs = Array.make t.t_nregs 0.0;
      vregs = [||];
      cur = Array.make (Array.length t.t_accs) 0;
      abase = Array.make (Array.length t.t_accs) 0;
      ivs = Array.make t.t_d 0;
      lbase = Array.make (Array.length t.t_accs) 0;
      los = Array.make t.t_d 0;
      exts = Array.make t.t_d 0;
      fstr = Array.make t.t_split 1 }
  in
  Array.iter (fun (r, v) -> st.regs.(r) <- v) t.t_lits;
  st

(* One state per domain, held by the returned closure and so freed with
   it.  A [Domain.DLS] key per nest would do the same job, but a key
   lives as long as its domain: every compiled program would pin its
   states, lane registers included, for the rest of the process.  The
   owners list holds one entry per domain that ever ran the nest. *)
let domain_state t =
  let owners = Atomic.make [] in
  fun () ->
    let id = (Domain.self () :> int) in
    let rec find = function
      | [] ->
          let st = new_state t in
          let rec push () =
            let l = Atomic.get owners in
            if not (Atomic.compare_and_set owners l ((id, st) :: l)) then
              push ()
          in
          push ();
          st
      | (d, st) :: rest -> if d = id then st else find rest
    in
    find (Atomic.get owners)

let lane_width st =
  if Array.length st.vregs = 0 then 0 else Array.length st.vregs.(0)

(* A program merged from guarded pieces iterates the union box of the
   piece bounds; that equals the union of the pieces only when, at this
   env, the non-empty pieces agree on every level but at most one and
   their intervals on that level tile the box contiguously (overlap is
   fine — the generator required identical, idempotent piece bodies).
   Any other shape reports [false] and the caller takes the closure
   fallback, which replays the original guarded IR exactly. *)
let pieces_cover t env (lo : int array) (hi : int array) =
  let np = Array.length t.t_pieces in
  if np = 0 then true
  else begin
    let d = t.t_d in
    let boxes = ref [] in
    for k = np - 1 downto 0 do
      let pb = t.t_pieces.(k) in
      let plo = Array.init d (fun l -> fst pb.(l) env) in
      let phi = Array.init d (fun l -> snd pb.(l) env) in
      let empty = ref false in
      for l = 0 to d - 1 do
        if phi.(l) < plo.(l) then empty := true
      done;
      if not !empty then boxes := (plo, phi) :: !boxes
    done;
    match !boxes with
    | [] -> false (* program box is non-empty but no piece covers it *)
    | (l0, h0) :: rest ->
        let varying = ref (-1) and ok = ref true in
        List.iter
          (fun (l1, h1) ->
            for l = 0 to d - 1 do
              if l1.(l) <> l0.(l) || h1.(l) <> h0.(l) then
                if !varying = -1 || !varying = l then varying := l
                else ok := false
            done)
          rest;
        (* levels the pieces agree on must coincide with the program box
           (an empty piece may have widened the min/max fold) *)
        for l = 0 to d - 1 do
          if l <> !varying && (l0.(l) <> lo.(l) || h0.(l) <> hi.(l)) then
            ok := false
        done;
        if not !ok then false
        else if !varying = -1 then true
        else begin
          let lv = !varying in
          let iv =
            List.sort compare
              (List.map (fun (l1, h1) -> (l1.(lv), h1.(lv))) !boxes)
          in
          match iv with
          | [] -> false
          | (a0, b0) :: rest ->
              a0 = lo.(lv)
              &&
              let cover = ref b0 and good = ref true in
              List.iter
                (fun (a, b) ->
                  if a > !cover + 1 then good := false
                  else if b > !cover then cover := b)
                rest;
              !good && !cover = hi.(lv)
        end
  end

(* [enter t env] evaluates bounds and runs the whole-box corner checks:
   [-1] when a check fails (caller takes the closure fallback), otherwise
   the size of the fused split space (0 when any level is empty: nothing
   to run, vacuously in bounds).  Checks run against the original
   per-level view — the exec view merge is order-preserving, so a passing
   check covers it too. *)
let enter t env =
  let d = t.t_d in
  let lo = Array.init d (fun l -> t.t_lo.(l) env) in
  let hi = Array.init d (fun l -> t.t_hi.(l) env) in
  let empty = ref false in
  for l = 0 to d - 1 do
    if hi.(l) < lo.(l) then empty := true
  done;
  if !empty then 0
  else begin
    let ok = ref true in
    let nchk = Array.length t.t_checks in
    let i = ref 0 in
    while !ok && !i < nchk do
      let c = t.t_checks.(!i) in
      let r = c.c_rest env in
      let mn = ref (r + c.c_lo) and mx = ref (r + c.c_hi) in
      for l = 0 to d - 1 do
        let a = c.c_coeffs.(l) in
        if a >= 0 then begin
          mn := !mn + (a * lo.(l));
          mx := !mx + (a * hi.(l))
        end
        else begin
          mn := !mn + (a * hi.(l));
          mx := !mx + (a * lo.(l))
        end
      done;
      ok := !mn >= 0 && !mx < c.c_dim;
      incr i
    done;
    if not !ok then -1
    else if not (pieces_cover t env lo hi) then -1
    else begin
      let total = ref 1 in
      for l = 0 to t.t_split - 1 do
        total := !total * (hi.(l) - lo.(l) + 1)
      done;
      !total
    end
  end

(* The instruction interpreter.  Opcode numbering mirrors
   {!Tiramisu_codegen.Tape_gen}; [fma] deliberately rounds twice so
   results stay bit-identical to the reference interpreter.

   Both interpreters run unchecked array accesses: [enter]'s whole-box
   corner checks prove every data cursor the segment will touch is in
   bounds before a single instruction runs, register/cursor indices are
   validated against the register-file and access counts at bind time,
   and the tape length is a multiple of 4 by construction.  Re-checking
   each access in the hot loop would only re-prove what [enter] already
   established. *)
let[@inline] exec_code (code : int array) (st : state)
    (datas : float array array) =
  let regs = st.regs and cur = st.cur in
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    let i = !pc in
    let dst = Array.unsafe_get code (i + 1)
    and a = Array.unsafe_get code (i + 2)
    and b = Array.unsafe_get code (i + 3) in
    (match Array.unsafe_get code i with
    | 0 (* load *) ->
        let src = Array.unsafe_get datas a in
        Array.unsafe_set regs dst
          (Array.unsafe_get src (Array.unsafe_get cur a))
    | 1 (* store *) ->
        let d_ = Array.unsafe_get datas a in
        Array.unsafe_set d_ (Array.unsafe_get cur a) (Array.unsafe_get regs b)
    | 2 (* mov *) -> Array.unsafe_set regs dst (Array.unsafe_get regs a)
    | 3 (* add *) ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs a +. Array.unsafe_get regs b)
    | 4 (* sub *) ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs a -. Array.unsafe_get regs b)
    | 5 (* mul *) ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs a *. Array.unsafe_get regs b)
    | 6 (* div *) ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs a /. Array.unsafe_get regs b)
    | 7 (* min *) ->
        Array.unsafe_set regs dst
          (Float.min (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | 8 (* max *) ->
        Array.unsafe_set regs dst
          (Float.max (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | 9 (* fma *) ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs dst
          +. (Array.unsafe_get regs a *. Array.unsafe_get regs b))
    | 10 (* neg *) -> Array.unsafe_set regs dst (-.Array.unsafe_get regs a)
    | 11 (* abs *) ->
        Array.unsafe_set regs dst (Float.abs (Array.unsafe_get regs a))
    | 12 (* sqrt *) ->
        Array.unsafe_set regs dst (sqrt (Array.unsafe_get regs a))
    | 13 (* exp *) -> Array.unsafe_set regs dst (exp (Array.unsafe_get regs a))
    | 14 (* log *) -> Array.unsafe_set regs dst (log (Array.unsafe_get regs a))
    | 15 (* sin *) -> Array.unsafe_set regs dst (sin (Array.unsafe_get regs a))
    | 16 (* cos *) -> Array.unsafe_set regs dst (cos (Array.unsafe_get regs a))
    | 17 (* floor *) ->
        Array.unsafe_set regs dst (Float.floor (Array.unsafe_get regs a))
    | 18 (* pow *) ->
        Array.unsafe_set regs dst
          (Float.pow (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | 19 (* fdivi *) ->
        Array.unsafe_set regs dst
          (Float.of_int
             (Tiramisu_support.Ints.fdiv
                (int_of_float (Array.unsafe_get regs a))
                (int_of_float (Array.unsafe_get regs b))))
    | 20 (* modi *) ->
        Array.unsafe_set regs dst
          (Float.of_int
             (Tiramisu_support.Ints.emod
                (int_of_float (Array.unsafe_get regs a))
                (int_of_float (Array.unsafe_get regs b))))
    | 21 (* trunc *) ->
        Array.unsafe_set regs dst
          (Float.of_int (int_of_float (Array.unsafe_get regs a)))
    | _ -> assert false);
    pc := i + 4
  done

(* The vector interpreter: one dispatch covers a batch of [rows] rows of
   [w] lanes each, row [r] in lanes [r*w .. r*w + w - 1].  ALU opcodes
   keep their scalar numbering (lane-wise semantics over all
   [rows * w] lanes); loads and stores were specialized at bind time
   into unit (blit), strided and broadcast forms along a row, and row [r]
   addresses its access at [r * rsteps.(a)] past the cursor — one row is
   exactly the 1-D op.  Each lane performs the same float operations in
   the same order as {!exec_code}, so results are bit-identical. *)
let[@inline] exec_code_vec (code : int array) (st : state)
    (datas : float array array) (rsteps : int array) (rows : int) (w : int)
    =
  let vr = st.vregs and cur = st.cur in
  let n = Array.length code in
  let nl = rows * w in
  let pc = ref 0 in
  while !pc < n do
    let i = !pc in
    let dst = code.(i + 1) and a = code.(i + 2) and b = code.(i + 3) in
    (match Array.unsafe_get code i with
    | 22 (* vload.u *) ->
        let src = datas.(a) and d_ = vr.(dst) in
        let c = cur.(a) and rs = rsteps.(a) in
        for r = 0 to rows - 1 do
          Array.blit src (c + (r * rs)) d_ (r * w) w
        done
    | 23 (* vload.s *) ->
        let d_ = vr.(dst) and src = datas.(a) in
        let c = cur.(a) and rs = rsteps.(a) in
        for r = 0 to rows - 1 do
          let c = c + (r * rs) and o = r * w in
          for j = 0 to w - 1 do
            Array.unsafe_set d_ (o + j) (Array.unsafe_get src (c + (j * b)))
          done
        done
    | 24 (* vbcast *) ->
        let src = datas.(a) and d_ = vr.(dst) in
        let c = cur.(a) and rs = rsteps.(a) in
        for r = 0 to rows - 1 do
          Array.fill d_ (r * w) w src.(c + (r * rs))
        done
    | 25 (* vstore.u *) ->
        let s = vr.(b) and d_ = datas.(a) in
        let c = cur.(a) and rs = rsteps.(a) in
        for r = 0 to rows - 1 do
          Array.blit s (r * w) d_ (c + (r * rs)) w
        done
    | 26 (* vstore.s *) ->
        let s = vr.(b) and d_ = datas.(a) in
        let c = cur.(a) and rs = rsteps.(a) in
        for r = 0 to rows - 1 do
          let c = c + (r * rs) and o = r * w in
          for j = 0 to w - 1 do
            Array.unsafe_set d_ (c + (j * dst)) (Array.unsafe_get s (o + j))
          done
        done
    | 2 (* vmov *) -> Array.blit vr.(a) 0 vr.(dst) 0 nl
    | 3 (* vadd *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Array.unsafe_get x j +. Array.unsafe_get y j)
        done
    | 4 (* vsub *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Array.unsafe_get x j -. Array.unsafe_get y j)
        done
    | 5 (* vmul *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Array.unsafe_get x j *. Array.unsafe_get y j)
        done
    | 6 (* vdiv *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Array.unsafe_get x j /. Array.unsafe_get y j)
        done
    | 7 (* vmin *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j
            (Float.min (Array.unsafe_get x j) (Array.unsafe_get y j))
        done
    | 8 (* vmax *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j
            (Float.max (Array.unsafe_get x j) (Array.unsafe_get y j))
        done
    | 9 (* vfma *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j
            (Array.unsafe_get d_ j
            +. (Array.unsafe_get x j *. Array.unsafe_get y j))
        done
    | 10 (* vneg *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (-.Array.unsafe_get x j)
        done
    | 11 (* vabs *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Float.abs (Array.unsafe_get x j))
        done
    | 12 (* vsqrt *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (sqrt (Array.unsafe_get x j))
        done
    | 13 (* vexp *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (exp (Array.unsafe_get x j))
        done
    | 14 (* vlog *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (log (Array.unsafe_get x j))
        done
    | 15 (* vsin *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (sin (Array.unsafe_get x j))
        done
    | 16 (* vcos *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (cos (Array.unsafe_get x j))
        done
    | 17 (* vfloor *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Float.floor (Array.unsafe_get x j))
        done
    | 18 (* vpow *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j
            (Float.pow (Array.unsafe_get x j) (Array.unsafe_get y j))
        done
    | 19 (* vfdivi *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j
            (Float.of_int
               (Tiramisu_support.Ints.fdiv
                  (int_of_float (Array.unsafe_get x j))
                  (int_of_float (Array.unsafe_get y j))))
        done
    | 20 (* vmodi *) ->
        let d_ = vr.(dst) and x = vr.(a) and y = vr.(b) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j
            (Float.of_int
               (Tiramisu_support.Ints.emod
                  (int_of_float (Array.unsafe_get x j))
                  (int_of_float (Array.unsafe_get y j))))
        done
    | 21 (* vtrunc *) ->
        let d_ = vr.(dst) and x = vr.(a) in
        for j = 0 to nl - 1 do
          Array.unsafe_set d_ j (Float.of_int (int_of_float (Array.unsafe_get x j)))
        done
    | _ -> assert false);
    pc := i + 4
  done

(* The lane register file, wide enough for a batch of [bw] lanes.  It
   grows on the first vector batch, and then at least doubles (up to the
   bound width), so a state whose nest never batches allocates no lane
   registers and a run of growing segments reallocates a few times at
   most.  Growing drops lane contents, which is safe between batches:
   callers size the file before broadcasting the live-in registers, and
   every other register is written before it is read. *)
let lane_regs t st bw =
  let have = lane_width st in
  if have >= bw then st.vregs
  else begin
    let w = Int.min t.t_lanes (Int.max bw (2 * have)) in
    let vr = Array.init t.t_nregs (fun _ -> Array.make w 0.0) in
    st.vregs <- vr;
    vr
  end

(* One segment: the outer odometer [st.ivs] is in position, run [len]
   iterations of the exec-inner level starting at its current value. *)
let run_segment t st len =
  let xd = t.t_xd in
  let nacc = Array.length t.t_accs in
  let datas = t.t_datas in
  (* cursors from the per-range base and the odometer *)
  for a = 0 to nacc - 1 do
    let steps = t.t_xsteps.(a) in
    let c = ref st.abase.(a) in
    for l = 0 to xd - 1 do
      c := !c + (steps.(l) * st.ivs.(l))
    done;
    st.cur.(a) <- !c
  done;
  (* float iteration-variable registers *)
  for l = 0 to xd - 1 do
    st.regs.(t.t_xivregs.(l)) <- float_of_int st.ivs.(l)
  done;
  (* segment prologue: promoted loads, accumulator init *)
  Array.iter
    (fun (r, a) -> st.regs.(r) <- datas.(a).(st.cur.(a)))
    t.t_promos;
  (match t.t_accum with
  | Some (r, a, true) -> st.regs.(r) <- datas.(a).(st.cur.(a))
  | Some (_, _, false) | None -> ());
  let code = t.t_code in
  let inner = t.t_inner_steps in
  let ivd = t.t_xivregs.(xd - 1) in
  let cur = st.cur and regs = st.regs in
  let w = match t.t_mode with Inner w -> w | Outer _ | Scalar _ -> 0 in
  let rest =
    if w > 1 && len >= 2 then begin
      (* lane batches through the vector tape: [len / w] full ones, then
         the remainder as one narrower batch, so only a single leftover
         iteration reaches the scalar loop below.  The scalar register
         file stays authoritative between batches; only live-in registers
         broadcast — the rest are written before read. *)
      let bw0 = Int.min w len in
      let vr = lane_regs t st bw0 in
      let lv = t.t_vlivein in
      for q = 0 to Array.length lv - 1 do
        let r = lv.(q) in
        Array.fill vr.(r) 0 bw0 regs.(r)
      done;
      let vcode = t.t_vcode in
      let ivv = if t.t_iv_vec then vr.(ivd) else [||] in
      let left = ref len in
      while !left >= 2 do
        let bw = Int.min w !left in
        if t.t_iv_vec then begin
          let b0 = regs.(ivd) in
          for j = 0 to bw - 1 do
            ivv.(j) <- b0 +. float_of_int j
          done
        end;
        exec_code_vec vcode st datas t.t_rsteps 1 bw;
        for a = 0 to nacc - 1 do
          cur.(a) <- cur.(a) + (bw * inner.(a))
        done;
        regs.(ivd) <- regs.(ivd) +. float_of_int bw;
        left := !left - bw
      done;
      !left
    end
    else len
  in
  (* the scalar hot loop (whole segment, or the single leftover) *)
  for _ = 1 to rest do
    exec_code code st datas;
    for a = 0 to nacc - 1 do
      cur.(a) <- cur.(a) + inner.(a)
    done;
    regs.(ivd) <- regs.(ivd) +. 1.0
  done;
  (* epilogue: accumulator writeback (its cursor has inner step 0) *)
  match t.t_accum with
  | Some (r, a, _) -> datas.(a).(st.cur.(a)) <- st.regs.(r)
  | None -> ()

(* One block of an [Outer] binding: the odometer [st.ivs] is in position
   above the lane run [xl] (exec level [t_xd - 2]), or above its row level
   [xl - 1] for a 2-D block ([t_rows] > 1).  Rows go in chunks of
   [t_rows] (1-D: the single current row), and each chunk's lane run in
   batches of [w] positions: a batch vector-loads the promoted registers
   and the accumulator for its [rows x w] lanes, runs the whole innermost
   loop through the vector tape with inner-step cursor bumps, and stores
   the accumulator once.  Every lane performs its position's float
   operations in the scalar order, and lanes own distinct accumulator
   addresses, so the interleaving is exact.  A chunk's positions left
   over after its last full batch run as one narrower batch, or as a
   scalar segment when a single lane is left. *)
let run_lanes t st =
  let xl = t.t_xd - 2 in
  let kx = xl + 1 and rl = xl - 1 in
  let rows = t.t_rows in
  let w = match t.t_mode with Outer { width; _ } -> width | _ -> 1 in
  let n = st.exts.(xl) and lo = st.los.(xl) in
  let rlo, rn = if rows > 1 then (st.los.(rl), st.exts.(rl)) else (0, 1) in
  let nacc = Array.length t.t_accs in
  let datas = t.t_datas in
  let regs = st.regs and cur = st.cur in
  let lbase = st.lbase in
  let nl0 = Int.min rows rn * Int.min w n in
  if nl0 >= 2 then begin
    (* outer iteration variables feed the live-in broadcast *)
    for l = 0 to (if rows > 1 then rl else xl) - 1 do
      regs.(t.t_xivregs.(l)) <- float_of_int st.ivs.(l)
    done;
    let vr = lane_regs t st nl0 in
    let lv = t.t_vlivein in
    for q = 0 to Array.length lv - 1 do
      let r = lv.(q) in
      Array.fill vr.(r) 0 nl0 regs.(r)
    done
  end;
  let vcode = t.t_vcode and vpro = t.t_vpro and vepi = t.t_vepi in
  let inner = t.t_inner_steps and bsteps = t.t_bsteps in
  let rsteps = t.t_rsteps in
  let ext = st.exts.(kx) in
  let r0 = ref 0 in
  while !r0 < rn do
    let nr = Int.min rows (rn - !r0) in
    if rows > 1 then st.ivs.(rl) <- rlo + !r0;
    st.ivs.(xl) <- lo;
    for a = 0 to nacc - 1 do
      let steps = t.t_xsteps.(a) in
      let c = ref st.abase.(a) in
      for l = 0 to kx do
        c := !c + (steps.(l) * st.ivs.(l))
      done;
      lbase.(a) <- !c
    done;
    let left = ref n in
    while !left > 0 do
      let bw = Int.min w !left in
      if nr * bw >= 2 then begin
        Array.blit lbase 0 cur 0 nacc;
        exec_code_vec vpro st datas rsteps nr bw;
        for _ = 1 to ext do
          exec_code_vec vcode st datas rsteps nr bw;
          for a = 0 to nacc - 1 do
            cur.(a) <- cur.(a) + inner.(a)
          done
        done;
        exec_code_vec vepi st datas rsteps nr bw;
        for a = 0 to nacc - 1 do
          lbase.(a) <- lbase.(a) + (bw * bsteps.(a))
        done
      end
      else begin
        st.ivs.(xl) <- lo + n - 1;
        run_segment t st ext
      end;
      left := !left - bw
    done;
    r0 := !r0 + nr
  done

(* [run_range t st env f_lo f_hi] executes the fused-range slice
   [f_lo..f_hi] (inclusive) of the split space on [st].  The caller
   guarantees [enter] returned a total > f_hi.  Iteration runs over the
   exec view; its split prefix coincides with the original one. *)
let run_range t st env f_lo f_hi =
  if f_hi >= f_lo then begin
    let d = t.t_xd and p = t.t_split in
    for l = 0 to d - 1 do
      st.los.(l) <- t.t_xlo.(l) env;
      st.exts.(l) <- t.t_xhi.(l) env - st.los.(l) + 1
    done;
    (* fused-space strides over the split levels (none when an outer
       lane binding has no parallel prefix: one fused point) *)
    if p > 0 then st.fstr.(p - 1) <- 1;
    for l = p - 2 downto 0 do
      st.fstr.(l) <- st.fstr.(l + 1) * st.exts.(l + 1)
    done;
    Array.iter
      (fun (r, s) -> st.regs.(r) <- float_of_int env.(s))
      t.t_hoists;
    for a = 0 to Array.length t.t_accs - 1 do
      st.abase.(a) <- t.t_accs.(a).b_base env
    done;
    let decode f =
      for l = 0 to p - 1 do
        st.ivs.(l) <- st.los.(l) + (f / st.fstr.(l) mod st.exts.(l))
      done
    in
    if p = d then begin
      (* the whole nest is the split space: segments are innermost runs
         clipped to the caller's slice *)
      let nlast = st.exts.(d - 1) in
      let f = ref f_lo in
      while !f <= f_hi do
        decode !f;
        let off = st.ivs.(d - 1) - st.los.(d - 1) in
        let len = min (nlast - off) (f_hi - !f + 1) in
        run_segment t st len;
        f := !f + len
      done
    end
    else begin
      (* each fused point owns a full sequential subnest *)
      let nonempty = ref true in
      for l = p to d - 1 do
        if st.exts.(l) <= 0 then nonempty := false
      done;
      if !nonempty then
        for f = f_lo to f_hi do
          decode f;
          for l = p to d - 1 do
            st.ivs.(l) <- st.los.(l)
          done;
          (* odometer over the middle levels; per middle position the
             innermost level is one whole segment, or (outer lanes) the
             lane level and the innermost — and the row level above them
             for a 2-D block — are one [run_lanes] block *)
          let blk =
            match t.t_mode with
            | Outer _ -> if t.t_rows > 1 then 3 else 2
            | Inner _ | Scalar _ -> 1
          in
          let running = ref true in
          while !running do
            if blk > 1 then run_lanes t st
            else run_segment t st st.exts.(d - 1);
            let l = ref (d - 1 - blk) in
            let carry = ref true in
            while !carry && !l >= p do
              st.ivs.(!l) <- st.ivs.(!l) + 1;
              if st.ivs.(!l) - st.los.(!l) < st.exts.(!l) then carry := false
              else begin
                st.ivs.(!l) <- st.los.(!l);
                decr l
              end
            done;
            if !carry then running := false
          done
        done
    end
  end
