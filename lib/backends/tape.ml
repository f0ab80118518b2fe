(* The flat-tape executor: binds an abstract {!Tiramisu_codegen.Tape_gen}
   program against concrete buffers and runs it with no closures, no env
   lookups and no allocation in the hot loop (DESIGN §11, §15).

   Binding strength-reduces the addressing once: per access, the affine
   index of every dimension folds with the buffer's strides into one flat
   base (affine over env slots of names outside the nest) plus one
   integer step per nest level.  Execution walks the nest as an odometer
   over segments — runs of the innermost level — recomputing each cursor
   per segment and bumping it by a constant per iteration.  Binding also
   builds an execution view that merges trailing levels whose fold is a
   pure linearization (never into the parallel prefix), so a
   [lane][channel] tail, or conv2D's [j.j_v] rows, run as one long
   unit-stride segment; the merge keeps iteration order exactly.

   The vector tier batches lanes: along the innermost level ([Inner]),
   or, for an accumulator, along the level above its reduction
   ([Outer], register blocking, whatever that level's tag), possibly as
   a 2-D block of [rows] positions of the level above that run.  Binding
   derives a bound vector tape from the scalar code — loads and stores
   specialized by their step along the batched level, loads folded into
   the one ALU instruction that reads them, registers the vector tape
   never writes read as uniform scalars — and picks each instruction's
   lane kernel (see "lane kernels" below).  The width is an interpreter
   strip, not a hardware vector, so a segment runs as few batches as it
   can: [len / w] full ones, the remainder as one narrower batch, and
   only a single leftover iteration through the scalar tape.  Each lane performs the
   scalar interpreter's float operations in its order, so results stay
   bit-identical.  [w] is the request fitted to the nest and capped where
   two stores into one buffer would meet across lanes; inexact aliasing,
   a read-modify-write access with step 0 or an accumulator the rules do
   not cover keep the nest scalar, with a typed reason ({!lane_mode}).

   The [Parallel] prefix (levels [0..p_par-1]) is linearized into one
   fused range the caller may split across workers; ranges never cut a
   sequential subnest.  Entry corner checks cover the whole box at once
   (extreme constants shared by a stencil's taps), so a passing check
   makes every executed iteration in bounds and the loops run unchecked;
   a failing check, or a guarded-piece union that does not tile the box,
   sends the caller to the closure path, whose per-access checks raise at
   the faulting iteration. *)

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
  | Accum_no_lane_level -> "accumulator without a non-parallel level above it"
  | Accum_reads_lane_var -> "accumulator body reads a lane variable"
  | Accum_step_zero -> "accumulator step 0 along the lane level"

let mode_to_string = function
  | Inner w -> Printf.sprintf "inner x%d" w
  | Outer { rows = None; level; width } ->
      Printf.sprintf "outer %s x%d" level width
  | Outer { rows = Some (row, n); level; width } ->
      Printf.sprintf "outer %s x%d × %s x%d" row n level width
  | Scalar r -> "scalar (" ^ reason_to_string r ^ ")"

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
  (* [enter]'s scratch: original-view bounds, guarded-piece bounds
     (piece-major, level-major) and which pieces are non-empty *)
  elo : int array;
  ehi : int array;
  plo : int array;
  phi : int array;
  plive : bool array;
  (* what the lane kernels read: the tape's bound vector code, data
     arrays and row steps, the instruction to run and the batch's shape *)
  vcode : int array;
  datas : float array array;
  rsteps : int array;
  mutable pc : int;
  mutable rows : int;
  mutable bw : int;    (* lanes per row *)
}

(* A lane kernel runs the bound vector instruction at [st.pc] over the
   state's current batch; {!kernel_index} picks it at bind time. *)
type kernel = state -> unit

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
  t_vcode : int array;
    (* bound vector tape, [vw] ints per instruction ([||] if scalar) *)
  t_vpro : int array;
    (* [Outer]: per-batch vector loads of the promoted registers and the
       accumulator, before the innermost loop *)
  t_vepi : int array;               (* [Outer]: the accumulator's store *)
  t_vall : int array;               (* [t_vpro], [t_vcode], [t_vepi] *)
  t_vk : kernel array;              (* per instruction of [t_vall] *)
  t_vlivein : int array;
    (* registers the bound vector tape reads as lane registers before
       writing them (minus the batched iteration variable): the only ones
       whose scalar value must be broadcast into lanes at segment (or
       lane-run) entry *)
  t_folded : int;                   (* loads folded into their readers *)
  t_names : string array;           (* per access, its buffer (listings) *)
  t_bsteps : int array;             (* per access, step of the batched level *)
  t_rsteps : int array;
    (* per access, step of the row level ([t_rows] > 1), else 0 *)
  t_iv_vec : bool;                  (* body reads the batched level's var *)
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
      fun env -> Int.min (f env) (g env)
  | T.Bmax (x, y) ->
      let f = bexpr_fn ~slot x and g = bexpr_fn ~slot y in
      fun env -> Int.max (f env) (g env)
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

(* ---------- the bound vector tape ----------

   A bound vector instruction is [vw] ints: [op; dst; ka; xa; sa; kb; xb;
   sb].  An ALU opcode reads operand A as kind [ka] with index [xa] and
   stride [sa] along the batched level, and operand B likewise:
   - [k_reg]: lane register [x] (stride 1);
   - [k_scalar]: scalar register [x], which the vector tape never writes,
     so one value serves every lane (stride 0);
   - [k_mem]: access [x], lane [j] of row [r] at [cur + r * rsteps + j *
     s] — exactly where the load it replaces would have read.
   A unary opcode reads A only (a register); [fma] also reads [dst].
   Loads are [op; dst; k_mem; access; stride; ...]; stores are [op; 0;
   k_mem; access; stride; k_reg; src; 1]. *)
let vw = 8
let k_reg = 0
let k_scalar = 1
let k_mem = 2

let is_vload op =
  op = T.op_vload_unit || op = T.op_vload_strided || op = T.op_vload_bcast

let is_vstore op = op = T.op_vstore_unit || op = T.op_vstore_strided

let is_binary op =
  (op >= T.op_add && op <= T.op_fma)
  || op = T.op_pow || op = T.op_fdivi || op = T.op_modi

(* opcodes whose operands may be scalars or memory *)
let fusable op = op >= T.op_add && op <= T.op_fma

(* How the instruction at [i] of a bound tape reads register [r]: [0] not
   at all, [1] once as operand A of a fusable opcode, [2] once as its
   operand B, [3] any other way (fma's addend, a store's source, a
   non-fusable operand, or more than once). *)
let read_kind (code : int array) i r =
  let op = code.(i) in
  if is_vload op then 0
  else if is_vstore op then if code.(i + 6) = r then 3 else 0
  else begin
    let a = code.(i + 2) = k_reg && code.(i + 3) = r in
    let b = is_binary op && code.(i + 5) = k_reg && code.(i + 6) = r in
    if (op = T.op_fma && code.(i + 1) = r) || (a && b) then 3
    else if a then if fusable op then 1 else 3
    else if b then if fusable op then 2 else 3
    else 0
  end

(* Bit-exact fast paths for [Float.min] / [Float.max]: when one operand is
   strictly below (above) the other, both are ordinary, distinct numbers
   and the library would return that operand too.  Ties — signed zeros
   among them — and NaNs take the library call.  Shared by both
   interpreters. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y

(* one lane of an ALU opcode other than [fma], the one definition both
   interpreters instantiate; [op] is a constant at every use, and a unary
   opcode ([mov] included) ignores [y] *)
let[@inline] alu op x y =
  if op = 2 then x
  else if op = 3 then x +. y
  else if op = 4 then x -. y
  else if op = 5 then x *. y
  else if op = 6 then x /. y
  else if op = 7 then fmin x y
  else if op = 8 then fmax x y
  else if op = 10 then -.x
  else if op = 11 then Float.abs x
  else if op = 12 then sqrt x
  else if op = 13 then exp x
  else if op = 14 then log x
  else if op = 15 then sin x
  else if op = 16 then cos x
  else if op = 17 then Float.floor x
  else if op = 18 then Float.pow x y
  else if op = 19 then
    Float.of_int
      (Tiramisu_support.Ints.fdiv (int_of_float x) (int_of_float y))
  else if op = 20 then
    Float.of_int
      (Tiramisu_support.Ints.emod (int_of_float x) (int_of_float y))
  else Float.of_int (int_of_float x)

(* lane [q] of [d] gets [op x y]; [fma] adds the product to the lane,
   bound first so that a NaN lane keeps its payload, as in the
   interpreter's [x +. y] (folded into the addition as a memory operand,
   the compiler would swap the operands) *)
let[@inline] lane op (d : float array) q x y =
  Array.unsafe_set d q
    (if op = 9 then
       let p = x *. y in
       let acc = Array.unsafe_get d q in
       acc +. p
     else alu op x y)

(* The instruction interpreter.  Opcode numbering mirrors
   {!Tiramisu_codegen.Tape_gen}; [fma] deliberately rounds twice so
   results stay bit-identical to the reference interpreter.  Every ALU
   arm is one [lane] call with a literal opcode.

   Both interpreters run unchecked array accesses: [enter]'s whole-box
   corner checks prove every data cursor the segment will touch is in
   bounds before a single instruction runs, register/cursor indices are
   validated against the register-file and access counts at bind time,
   and a tape's length is a multiple of its instruction width by
   construction.  Re-checking each access in the hot loop would only
   re-prove what [enter] already established. *)

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
    | 2 (* mov *) -> lane 2 regs dst (Array.unsafe_get regs a) 0.
    | 3 (* add *) ->
        lane 3 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 4 (* sub *) ->
        lane 4 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 5 (* mul *) ->
        lane 5 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 6 (* div *) ->
        lane 6 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 7 (* min *) ->
        lane 7 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 8 (* max *) ->
        lane 8 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 9 (* fma *) ->
        lane 9 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 10 (* neg *) -> lane 10 regs dst (Array.unsafe_get regs a) 0.
    | 11 (* abs *) -> lane 11 regs dst (Array.unsafe_get regs a) 0.
    | 12 (* sqrt *) -> lane 12 regs dst (Array.unsafe_get regs a) 0.
    | 13 (* exp *) -> lane 13 regs dst (Array.unsafe_get regs a) 0.
    | 14 (* log *) -> lane 14 regs dst (Array.unsafe_get regs a) 0.
    | 15 (* sin *) -> lane 15 regs dst (Array.unsafe_get regs a) 0.
    | 16 (* cos *) -> lane 16 regs dst (Array.unsafe_get regs a) 0.
    | 17 (* floor *) -> lane 17 regs dst (Array.unsafe_get regs a) 0.
    | 18 (* pow *) ->
        lane 18 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 19 (* fdivi *) ->
        lane 19 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 20 (* modi *) ->
        lane 20 regs dst (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | 21 (* trunc *) -> lane 21 regs dst (Array.unsafe_get regs a) 0.
    | _ -> assert false);
    pc := i + 4
  done

(* ---------- lane kernels ----------

   The vector interpreter is a table of small kernels ([kernels]), one
   per bound instruction form: each fusable opcode (add .. fma) for every
   pair of operand shapes — [0] lane register, [1] uniform scalar, memory
   along the batched level at [2] unit stride, [3] stride 0 or [4] any
   other — each unary opcode, [pow], [fdivi] and [modi] on registers, and
   each load and store form.  [bind] picks every instruction's kernel
   ({!kernel_index}), so a dispatch is one indirect call with nothing
   left to decode.  Each kernel instantiates [@inline] templates with
   constant opcode and shapes, which inlining folds into straight loops
   (four lanes per test, then one at a time), and is a function of its
   own, so its loop keeps arrays and indices in registers: [make
   tape-asm] counts each kernel's stack reloads, [make lane-fit] fits
   the per-dispatch and per-lane cost.  A kernel owns its row loop:
   memory operands address row [r] at [r] row steps past the cursor;
   registers and scalars alone run the batch as one row.  Shapes rather
   than loop classes key the table (a register reads like unit memory,
   a scalar like stride-0 memory) because each shape finds its operand
   with no runtime test; a class-keyed table measured slower per
   dispatch (DESIGN §15). *)

(* operand value at lane [k] of an unrolled step at destination index
   [i], by shape [sh]: a lane register at [i + k] (the destination's
   layout), unit-stride memory [dx] further, a strided operand at its
   own offset [p], a uniform one [v0].  Shapes reach the templates only
   as parameters or literals, never let-bound, so inlining folds every
   test on them. *)
let[@inline] opnd sh (a : float array) i dx p k v0 =
  if sh = 1 || sh = 3 then v0
  else if sh = 0 then Array.unsafe_get a (i + k)
  else if sh = 2 then Array.unsafe_get a (i + dx + k)
  else Array.unsafe_get a p

(* [min] and [max] decide a lane with one strict comparison unless its
   operands tie or one is NaN ([fmin]); [lane_decided] is [lane] then *)
let[@inline] decided op (x : float) y = (op <> 7 && op <> 8) || x < y || y < x

let[@inline] lane_decided op (d : float array) q x y =
  if op = 7 then Array.unsafe_set d q (if x < y then x else y)
  else if op = 8 then Array.unsafe_set d q (if x > y then x else y)
  else lane op d q x y

(* Lanes [0 .. n - 1] of a binary opcode into [d], in rows of [w]: in
   the row starting at destination index [q], operand [x] of shape [cx]
   is at [xa.(q + dx + j*xs)] for lane [q + j], and [dx] moves by [ra]
   from one row to the next; [y] likewise.  One index runs through the
   rows and their lanes, so little stays live around the lane loop.  For
   [min] and [max] the loops stop at the first lane a strict comparison
   does not decide, and the rest of the batch takes the library call in
   loops of their own: no call is reachable from the unrolled loop. *)
let[@inline] rows2 op cx cy (d : float array) n w (xa : float array) dx0 xs ra
    (ya : float array) dy0 ys rb =
  let q = ref 0 and dxr = ref dx0 and dyr = ref dy0 in
  let undecided = ref false in
  while !q < n && not ((op = 7 || op = 8) && !undecided) do
    let dx = !dxr and dy = !dyr in
    let stop = !q + w in
    let x0 = Array.unsafe_get xa (!q + dx)
    and y0 = Array.unsafe_get ya (!q + dy) in
    let px = ref (!q + dx) and py = ref (!q + dy) in
    while
      !q + 3 < stop
      &&
      let i = !q and p = !px and r = !py in
      let p1 = p + xs and r1 = r + ys in
      let p2 = p1 + xs and r2 = r1 + ys in
      let p3 = p2 + xs and r3 = r2 + ys in
      decided op (opnd cx xa i dx p 0 x0) (opnd cy ya i dy r 0 y0)
      && decided op (opnd cx xa i dx p1 1 x0) (opnd cy ya i dy r1 1 y0)
      && decided op (opnd cx xa i dx p2 2 x0) (opnd cy ya i dy r2 2 y0)
      && decided op (opnd cx xa i dx p3 3 x0) (opnd cy ya i dy r3 3 y0)
    do
      let i = !q and p = !px and r = !py in
      let p1 = p + xs and r1 = r + ys in
      let p2 = p1 + xs and r2 = r1 + ys in
      let p3 = p2 + xs and r3 = r2 + ys in
      lane_decided op d i (opnd cx xa i dx p 0 x0) (opnd cy ya i dy r 0 y0);
      lane_decided op d (i + 1) (opnd cx xa i dx p1 1 x0)
        (opnd cy ya i dy r1 1 y0);
      lane_decided op d (i + 2) (opnd cx xa i dx p2 2 x0)
        (opnd cy ya i dy r2 2 y0);
      lane_decided op d (i + 3) (opnd cx xa i dx p3 3 x0)
        (opnd cy ya i dy r3 3 y0);
      q := i + 4;
      px := p3 + xs;
      py := r3 + ys
    done;
    while !q < stop && not ((op = 7 || op = 8) && !undecided) do
      let i = !q and p = !px and r = !py in
      let x = opnd cx xa i dx p 0 x0 and y = opnd cy ya i dy r 0 y0 in
      if decided op x y then begin
        lane_decided op d i x y;
        q := i + 1;
        px := p + xs;
        py := r + ys
      end
      else undecided := true
    done;
    if not ((op = 7 || op = 8) && !undecided) then begin
      dxr := dx + ra;
      dyr := dy + rb
    end
  done;
  if (op = 7 || op = 8) && !undecided then
    while !q < n do
      let dx = !dxr and dy = !dyr in
      let row = !q - (!q mod w) in
      let x0 = Array.unsafe_get xa (row + dx)
      and y0 = Array.unsafe_get ya (row + dy) in
      let px = ref (row + dx + ((!q - row) * xs))
      and py = ref (row + dy + ((!q - row) * ys)) in
      while !q < row + w do
        let i = !q and p = !px and r = !py in
        lane op d i (opnd cx xa i dx p 0 x0) (opnd cy ya i dy r 0 y0);
        q := i + 1;
        px := p + xs;
        py := r + ys
      done;
      dxr := dx + ra;
      dyr := dy + rb
    done

(* an operand's array, the offset of its row 0's lane 0, its row step *)
let[@inline] src sh x st =
  if sh = 0 then Array.unsafe_get st.vregs x
  else if sh = 1 then st.regs
  else Array.unsafe_get st.datas x

let[@inline] src_at sh x st =
  if sh = 0 then 0 else if sh = 1 then x else Array.unsafe_get st.cur x

let[@inline] src_rs sh x st =
  if sh = 0 then st.bw else if sh = 1 then 0 else Array.unsafe_get st.rsteps x

(* the shape of the operand whose kind is at [code.(f)] *)
let shape (code : int array) f =
  if code.(f) <> k_mem then code.(f) (* [k_reg] is shape 0, [k_scalar] 1 *)
  else match code.(f + 2) with 1 -> 2 | 0 -> 3 | _ -> 4

(* ALU opcode [op], operand A of shape [sa], B of shape [sb]: registers
   and scalars alone run the batch as one row *)
let[@inline] bin op sa sb st =
  let code = st.vcode and i = st.pc in
  let d = Array.unsafe_get st.vregs (Array.unsafe_get code (i + 1)) in
  let xa = Array.unsafe_get code (i + 3) and xb = Array.unsafe_get code (i + 6) in
  let ea = if sa = 4 then Array.unsafe_get code (i + 4) else 1 in
  let eb = if sb = 4 then Array.unsafe_get code (i + 7) else 1 in
  let n = st.rows * st.bw in
  let w = if sa < 2 && sb < 2 then n else st.bw in
  rows2 op sa sb d n w (src sa xa st) (src_at sa xa st) ea
    (src_rs sa xa st - w) (src sb xb st) (src_at sb xb st) eb
    (src_rs sb xb st - w)

(* a unary opcode on a lane register (read again as an ignored uniform) *)
let[@inline] un op st =
  let code = st.vcode and i = st.pc in
  let x = Array.unsafe_get st.vregs (Array.unsafe_get code (i + 3)) in
  let n = st.rows * st.bw in
  rows2 op 0 1
    (Array.unsafe_get st.vregs (Array.unsafe_get code (i + 1)))
    n n x 0 1 0 x 0 0 0

(* Rows at least this wide copy and fill through the runtime's block
   primitives; shorter ones (sgemm's 8-lane rows) run the unrolled loops,
   which beat a C call's fixed cost there. *)
let block_min = 32

(* a load of memory shape [sh]: [w] elements per row from memory at
   [p + j*s] into the destination register, run as [mov] lanes *)
let[@inline] load sh st =
  let code = st.vcode and i = st.pc in
  let d = Array.unsafe_get st.vregs (Array.unsafe_get code (i + 1)) in
  let x = Array.unsafe_get code (i + 3) and s = Array.unsafe_get code (i + 4) in
  let a = Array.unsafe_get st.datas x and c = Array.unsafe_get st.cur x in
  let rs = Array.unsafe_get st.rsteps x and w = st.bw in
  if sh <> 4 && w >= block_min then
    for r = 0 to st.rows - 1 do
      if sh = 2 then Array.blit a (c + (r * rs)) d (r * w) w
      else Array.fill d (r * w) w (Array.unsafe_get a (c + (r * rs)))
    done
  else rows2 2 sh 1 d (st.rows * w) w a c s (rs - w) a c 0 (rs - w)

(* a store: [w] lanes per row of the source register into memory at
   [p + j*s], one index through rows and lanes as in [rows2] *)
let[@inline] store unit st =
  let code = st.vcode and i = st.pc in
  let x = Array.unsafe_get st.vregs (Array.unsafe_get code (i + 6)) in
  let a = Array.unsafe_get code (i + 3) and s = Array.unsafe_get code (i + 4) in
  let d = Array.unsafe_get st.datas a and c = Array.unsafe_get st.cur a in
  let rs = Array.unsafe_get st.rsteps a and w = st.bw in
  if unit && w >= block_min then
    for r = 0 to st.rows - 1 do
      Array.blit x (r * w) d (c + (r * rs)) w
    done
  else begin
    let q = ref 0 and p0 = ref c in
    while !q < st.rows * w do
      let stop = !q + w and pd = ref !p0 in
      while !q + 3 < stop do
        let j = !q and o = !pd in
        let o1 = o + s in
        let o2 = o1 + s in
        let o3 = o2 + s in
        Array.unsafe_set d o (Array.unsafe_get x j);
        Array.unsafe_set d o1 (Array.unsafe_get x (j + 1));
        Array.unsafe_set d o2 (Array.unsafe_get x (j + 2));
        Array.unsafe_set d o3 (Array.unsafe_get x (j + 3));
        q := j + 4;
        pd := o3 + s
      done;
      while !q < stop do
        Array.unsafe_set d !pd (Array.unsafe_get x !q);
        incr q;
        pd := !pd + s
      done;
      p0 := !p0 + rs
    done
  end

(* Entry [25 * (op - add) + 5 * A + B] is fusable opcode [op] on shapes
   [A] and [B]; then [175 + op - neg] for [neg] .. [vstore.s]; last [mov]. *)
let kernels : kernel array =
  [|
    (fun s -> bin 3 0 0 s); (fun s -> bin 3 0 1 s); (fun s -> bin 3 0 2 s);
    (fun s -> bin 3 0 3 s); (fun s -> bin 3 0 4 s); (fun s -> bin 3 1 0 s);
    (fun s -> bin 3 1 1 s); (fun s -> bin 3 1 2 s); (fun s -> bin 3 1 3 s);
    (fun s -> bin 3 1 4 s); (fun s -> bin 3 2 0 s); (fun s -> bin 3 2 1 s);
    (fun s -> bin 3 2 2 s); (fun s -> bin 3 2 3 s); (fun s -> bin 3 2 4 s);
    (fun s -> bin 3 3 0 s); (fun s -> bin 3 3 1 s); (fun s -> bin 3 3 2 s);
    (fun s -> bin 3 3 3 s); (fun s -> bin 3 3 4 s); (fun s -> bin 3 4 0 s);
    (fun s -> bin 3 4 1 s); (fun s -> bin 3 4 2 s); (fun s -> bin 3 4 3 s);
    (fun s -> bin 3 4 4 s); (fun s -> bin 4 0 0 s); (fun s -> bin 4 0 1 s);
    (fun s -> bin 4 0 2 s); (fun s -> bin 4 0 3 s); (fun s -> bin 4 0 4 s);
    (fun s -> bin 4 1 0 s); (fun s -> bin 4 1 1 s); (fun s -> bin 4 1 2 s);
    (fun s -> bin 4 1 3 s); (fun s -> bin 4 1 4 s); (fun s -> bin 4 2 0 s);
    (fun s -> bin 4 2 1 s); (fun s -> bin 4 2 2 s); (fun s -> bin 4 2 3 s);
    (fun s -> bin 4 2 4 s); (fun s -> bin 4 3 0 s); (fun s -> bin 4 3 1 s);
    (fun s -> bin 4 3 2 s); (fun s -> bin 4 3 3 s); (fun s -> bin 4 3 4 s);
    (fun s -> bin 4 4 0 s); (fun s -> bin 4 4 1 s); (fun s -> bin 4 4 2 s);
    (fun s -> bin 4 4 3 s); (fun s -> bin 4 4 4 s); (fun s -> bin 5 0 0 s);
    (fun s -> bin 5 0 1 s); (fun s -> bin 5 0 2 s); (fun s -> bin 5 0 3 s);
    (fun s -> bin 5 0 4 s); (fun s -> bin 5 1 0 s); (fun s -> bin 5 1 1 s);
    (fun s -> bin 5 1 2 s); (fun s -> bin 5 1 3 s); (fun s -> bin 5 1 4 s);
    (fun s -> bin 5 2 0 s); (fun s -> bin 5 2 1 s); (fun s -> bin 5 2 2 s);
    (fun s -> bin 5 2 3 s); (fun s -> bin 5 2 4 s); (fun s -> bin 5 3 0 s);
    (fun s -> bin 5 3 1 s); (fun s -> bin 5 3 2 s); (fun s -> bin 5 3 3 s);
    (fun s -> bin 5 3 4 s); (fun s -> bin 5 4 0 s); (fun s -> bin 5 4 1 s);
    (fun s -> bin 5 4 2 s); (fun s -> bin 5 4 3 s); (fun s -> bin 5 4 4 s);
    (fun s -> bin 6 0 0 s); (fun s -> bin 6 0 1 s); (fun s -> bin 6 0 2 s);
    (fun s -> bin 6 0 3 s); (fun s -> bin 6 0 4 s); (fun s -> bin 6 1 0 s);
    (fun s -> bin 6 1 1 s); (fun s -> bin 6 1 2 s); (fun s -> bin 6 1 3 s);
    (fun s -> bin 6 1 4 s); (fun s -> bin 6 2 0 s); (fun s -> bin 6 2 1 s);
    (fun s -> bin 6 2 2 s); (fun s -> bin 6 2 3 s); (fun s -> bin 6 2 4 s);
    (fun s -> bin 6 3 0 s); (fun s -> bin 6 3 1 s); (fun s -> bin 6 3 2 s);
    (fun s -> bin 6 3 3 s); (fun s -> bin 6 3 4 s); (fun s -> bin 6 4 0 s);
    (fun s -> bin 6 4 1 s); (fun s -> bin 6 4 2 s); (fun s -> bin 6 4 3 s);
    (fun s -> bin 6 4 4 s); (fun s -> bin 7 0 0 s); (fun s -> bin 7 0 1 s);
    (fun s -> bin 7 0 2 s); (fun s -> bin 7 0 3 s); (fun s -> bin 7 0 4 s);
    (fun s -> bin 7 1 0 s); (fun s -> bin 7 1 1 s); (fun s -> bin 7 1 2 s);
    (fun s -> bin 7 1 3 s); (fun s -> bin 7 1 4 s); (fun s -> bin 7 2 0 s);
    (fun s -> bin 7 2 1 s); (fun s -> bin 7 2 2 s); (fun s -> bin 7 2 3 s);
    (fun s -> bin 7 2 4 s); (fun s -> bin 7 3 0 s); (fun s -> bin 7 3 1 s);
    (fun s -> bin 7 3 2 s); (fun s -> bin 7 3 3 s); (fun s -> bin 7 3 4 s);
    (fun s -> bin 7 4 0 s); (fun s -> bin 7 4 1 s); (fun s -> bin 7 4 2 s);
    (fun s -> bin 7 4 3 s); (fun s -> bin 7 4 4 s); (fun s -> bin 8 0 0 s);
    (fun s -> bin 8 0 1 s); (fun s -> bin 8 0 2 s); (fun s -> bin 8 0 3 s);
    (fun s -> bin 8 0 4 s); (fun s -> bin 8 1 0 s); (fun s -> bin 8 1 1 s);
    (fun s -> bin 8 1 2 s); (fun s -> bin 8 1 3 s); (fun s -> bin 8 1 4 s);
    (fun s -> bin 8 2 0 s); (fun s -> bin 8 2 1 s); (fun s -> bin 8 2 2 s);
    (fun s -> bin 8 2 3 s); (fun s -> bin 8 2 4 s); (fun s -> bin 8 3 0 s);
    (fun s -> bin 8 3 1 s); (fun s -> bin 8 3 2 s); (fun s -> bin 8 3 3 s);
    (fun s -> bin 8 3 4 s); (fun s -> bin 8 4 0 s); (fun s -> bin 8 4 1 s);
    (fun s -> bin 8 4 2 s); (fun s -> bin 8 4 3 s); (fun s -> bin 8 4 4 s);
    (fun s -> bin 9 0 0 s); (fun s -> bin 9 0 1 s); (fun s -> bin 9 0 2 s);
    (fun s -> bin 9 0 3 s); (fun s -> bin 9 0 4 s); (fun s -> bin 9 1 0 s);
    (fun s -> bin 9 1 1 s); (fun s -> bin 9 1 2 s); (fun s -> bin 9 1 3 s);
    (fun s -> bin 9 1 4 s); (fun s -> bin 9 2 0 s); (fun s -> bin 9 2 1 s);
    (fun s -> bin 9 2 2 s); (fun s -> bin 9 2 3 s); (fun s -> bin 9 2 4 s);
    (fun s -> bin 9 3 0 s); (fun s -> bin 9 3 1 s); (fun s -> bin 9 3 2 s);
    (fun s -> bin 9 3 3 s); (fun s -> bin 9 3 4 s); (fun s -> bin 9 4 0 s);
    (fun s -> bin 9 4 1 s); (fun s -> bin 9 4 2 s); (fun s -> bin 9 4 3 s);
    (fun s -> bin 9 4 4 s); (fun s -> un 10 s); (fun s -> un 11 s);
    (fun s -> un 12 s); (fun s -> un 13 s); (fun s -> un 14 s);
    (fun s -> un 15 s); (fun s -> un 16 s); (fun s -> un 17 s);
    (fun s -> bin 18 0 0 s); (fun s -> bin 19 0 0 s); (fun s -> bin 20 0 0 s);
    (fun s -> un 21 s); (fun s -> load 2 s); (fun s -> load 4 s);
    (fun s -> load 3 s); (fun s -> store true s); (fun s -> store false s);
    (fun s -> un 2 s) |]

let kernel_index (code : int array) i =
  let op = code.(i) in
  if fusable op then
    (25 * (op - T.op_add)) + (5 * shape code (i + 2)) + shape code (i + 5)
  else if op = T.op_mov then Array.length kernels - 1
  else 175 + op - T.op_neg

let kernels_of code =
  Array.init (Array.length code / vw) (fun k ->
      kernels.(kernel_index code (k * vw)))

let kernel_name id =
  let sh = [| "r"; "scalar"; "@u"; "@b"; "@s" |] in
  if id < 175 then
    Printf.sprintf "%s %s,%s" (T.vop_name (T.op_add + (id / 25)))
      sh.(id mod 25 / 5) sh.(id mod 5)
  else if id = Array.length kernels - 1 then T.vop_name T.op_mov
  else T.vop_name (id - 175 + T.op_neg)

(* The vector interpreter: instructions [lo, hi) of the state's bound
   tape, each one call of its kernel over the batch of [st.rows] rows of
   [st.bw] lanes (row [r] in lanes [r*bw ..]), bit-identical to
   {!exec_code} lane by lane. *)
let exec_code_vec (ks : kernel array) st lo hi =
  for k = lo to hi - 1 do
    st.pc <- k * vw;
    (Array.unsafe_get ks k) st
  done

(* one bound instruction over hand-made operands: the tests' entry *)
type operand =
  | Reg of float array
  | Uniform of float
  | Mem of { data : float array; base : int; stride : int; row_step : int }

let kernel_count = Array.length kernels

let lane_kernel ~op ~rows ~width ~acc x y =
  let nl = rows * width in
  let vregs = [| Array.sub acc 0 nl; [||]; [||] |] in
  let regs = [| 0.0; 0.0; 0.0 |] in
  let datas = [| [||]; [||] |] and cur = [| 0; 0 |] and rsteps = [| 0; 0 |] in
  let place k = function
    | Reg lanes ->
        vregs.(k) <- Array.sub lanes 0 nl;
        [| k_reg; k; 1 |]
    | Uniform v ->
        regs.(k) <- v;
        [| k_scalar; k; 0 |]
    | Mem { data; base; stride; row_step } ->
        datas.(k - 1) <- Array.copy data;
        cur.(k - 1) <- base;
        rsteps.(k - 1) <- row_step;
        [| k_mem; k - 1; stride |]
  in
  let code = Array.concat [ [| op; 0 |]; place 1 x; place 2 y ] in
  let st =
    { regs; vregs; cur; abase = cur; ivs = [||]; lbase = cur; los = [||];
      exts = [||]; fstr = [||]; elo = [||]; ehi = [||]; plo = [||];
      phi = [||]; plive = [||]; vcode = code; datas; rsteps; pc = 0; rows;
      bw = width }
  in
  let id = kernel_index code 0 in
  exec_code_vec [| kernels.(id) |] st 0 1;
  (id, if is_vstore op then datas.(0) else vregs.(0))

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
    (* An accumulator batches along the level above its innermost one
       ([outer_lane]), or not at all: exactly when the body reads
       neither lane variable and the accumulator's address moves along
       it, so every lane owns one address (the generator made it the
       only stored access, aliased by every load of its buffer). *)
    let outer =
      match T.outer_lane p ~step:(fun a l -> accs.(a).b_steps.(l)) with
      | None -> Ok None
      | Some _ when lanes <= 1 -> Error Lanes_off
      | Some (T.Lane_level l) -> Ok (Some l)
      | Some T.No_lane_level -> Error Accum_no_lane_level
      | Some T.Reads_lane_var -> Error Accum_reads_lane_var
      | Some T.Step_zero -> Error Accum_step_zero
    in
    let split = p.T.p_par in
    (* execution view: fold a level into its parent while the fold is a
       pure linearization — the child has constant bounds [0..e-1], the
       pair is outside the parallel prefix, the body reads neither
       variable, and every access's outer step is [e] times its inner
       one.  The child is the innermost level, or an [Outer] binding's
       lane level (sgemm's [j1 x j1_v] becomes one lane run); any other
       accumulator folds nothing. *)
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
    (* Two stores into one buffer whose offsets differ by a constant [d]
       (equal steps and non-nest terms) meet across lanes exactly when
       [d = s*k] for inner step [s <> 0]: the pair caps the width at
       [|k|].  Any other pair shape caps it at 1 (scalar). *)
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
    (* A 2-D [Outer] block: the level above the lane run is a row level
       when it is outside the parallel prefix, has constant bounds and an
       unread variable, and the accumulator's row step clears a whole run
       ([|S_r| >= fit * |S_c|]), so each lane still owns one address.
       Fewer than two rows leaves the 1-D run. *)
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
    (* the lane decision: the outer level proven above, or the innermost
       level when the program is lane-batchable, read-modify-write lanes
       have distinct addresses and stores into one buffer do not meet
       within two lanes — otherwise scalar, and why *)
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
    (* the bound vector tape (format above): loads and stores specialized
       by their step along the batched level, ALU operands registers *)
    let set_vload c i dst a =
      let s = bsteps.(a) in
      c.(i) <-
        (if s = 0 then T.op_vload_bcast
         else if s = 1 then T.op_vload_unit
         else T.op_vload_strided);
      c.(i + 1) <- dst;
      c.(i + 2) <- k_mem;
      c.(i + 3) <- a;
      c.(i + 4) <- s
    in
    let set_vstore c i a src =
      let s = bsteps.(a) in
      c.(i) <- (if s = 1 then T.op_vstore_unit else T.op_vstore_strided);
      c.(i + 2) <- k_mem;
      c.(i + 3) <- a;
      c.(i + 4) <- s;
      c.(i + 5) <- k_reg;
      c.(i + 6) <- src;
      c.(i + 7) <- 1
    in
    let nv = if lanes_eff = 0 then 0 else Array.length p.T.p_code / 4 in
    let vcode = Array.make (nv * vw) 0 in
    for k = 0 to nv - 1 do
      (* an accumulator program has no store in its body: every store
         folded into the accumulator register *)
      let c = p.T.p_code and i = k * vw in
      let op = c.(4 * k)
      and dst = c.((4 * k) + 1)
      and a = c.((4 * k) + 2)
      and b = c.((4 * k) + 3) in
      if op = T.op_load then set_vload vcode i dst a
      else if op = T.op_store then set_vstore vcode i a b
      else begin
        vcode.(i) <- op;
        vcode.(i + 1) <- dst;
        vcode.(i + 2) <- k_reg;
        vcode.(i + 3) <- a;
        vcode.(i + 4) <- 1;
        if is_binary op then begin
          vcode.(i + 5) <- k_reg;
          vcode.(i + 6) <- b;
          vcode.(i + 7) <- 1
        end
      end
    done;
    let vpro, vepi =
      match (mode, p.T.p_accum) with
      | Outer _, Some (r, a, init) ->
          let np = Array.length p.T.p_promos in
          let pro = Array.make ((np + if init then 1 else 0) * vw) 0 in
          Array.iteri (fun k (r, a) -> set_vload pro (k * vw) r a) p.T.p_promos;
          if init then set_vload pro (np * vw) r a;
          let epi = Array.make vw 0 in
          set_vstore epi 0 a r;
          (pro, epi)
      | _ -> ([||], [||])
    in
    (* the batched level's variable: the batch loop fills its lanes *)
    let ivd = match mode with Inner _ -> xiv.(xd - 1) | _ -> -1 in
    let nregs = p.T.p_nregs in
    (* registers [code] reads as lane registers before writing them:
       marks [livein], given the registers already [written] *)
    let live_in code ~written ~livein =
      let read r = if r <> ivd && not written.(r) then livein.(r) <- true in
      for k = 0 to (Array.length code / vw) - 1 do
        let i = k * vw in
        let op = code.(i) in
        if is_vstore op then read code.(i + 6)
        else begin
          if not (is_vload op) then begin
            if code.(i + 2) = k_reg then read code.(i + 3);
            if is_binary op && code.(i + 5) = k_reg then read code.(i + 6);
            if op = T.op_fma then read code.(i + 1)
          end;
          written.(code.(i + 1)) <- true
        end
      done
    in
    (* Load folding: a load becomes its reader's memory operand when the
       reader is a fusable ALU opcode reading the register once, that is
       the register's only read before its next write (or the body's end,
       the accumulator store included), no store lies between them and
       the register is not live-in to the body.  Lane by lane the reader
       then sees exactly the load's value (DESIGN §15). *)
    let body_livein = Array.make nregs false in
    live_in vcode ~written:(Array.make nregs false) ~livein:body_livein;
    let keep = Array.make nv true and folded = ref 0 in
    for k = 0 to nv - 1 do
      let i = k * vw in
      let r = vcode.(i + 1) in
      if is_vload vcode.(i) && not body_livein.(r) then begin
        (* the reader's operand field, once found *)
        let field = ref (-1) and ok = ref true and ended = ref false in
        let m = ref (k + 1) in
        while !ok && (not !ended) && !m < nv do
          let j = !m * vw in
          let rk = read_kind vcode j r in
          if rk > 0 then
            if rk < 3 && !field < 0 then field := j + if rk = 1 then 2 else 5
            else ok := false;
          if is_vstore vcode.(j) then (if !field < 0 then ok := false)
          else if vcode.(j + 1) = r then ended := true;
          incr m
        done;
        if (not !ended) && Array.length vepi > 0 && vepi.(6) = r then
          ok := false;
        if !ok && !field >= 0 then begin
          let o = !field in
          vcode.(o) <- k_mem;
          vcode.(o + 1) <- vcode.(i + 3);
          vcode.(o + 2) <- vcode.(i + 4);
          keep.(k) <- false;
          incr folded
        end
      end
    done;
    let vcode =
      if !folded = 0 then vcode
      else begin
        let c = Array.make ((nv - !folded) * vw) 0 and n = ref 0 in
        for k = 0 to nv - 1 do
          if keep.(k) then begin
            Array.blit vcode (k * vw) c (!n * vw) vw;
            incr n
          end
        done;
        c
      end
    in
    (* a register the vector tape never writes holds one value for the
       whole batch: ALU opcodes read it as a scalar *)
    let written = Array.make nregs false in
    if ivd >= 0 then written.(ivd) <- true;
    List.iter
      (fun code ->
        for k = 0 to (Array.length code / vw) - 1 do
          if not (is_vstore code.(k * vw)) then written.(code.((k * vw) + 1)) <- true
        done)
      [ vpro; vcode ];
    for k = 0 to (Array.length vcode / vw) - 1 do
      let i = k * vw in
      if fusable vcode.(i) then
        for o = 0 to 1 do
          let f = i + 2 + (3 * o) in
          if vcode.(f) = k_reg && not written.(vcode.(f + 1)) then begin
            vcode.(f) <- k_scalar;
            vcode.(f + 2) <- 0
          end
        done
    done;
    let vlivein =
      let written = Array.make nregs false and livein = Array.make nregs false in
      live_in vpro ~written ~livein;
      live_in vcode ~written ~livein;
      let out = ref [] in
      for r = nregs - 1 downto 0 do
        if livein.(r) then out := r :: !out
      done;
      Array.of_list !out
    in
    let vall = Array.concat [ vpro; vcode; vepi ] in
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
        t_vall = vall;
        t_vk = kernels_of vall;
        t_vlivein = vlivein;
        t_folded = !folded;
        t_names = Array.map (fun a -> a.T.ac_buf) p.T.p_accesses;
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
let folded t = t.t_folded

(* The bound vector tape as text: one line per instruction, operands as
   [r5] (lane register), [r4:scalar] (uniform scalar) or [img@s3]
   (memory: buffer and step along the batched level — [u] unit, [b]
   broadcast, [sK] stride K). *)
let listing t =
  if t.t_lanes = 0 then ""
  else begin
    let b = Buffer.create 256 in
    let opnd k x s =
      if k = k_reg then Printf.sprintf "r%d" x
      else if k = k_scalar then Printf.sprintf "r%d:scalar" x
      else
        Printf.sprintf "%s@%s" t.t_names.(x)
          (if s = 1 then "u" else if s = 0 then "b" else Printf.sprintf "s%d" s)
    in
    Buffer.add_string b
      (Printf.sprintf "bound vector tape (%s): %d loads folded, live-in [%s]\n"
         (mode_to_string t.t_mode) t.t_folded
         (String.concat " "
            (Array.to_list
               (Array.map (Printf.sprintf "r%d") t.t_vlivein))));
    let section tag code =
      for k = 0 to (Array.length code / vw) - 1 do
        let f o = code.((k * vw) + o) in
        let op = f 0 in
        let txt =
          if is_vload op then Printf.sprintf "r%d <- %s" (f 1) (opnd k_mem (f 3) (f 4))
          else if is_vstore op then
            Printf.sprintf "%s <- r%d" (opnd k_mem (f 3) (f 4)) (f 6)
          else if is_binary op then
            Printf.sprintf "r%d <- %s, %s" (f 1) (opnd (f 2) (f 3) (f 4))
              (opnd (f 5) (f 6) (f 7))
          else Printf.sprintf "r%d <- %s" (f 1) (opnd (f 2) (f 3) (f 4))
        in
        Buffer.add_string b
          (Printf.sprintf "  %s%2d: %-8s %s\n" tag k (T.vop_name op) txt)
      done
    in
    section "pro " t.t_vpro;
    section "    " t.t_vcode;
    section "epi " t.t_vepi;
    Buffer.contents b
  end

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
      fstr = Array.make t.t_split 1;
      elo = Array.make t.t_d 0;
      ehi = Array.make t.t_d 0;
      plo = Array.make (Array.length t.t_pieces * t.t_d) 0;
      phi = Array.make (Array.length t.t_pieces * t.t_d) 0;
      plive = Array.make (Array.length t.t_pieces) false;
      vcode = t.t_vall;
      datas = t.t_datas;
      rsteps = t.t_rsteps;
      pc = 0;
      rows = 1;
      bw = 0 }
  in
  Array.iter (fun (r, v) -> st.regs.(r) <- v) t.t_lits;
  st

let lane_width st =
  if Array.length st.vregs = 0 then 0 else Array.length st.vregs.(0)

(* A program merged from guarded pieces iterates the union box of the
   piece bounds; that equals the union of the pieces only when, at this
   env, the non-empty pieces agree on every level but at most one and
   their intervals on that level tile the box contiguously (overlap is
   fine — the generator required identical, idempotent piece bodies).
   Any other shape reports [false] and the caller takes the closure
   fallback, which replays the original guarded IR exactly.  The piece
   bounds are evaluated into the state's scratch, so a check allocates
   nothing. *)
let pieces_cover t st env =
  let np = Array.length t.t_pieces in
  if np = 0 then true
  else begin
    let d = t.t_d in
    let lo = st.elo and hi = st.ehi in
    let plo = st.plo and phi = st.phi and live = st.plive in
    let first = ref (-1) in
    for k = np - 1 downto 0 do
      let pb = t.t_pieces.(k) in
      let empty = ref false in
      for l = 0 to d - 1 do
        let a = fst pb.(l) env and b = snd pb.(l) env in
        plo.((k * d) + l) <- a;
        phi.((k * d) + l) <- b;
        if b < a then empty := true
      done;
      live.(k) <- not !empty;
      if not !empty then first := k
    done;
    if !first < 0 then false (* the box is non-empty but no piece covers it *)
    else begin
      let f = !first * d in
      let varying = ref (-1) and ok = ref true in
      for k = !first + 1 to np - 1 do
        if live.(k) then
          for l = 0 to d - 1 do
            if plo.((k * d) + l) <> plo.(f + l) || phi.((k * d) + l) <> phi.(f + l)
            then
              if !varying = -1 || !varying = l then varying := l
              else ok := false
          done
      done;
      (* levels the pieces agree on must coincide with the program box
         (an empty piece may have widened the min/max fold) *)
      for l = 0 to d - 1 do
        if l <> !varying && (plo.(f + l) <> lo.(l) || phi.(f + l) <> hi.(l))
        then ok := false
      done;
      if not !ok then false
      else if !varying = -1 then true
      else begin
        (* on the varying level the intervals must start at the box's low
           end, chain without a gap and reach its high end *)
        let lv = !varying in
        let mn = ref max_int and mx = ref min_int in
        for k = 0 to np - 1 do
          if live.(k) then begin
            mn := Int.min !mn plo.((k * d) + lv);
            mx := Int.max !mx phi.((k * d) + lv)
          end
        done;
        !mn = lo.(lv) && !mx = hi.(lv)
        &&
        let cover = ref (lo.(lv) - 1) and grew = ref true in
        while !grew do
          grew := false;
          for k = 0 to np - 1 do
            if live.(k)
               && plo.((k * d) + lv) <= !cover + 1
               && phi.((k * d) + lv) > !cover
            then begin
              cover := phi.((k * d) + lv);
              grew := true
            end
          done
        done;
        !cover = hi.(lv)
      end
    end
  end

(* [enter t st env] evaluates bounds and runs the whole-box corner checks:
   [-1] when a check fails (caller takes the closure fallback), otherwise
   the size of the fused split space (0 when any level is empty: nothing
   to run, vacuously in bounds).  Checks run against the original
   per-level view — the exec view merge is order-preserving, so a passing
   check covers it too.  The bounds land in [st]'s scratch: no
   allocation per entry. *)
let enter t st env =
  let d = t.t_d in
  let lo = st.elo and hi = st.ehi in
  let empty = ref false in
  for l = 0 to d - 1 do
    lo.(l) <- t.t_lo.(l) env;
    hi.(l) <- t.t_hi.(l) env;
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
    else if not (pieces_cover t st env) then -1
    else begin
      let total = ref 1 in
      for l = 0 to t.t_split - 1 do
        total := !total * (hi.(l) - lo.(l) + 1)
      done;
      !total
    end
  end


(* The lane register file, wide enough for a batch of [bw] lanes.  It
   grows on the first vector batch, and then at least doubles (up to the
   bound width), so a state whose nest never batches allocates no lane
   registers and a run of growing segments reallocates a few times at
   most.  Growing drops lane contents, which is safe between batches:
   the live-in registers are broadcast into the first [bw] lanes after
   sizing, and every other register is written before it is read. *)
let lane_regs t st bw =
  let have = lane_width st in
  let vr =
    if have >= bw then st.vregs
    else begin
      let w = Int.min t.t_lanes (Int.max bw (2 * have)) in
      let vr = Array.init t.t_nregs (fun _ -> Array.make w 0.0) in
      st.vregs <- vr;
      vr
    end
  in
  Array.iter (fun r -> Array.fill vr.(r) 0 bw st.regs.(r)) t.t_vlivein;
  vr

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
      let vr = lane_regs t st (Int.min w len) in
      let nk = Array.length t.t_vk in
      st.rows <- 1;
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
        st.bw <- bw;
        exec_code_vec t.t_vk st 0 nk;
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

(* One block of an [Outer] binding, the odometer in position above the
   lane run [xl] (or its row level [xl - 1]): rows in chunks of [t_rows],
   each chunk's run in batches of [w] positions.  A batch runs the bound
   tape's [pro] (promoted and accumulator loads), the body once per
   innermost iteration with inner-step cursor bumps, and [epi] (the
   accumulator's store).  Leftover positions run as one narrower batch,
   or as a scalar segment when a single lane is left. *)
let run_lanes t st =
  let xl = t.t_xd - 2 in
  let kx = xl + 1 and rl = xl - 1 in
  let rows = t.t_rows in
  let w = match t.t_mode with Outer { width; _ } -> width | _ -> 1 in
  let n = st.exts.(xl) and lo = st.los.(xl) in
  let rlo, rn = if rows > 1 then (st.los.(rl), st.exts.(rl)) else (0, 1) in
  let nacc = Array.length t.t_accs in
  let regs = st.regs and cur = st.cur in
  let lbase = st.lbase in
  let nl0 = Int.min rows rn * Int.min w n in
  if nl0 >= 2 then begin
    (* outer iteration variables feed the live-in broadcast *)
    for l = 0 to (if rows > 1 then rl else xl) - 1 do
      regs.(t.t_xivregs.(l)) <- float_of_int st.ivs.(l)
    done;
    ignore (lane_regs t st nl0)
  end;
  (* the bound tape's sections: [pro] is [0, np), the body [np, nb) *)
  let np = Array.length t.t_vpro / vw in
  let nb = np + (Array.length t.t_vcode / vw) in
  let inner = t.t_inner_steps and bsteps = t.t_bsteps in
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
        st.rows <- nr;
        st.bw <- bw;
        exec_code_vec t.t_vk st 0 np;
        for _ = 1 to ext do
          exec_code_vec t.t_vk st np nb;
          for a = 0 to nacc - 1 do
            cur.(a) <- cur.(a) + inner.(a)
          done
        done;
        exec_code_vec t.t_vk st nb (Array.length t.t_vk);
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
