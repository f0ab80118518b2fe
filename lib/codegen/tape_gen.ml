(* Lowering rectangular loop nests to flat instruction tapes.

   The closure compiler pays an indirect call (and a boxed float result)
   per IR node per iteration; no schedule can amortize that floor.  This
   module claims whole rectangular nests over a straight-line store leaf
   and lowers them to a compact bytecode the {e backend} tape executor runs with no closures,
   no env lookups and no allocation in the hot loop:

   - a nest qualifies when it is a perfect [For] chain (comments allowed
     between levels) whose bounds are affine in names {e outside} the
     nest, whose tags are CPU tags ([Seq]/[Parallel]/[Unrolled]/
     [Vectorized]), and whose leaf is the {!Loop_ir.spec_stores} shape
     with affine indices and {!Loop_ir.spec_value_ok} values;
   - [Parallel] tags must form a prefix of the chain; the prefix depth is
     recorded so the executor can split the {e fused} iteration space of
     those levels across workers without the binder div/mods the parallel
     planner's coalescing would emit;
   - values compile to fixed-width (4-int) instructions over a float
     register file: literals, hoisted outer names and per-level iteration
     variables live in persistent registers, temporaries in a stack region
     sized by the deepest expression;
   - loads/stores address memory through per-access cursors the executor
     strength-reduces (base + per-level steps); loads invariant in the
     innermost variable from unwritten buffers are promoted to registers,
     and stores that all write one access invariant in the innermost
     variable, whose same-buffer loads all alias it, become a register
     accumulator (disallowed when the innermost level is part of the
     parallel prefix, where a worker boundary could split the
     accumulation) — an unrolled reduction's stores fold into it one
     after another;
   - [Add (x, Mul (a, b))] folds to an [Fma] instruction, defined with two
     roundings (multiply then add) so results stay bit-identical to the
     interpreter — it is a dispatch fusion, not a hardware fma.

   The program built here is abstract: buffer names and affine index
   terms, no arrays or strides.  The backend binds it against concrete
   buffers ({!Tape.bind}), which is also where rank mismatches and unknown
   buffers turn into a (counted) fallback to the closure path. *)

module L = Loop_ir

(* Bump when instruction semantics or the program layout change: the
   pipeline compile cache mixes this into its key, so a cached artifact
   built by an older tape generator can never be served to a newer one. *)
let version = 4

(* ---------- instruction set ---------- *)

(* One instruction is 4 ints: [op; dst; a; b].  For [op_load] the [a]
   field is an access index; for [op_store] the [a] field is the access
   and [b] the source register; everywhere else the fields are registers
   (unused fields are 0). *)

let op_load = 0   (* dst <- data[a][cur[a]] *)
let op_store = 1  (* data[a][cur[a]] <- regs[b] *)
let op_mov = 2
let op_add = 3
let op_sub = 4
let op_mul = 5
let op_div = 6
let op_min = 7
let op_max = 8
let op_fma = 9    (* dst <- dst +. (a *. b): two roundings, bit-exact *)
let op_neg = 10
let op_abs = 11
let op_sqrt = 12
let op_exp = 13
let op_log = 14
let op_sin = 15
let op_cos = 16
let op_floor = 17
let op_pow = 18
let op_fdivi = 19 (* euclidean floordiv on int_of_float operands *)
let op_modi = 20  (* euclidean mod on int_of_float operands *)
let op_trunc = 21 (* Cast to I32 and back: float_of_int (int_of_float a) *)

(* Vector-tier memory opcodes.  The generator never emits these — the
   backend derives a vector tape from [p_code] at bind time, once access
   strides are known, rewriting [op_load]/[op_store] to the forms below
   and reusing codes 2..21 with lane-wise semantics.  The bound
   instruction layout (the step [s] of each access, operand forms) is
   the backend's: see [Tape]. *)
let op_vload_unit = 22    (* vregs[dst][0..w) <- data[a][cur[a] ..] *)
let op_vload_strided = 23 (* vregs[dst][j] <- data[a][cur[a] + j*s] *)
let op_vload_bcast = 24   (* vregs[dst][0..w) <- data[a][cur[a]] *)
let op_vstore_unit = 25   (* data[a][cur[a] ..] <- vregs[src][0..w) *)
let op_vstore_strided = 26 (* data[a][cur[a] + j*s] <- vregs[src][j] *)

let op_name = function
  | 0 -> "load" | 1 -> "store" | 2 -> "mov" | 3 -> "add" | 4 -> "sub"
  | 5 -> "mul" | 6 -> "div" | 7 -> "min" | 8 -> "max" | 9 -> "fma"
  | 10 -> "neg" | 11 -> "abs" | 12 -> "sqrt" | 13 -> "exp" | 14 -> "log"
  | 15 -> "sin" | 16 -> "cos" | 17 -> "floor" | 18 -> "pow"
  | 19 -> "fdivi" | 20 -> "modi" | 21 -> "trunc"
  | 22 -> "vload.u" | 23 -> "vload.s" | 24 -> "vbcast"
  | 25 -> "vstore.u" | 26 -> "vstore.s"
  | _ -> "?"

(* Mnemonic of an opcode as the vector tier executes it: memory opcodes
   keep their specialized names, ALU codes gain a [v] prefix (lane-wise
   semantics over the vector register file). *)
let vop_name op =
  if op >= op_vload_unit && op <= op_vstore_strided then op_name op
  else "v" ^ op_name op

(* ---------- the abstract program ---------- *)

(* Per-dimension affine index: sorted (var, coeff) terms plus a constant.
   Terms may reference nest variables (resolved to per-level cursor steps
   at bind time) and free names (parameters, enclosing loop variables —
   resolved to env slots at bind time). *)
type affine = (string * int) list * int

(* Loop bounds: affine in outside names at the core, with the min/max and
   constant floordiv/mod layers that tiling with partial tiles and vector
   legalization wrap around them.  Still pure data — the backend compiles
   a bound to an [env -> int] closure at bind time.  Access indices stay
   strictly affine: only bounds grow this richer grammar. *)
type bexpr =
  | Baff of affine
  | Badd of bexpr * bexpr
  | Bsub of bexpr * bexpr
  | Bscale of bexpr * int
  | Bmin of bexpr * bexpr
  | Bmax of bexpr * bexpr
  | Bfdiv of bexpr * int  (* euclidean, positive constant divisor *)
  | Bmod of bexpr * int   (* euclidean, positive constant divisor *)

type access = {
  ac_buf : string;
  ac_idx : affine array;  (* one entry per dimension *)
  ac_stored : bool;       (* some store in the leaf writes this buffer *)
}

type level = {
  lv_var : string;
  lv_lo : bexpr;          (* over names outside the nest only *)
  lv_hi : bexpr;
  lv_tag : L.loop_tag;
}

type program = {
  p_levels : level array;        (* outermost first *)
  p_par : int;                   (* length of the Parallel tag prefix *)
  p_accesses : access array;
  p_nregs : int;                 (* register-file size *)
  p_lits : (int * float) array;  (* reg <- literal, once per state *)
  p_hoists : (int * string) array; (* reg <- float env.(name), per range *)
  p_ivregs : int array;          (* float register of each level's var *)
  p_promos : (int * int) array;  (* (reg, access): per-segment load *)
  p_accum : (int * int * bool) option;
    (* (reg, store access, init-from-memory): register accumulator, the
       one access every store writes; lanes batch along the level above
       the innermost ([outer_lane_level]), never along the innermost *)
  p_code : int array;            (* packed body instructions *)
  p_ivuse : bool array;          (* per level: body reads the var's register *)
  p_vec_ok : bool;
    (* lane batching along the innermost level preserves scalar
       semantics: no accumulator, every load from a stored buffer exactly
       aliases the store, no load reads a buffer that two stores write,
       and no read-modify-write address ignores the innermost variable *)
  p_rmw : int array;
    (* accesses both loaded and stored (exact read-modify-write alias);
       vector execution additionally needs their innermost step nonzero
       so lanes touch distinct addresses *)
  p_store_pairs : (int * int) array;
    (* distinct store accesses into one buffer; vector execution
       additionally needs each pair to never collide across lanes *)
  p_pieces : (bexpr * bexpr) array array;
    (* guarded leaf pieces, piece-major then level-major (lo, hi): the
       program's level bounds are the union box (min of lows, max of
       highs); the executor verifies per entry that the non-empty
       pieces tile that box contiguously and otherwise falls back.
       [[||]] when the leaf was unguarded (or a single piece, whose
       bounds are the level bounds themselves) *)
}

let instr_count p = Array.length p.p_code / 4

(* ---------- classification ---------- *)

type reject =
  | Not_perfect
  | Non_cpu_tag
  | Shadowed_var of string
  | Bound_reads_nest_var of string
  | Bound_shape
  | Parallel_below_seq
  | Guard_shape
  | Non_affine_index of string
  | Value_shape
  | Pieces_reread

let reject_to_string = function
  | Not_perfect -> "not a perfect nest over straight-line stores"
  | Non_cpu_tag -> "non-CPU loop tag"
  | Shadowed_var v -> "loop variable " ^ v ^ " rebound"
  | Bound_reads_nest_var v -> "bound reads nest variable " ^ v
  | Bound_shape -> "bound outside the affine min/max/floord grammar"
  | Parallel_below_seq -> "parallel level below a sequential one"
  | Guard_shape -> "guard is not an affine box over one shared body"
  | Non_affine_index b -> "non-affine index into " ^ b
  | Value_shape -> "stored value outside the tape grammar"
  | Pieces_reread -> "overlapping guarded pieces read a stored buffer"

exception Reject of reject

let norm_affine ((ts, c) : affine) : affine =
  (List.sort (fun (a, _) (b, _) -> compare a b) ts, c)

(* ---------- bound simplification ----------

   Guarded-piece claiming intersects and unions bounds mechanically, which
   leaves [min]/[max] trees full of duplicated and dominated arms (e.g.
   [min (min (8j0+7, 61), 8j0+7)]).  Bounds are built once per claimed
   nest but re-evaluated by the executor on every nest entry — [enter]'s
   corner checks, the piece-cover check and the range prologue each walk
   them — so pruning the trees here is a direct cut to per-entry cost. *)

(* Each bound node built costs one unit of the work budget
   ([Limits.with_fuel]), so a claim whose bound trees grow stops on the
   budget like every other polyhedral step, not on memory. *)
let charge_nodes n = Tiramisu_support.Limits.charge ~stage:"tape.bounds" n

(* [ble a b]: true only when [a <= b] holds for every assignment of the
   free names (conservative — false means "unknown").  Affine leaves with
   identical term lists compare by constant; [min]/[max] recurse by the
   lattice rules; a floordiv by the same divisor is monotone. *)
let rec ble a b =
  match (a, b) with
  | Baff (ts1, c1), Baff (ts2, c2) -> ts1 = ts2 && c1 <= c2
  | Bmin (x, y), _ -> ble x b || ble y b
  | _, Bmax (x, y) -> ble a x || ble a y
  | Bmax (x, y), _ -> ble x b && ble y b
  | _, Bmin (x, y) -> ble a x && ble a y
  | Bfdiv (x, k1), Bfdiv (y, k2) -> k1 = k2 && ble x y
  | _ -> a = b

let aff_combine f (ts1, c1) (ts2, c2) =
  let ts =
    List.fold_left
      (fun acc (v, k) ->
        match List.assoc_opt v acc with
        | Some k0 ->
            let acc = List.remove_assoc v acc in
            let k' = f k0 k in
            if k' = 0 then acc else (v, k') :: acc
        | None ->
            let k' = f 0 k in
            if k' = 0 then acc else (v, k') :: acc)
      ts1 ts2
  in
  norm_affine (ts, f c1 c2)

(* Smart constructors: fold affine arithmetic, drop dominated arms. *)
let badd a b =
  match (a, b) with
  | Baff x, Baff y -> Baff (aff_combine ( + ) x y)
  | _ -> Badd (a, b)

let bsub a b =
  match (a, b) with
  | Baff x, Baff y -> Baff (aff_combine ( - ) x y)
  | _ -> Bsub (a, b)

let bscale a k =
  if k = 0 then Baff ([], 0)
  else
    match a with
    | Baff (ts, c) -> Baff (List.map (fun (v, q) -> (v, q * k)) ts, c * k)
    | _ -> Bscale (a, k)

let bmin a b =
  charge_nodes 1;
  if ble a b then a else if ble b a then b else Bmin (a, b)

let bmax a b =
  charge_nodes 1;
  if ble a b then b else if ble b a then a else Bmax (a, b)

let rec bsimp e =
  charge_nodes 1;
  match e with
  | Baff _ -> e
  | Badd (a, b) -> badd (bsimp a) (bsimp b)
  | Bsub (a, b) -> bsub (bsimp a) (bsimp b)
  | Bscale (a, k) -> bscale (bsimp a) k
  | Bmin (a, b) -> bmin (bsimp a) (bsimp b)
  | Bmax (a, b) -> bmax (bsimp a) (bsimp b)
  | Bfdiv (a, k) -> (
      match bsimp a with
      | Baff ([], c) -> Baff ([], Tiramisu_support.Ints.fdiv c k)
      | a' -> Bfdiv (a', k))
  | Bmod (a, k) -> (
      match bsimp a with
      | Baff ([], c) -> Baff ([], Tiramisu_support.Ints.emod c k)
      | a' -> Bmod (a', k))

(* A guarded leaf: one else-less [If], or a block of them — the shape
   [compute_at]'s shifted producer copies lower to (blur's coalesced
   producer nest stores the same stencil under three overlapping
   interval guards).  Comments are dropped; anything else is not a
   guarded leaf. *)
let guard_pieces (s : L.stmt) : (L.cond * L.stmt) list option =
  match s with
  | L.If (c, t, None) -> Some [ (c, t) ]
  | L.Block l -> (
      let l =
        List.filter
          (fun s -> match s with L.Comment _ -> false | _ -> true)
          l
      in
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | L.If (c, t, None) :: rest -> go ((c, t) :: acc) rest
        | _ -> None
      in
      match l with [] -> None | l -> go [] l)
  | _ -> None

(* Collect the maximal perfect [For] chain at [s]; raises [Reject] on
   non-CPU tags, shadowed variables, or bounds referencing a nest
   variable (non-rectangular).  Returns the levels outermost-first and
   the leaf body. *)
let collect_chain (s : L.stmt) : level list * string list * L.stmt =
  let rec go acc vars s =
    match s with
    | L.For { var; lo; hi; tag; body } ->
        (match tag with
        | L.Seq | L.Parallel | L.Unrolled | L.Vectorized _ -> ()
        | L.Gpu_block _ | L.Gpu_thread _ | L.Distributed ->
            raise (Reject Non_cpu_tag));
        if List.mem var vars then raise (Reject (Shadowed_var var));
        let vars = var :: vars in
        (* Bound classifier: affine where possible, otherwise peel the
           min/max/floordiv/mod/scale layers tiling and vector
           legalization produce (partial tiles bound inner loops by
           [min(t-1, n-1-t*outer)]; legalized vector blocks by
           [floord(...)]).  Nest variables stay rejected, so the
           planner's coalesced binder loops — whose bounds divide the
           fused variable — are still not claimable. *)
        let rec bnd e =
          match L.affine_terms e with
          | Some (ts, c) ->
              (match List.find_opt (fun (v, _) -> List.mem v vars) ts with
              | Some (v, _) -> raise (Reject (Bound_reads_nest_var v))
              | None -> ());
              Baff (norm_affine (ts, c))
          | None -> (
              match e with
              | L.Bin (L.MinOp, a, b) -> Bmin (bnd a, bnd b)
              | L.Bin (L.MaxOp, a, b) -> Bmax (bnd a, bnd b)
              | L.Bin (L.FloorDiv, a, L.Int k) when k > 0 -> Bfdiv (bnd a, k)
              | L.Bin (L.Mod, a, L.Int k) when k > 0 -> Bmod (bnd a, k)
              | L.Bin (L.Add, a, b) -> Badd (bnd a, bnd b)
              | L.Bin (L.Sub, a, b) -> Bsub (bnd a, bnd b)
              | L.Bin (L.Mul, a, L.Int k) | L.Bin (L.Mul, L.Int k, a) ->
                  Bscale (bnd a, k)
              | L.Cast (_, a) -> bnd a
              | _ -> raise (Reject Bound_shape))
        in
        let lvl =
          { lv_var = var; lv_lo = bnd lo; lv_hi = bnd hi; lv_tag = tag }
        in
        (match L.single_for body with
        | Some inner -> go (lvl :: acc) vars inner
        | None -> (List.rev (lvl :: acc), vars, body))
    | _ -> raise (Reject Not_perfect)
  in
  go [] [] s

(* ---------- emission ---------- *)

(* for the tests that pin one claim per compile *)
let n_classify = Atomic.make 0
let classify_calls () = Atomic.get n_classify

let classify (s : L.stmt) : (program, reject) result =
  Atomic.incr n_classify;
  match s with
  | L.For _ -> (
      try
        let levels, nest_vars, leaf = collect_chain s in
        let levels = Array.of_list levels in
        let d = Array.length levels in
        (* Parallel tags must be a prefix: a Parallel level under a
           sequential one would silently serialize inside the tape. *)
        let q = ref 0 in
        while !q < d && levels.(!q).lv_tag = L.Parallel do incr q done;
        let q = !q in
        for l = q to d - 1 do
          if levels.(l).lv_tag = L.Parallel then
            raise (Reject Parallel_below_seq)
        done;
        (* Guarded leaves lower to bound intersections.  Each piece's
           guard must be a conjunction of affine comparisons over at most
           one nest variable each: a single-variable atom tightens that
           level's bounds (ceil/floor division against the coefficient),
           an environment-only atom empties the piece when violated
           (encoded by pushing the level-0 lower bound past any real
           extent — bounds are evaluated, never iterated, so the
           magnitude is safe).  The program iterates the union box
           (min of lows / max of highs across pieces) and, for >= 2
           pieces, records the per-piece bounds in [p_pieces] so the
           executor can verify per entry that the non-empty pieces tile
           the box contiguously — any other shape takes the counted
           closure fallback. *)
        let level_of_var v =
          let rec go l =
            if l >= d then raise (Reject Guard_shape)
            else if levels.(l).lv_var = v then l
            else go (l + 1)
          in
          go 0
        in
        let piece_bounds (cond : L.cond) : (bexpr * bexpr) array =
          let lo = Array.map (fun lv -> lv.lv_lo) levels in
          let hi = Array.map (fun lv -> lv.lv_hi) levels in
          let rec conjuncts c =
            match c with
            | L.And (a, b) -> conjuncts a @ conjuncts b
            | c -> [ c ]
          in
          let neg ts = List.map (fun (v, k) -> (v, -k)) ts in
          let merge t1 t2 =
            List.fold_left
              (fun acc (v, k) ->
                match List.assoc_opt v acc with
                | Some k0 ->
                    let acc = List.remove_assoc v acc in
                    if k0 + k = 0 then acc else (v, k0 + k) :: acc
                | None -> if k = 0 then acc else (v, k) :: acc)
              t1 t2
          in
          (* environment-only atoms, pushed onto [lo.(0)] together once
             every conjunct is read: rebuilding the bound per atom would
             copy it twice each time, doubling the tree *)
          let env_atoms = ref [] in
          (* ts·vars + c >= 0 *)
          let constrain ((ts, c) : affine) =
            charge_nodes 2;
            let nest, rest =
              List.partition (fun (v, _) -> List.mem v nest_vars) ts
            in
            match nest with
            | [] -> env_atoms := norm_affine (rest, c) :: !env_atoms
            | [ (v, k) ] when k > 0 ->
                (* v >= ceil(-(rest + c) / k) *)
                let l = level_of_var v in
                let b =
                  if k = 1 then Baff (norm_affine (neg rest, -c))
                  else Bfdiv (Baff (norm_affine (neg rest, -c + k - 1)), k)
                in
                lo.(l) <- Bmax (lo.(l), b)
            | [ (v, k) ] ->
                (* v <= floor((rest + c) / -k) *)
                let l = level_of_var v in
                let k = -k in
                let b =
                  if k = 1 then Baff (norm_affine (rest, c))
                  else Bfdiv (Baff (norm_affine (rest, c)), k)
                in
                hi.(l) <- Bmin (hi.(l), b)
            | _ -> raise (Reject Guard_shape)
          in
          let atom a b =
            match (L.affine_terms a, L.affine_terms b) with
            | Some (ta, ca), Some (tb, cb) -> (merge ta (neg tb), ca - cb)
            | _ -> raise (Reject Guard_shape)
          in
          List.iter
            (fun (c : L.cond) ->
              match c with
              | L.True -> ()
              | L.Cmp (op, a, b) -> (
                  match op with
                  | L.GeOp -> constrain (atom a b)
                  | L.GtOp ->
                      let ts, c = atom a b in
                      constrain (ts, c - 1)
                  | L.LeOp -> constrain (atom b a)
                  | L.LtOp ->
                      let ts, c = atom b a in
                      constrain (ts, c - 1)
                  | L.EqOp ->
                      constrain (atom a b);
                      constrain (atom b a)
                  | L.NeOp -> raise (Reject Guard_shape))
              | _ -> raise (Reject Guard_shape))
            (conjuncts cond);
          (* each atom scores 0 when satisfied and -1 when violated; any
             violation pushes the level-0 low bound past every real
             extent, emptying the piece *)
          (match List.rev !env_atoms with
          | [] -> ()
          | a :: rest ->
              let score a =
                charge_nodes 6;
                Bmax (Bmin (Baff a, Baff ([], 0)), Baff ([], -1))
              in
              let g =
                List.fold_left (fun g a -> Badd (g, score a)) (score a) rest
              in
              charge_nodes 3;
              lo.(0) <- Bmax (lo.(0), Badd (lo.(0), Bscale (g, -(1 lsl 40)))));
          Array.init d (fun l -> (lo.(l), hi.(l)))
        in
        let leaf, piece_bnds =
          match guard_pieces leaf with
          | None -> (leaf, [])
          | Some [] -> raise (Reject Not_perfect)
          | Some (((_, b0) :: rest) as ps) ->
              (* overlap soundness rests on the bodies being the same
                 program: structural equality, checked here *)
              List.iter
                (fun (_, b) -> if b <> b0 then raise (Reject Guard_shape))
                rest;
              (b0, List.map (fun (c, _) -> piece_bounds c) ps)
        in
        let npieces = List.length piece_bnds in
        let piece_bnds =
          List.map
            (Array.map (fun (plo, phi) -> (bsimp plo, bsimp phi)))
            piece_bnds
        in
        let levels =
          if npieces = 0 then
            Array.map
              (fun lv ->
                { lv with lv_lo = bsimp lv.lv_lo; lv_hi = bsimp lv.lv_hi })
              levels
          else
            Array.mapi
              (fun l lv ->
                let fold1 f = function
                  | [] -> assert false
                  | x :: rest -> List.fold_left f x rest
                in
                { lv with
                  lv_lo =
                    fold1 bmin (List.map (fun pb -> fst pb.(l)) piece_bnds);
                  lv_hi =
                    fold1 bmax (List.map (fun pb -> snd pb.(l)) piece_bnds) })
              levels
        in
        let stores =
          match L.spec_stores leaf with
          | None | Some [] -> raise (Reject Not_perfect)
          | Some stores -> stores
        in
        List.iter
          (fun (b, idx, v) ->
            if not (List.for_all L.affine idx) then
              raise (Reject (Non_affine_index b));
            if not (L.spec_value_ok v) then raise (Reject Value_shape))
          stores;
        let stored_bufs = List.map (fun (b, _, _) -> b) stores in
        let inner_var = levels.(d - 1).lv_var in
        (* access table: identical (buffer, normalized index) pairs share
           one cursor *)
        let acc_tbl : (string * affine list, int) Hashtbl.t =
          Hashtbl.create 8
        in
        let acc_of : (int, access) Hashtbl.t = Hashtbl.create 8 in
        let acc_index bname (idx : L.expr list) : int =
          let aidx =
            List.map
              (fun e ->
                match L.affine_terms e with
                | Some a -> norm_affine a
                | None -> raise (Reject (Non_affine_index bname)))
              idx
          in
          let key = (bname, aidx) in
          match Hashtbl.find_opt acc_tbl key with
          | Some i -> i
          | None ->
              let i = Hashtbl.length acc_tbl in
              Hashtbl.add acc_tbl key i;
              Hashtbl.add acc_of i
                { ac_buf = bname; ac_idx = Array.of_list aidx;
                  ac_stored = List.mem bname stored_bufs };
              i
        in
        let access i = Hashtbl.find acc_of i in
        let invariant_in_inner i =
          Array.for_all
            (fun (ts, _) -> not (List.mem_assoc inner_var ts))
            (access i).ac_idx
        in
        (* persistent registers *)
        let nreg = ref 0 in
        let new_reg () =
          let r = !nreg in
          incr nreg;
          r
        in
        let lits = ref [] in
        let lit_tbl : (int64, int) Hashtbl.t = Hashtbl.create 8 in
        let lit f =
          let key = Int64.bits_of_float f in
          match Hashtbl.find_opt lit_tbl key with
          | Some r -> r
          | None ->
              let r = new_reg () in
              Hashtbl.add lit_tbl key r;
              lits := (r, f) :: !lits;
              r
        in
        let hoists = ref [] in
        let hoist_tbl : (string, int) Hashtbl.t = Hashtbl.create 4 in
        let hoist u =
          match Hashtbl.find_opt hoist_tbl u with
          | Some r -> r
          | None ->
              let r = new_reg () in
              Hashtbl.add hoist_tbl u r;
              hoists := (r, u) :: !hoists;
              r
        in
        let ivregs = Array.init d (fun _ -> new_reg ()) in
        let iv_of_var u =
          let rec find l = if levels.(l).lv_var = u then l else find (l + 1) in
          ivregs.(find 0)
        in
        let promos = ref [] in
        let promo_tbl : (int, int) Hashtbl.t = Hashtbl.create 4 in
        (* accumulator: every store writes one access whose address is
           invariant in the innermost variable, same-buffer loads all
           alias it exactly — and the innermost level must not be part of
           the parallel split space.  Several stores (an unrolled
           reduction) fold one after another into the register, each
           reading the value the previous one wrote. *)
        let rec value_loads (e : L.expr) acc =
          match e with
          | L.Int _ | L.Float _ | L.Var _ -> acc
          | L.Load (b, idx) -> (b, idx) :: acc
          | L.Neg a | L.Cast (_, a) -> value_loads a acc
          | L.Bin (_, a, b) -> value_loads b (value_loads a acc)
          | L.Call (_, args) ->
              List.fold_left (fun acc a -> value_loads a acc) acc args
          | L.Select _ -> raise (Reject Value_shape)
        in
        let all_loads =
          List.concat_map (fun (_, _, v) -> value_loads v []) stores
        in
        (* overlapping guarded pieces re-execute points; that is only
           sound when re-running the body stores the same bits, i.e. no
           stored value reads a buffer the nest writes *)
        if
          npieces >= 2
          && List.exists (fun (b, _) -> List.mem b stored_bufs) all_loads
        then raise (Reject Pieces_reread);
        let accum =
          match stores with
          | (sb, sidx, _) :: rest when npieces <= 1 && q < d ->
              let i = acc_index sb sidx in
              if
                List.for_all (fun (b, idx, _) -> acc_index b idx = i) rest
                && invariant_in_inner i
                && List.for_all
                     (fun (b, idx) ->
                       b <> sb || acc_index b idx = i)
                     all_loads
              then begin
                let needs_load =
                  List.exists (fun (b, idx) -> b = sb && acc_index b idx = i)
                    all_loads
                in
                Some (new_reg (), i, needs_load)
              end
              else None
          | _ -> None
        in
        (* instruction emission with stack-disciplined temporaries; temps
           are encoded negative and remapped after the persistent count is
           final *)
        let code = ref [] in
        let ins op dst a b = code := b :: a :: dst :: op :: !code in
        let sp = ref 0 and max_tmp = ref 0 in
        let push () =
          let t = !sp in
          incr sp;
          if !sp > !max_tmp then max_tmp := !sp;
          -(t + 1)
        in
        let is_tmp r = r < 0 in
        let pop_if r = if is_tmp r then decr sp in
        let promo_or_load i =
          match accum with
          | Some (areg, ai, _) when ai = i -> areg
          | _ ->
              if invariant_in_inner i && not (access i).ac_stored then begin
                match Hashtbl.find_opt promo_tbl i with
                | Some r -> r
                | None ->
                    let r = new_reg () in
                    Hashtbl.add promo_tbl i r;
                    promos := (r, i) :: !promos;
                    r
              end
              else begin
                let dst = push () in
                ins op_load dst i 0;
                dst
              end
        in
        let unop op a_reg =
          pop_if a_reg;
          let t = push () in
          ins op t a_reg 0;
          t
        in
        let binop op ra rb =
          pop_if rb;
          pop_if ra;
          let t = push () in
          ins op t ra rb;
          t
        in
        let rec emit (e : L.expr) : int =
          match e with
          | L.Int n -> lit (float_of_int n)
          | L.Float f -> lit f
          | L.Var u ->
              if List.mem u nest_vars then iv_of_var u else hoist u
          | L.Load (b, idx) -> promo_or_load (acc_index b idx)
          | L.Neg a -> unop op_neg (emit a)
          | L.Cast (L.I32, a) -> unop op_trunc (emit a)
          | L.Cast (_, a) -> emit a
          | L.Select _ -> raise (Reject Value_shape)
          | L.Bin (L.Add, x, L.Bin (L.Mul, a, b)) ->
              (* fma fusion: safe in place only when x landed in a temp *)
              let rx = emit x in
              let ra = emit a in
              let rb = emit b in
              pop_if rb;
              pop_if ra;
              if is_tmp rx then begin
                ins op_fma rx ra rb;
                rx
              end
              else begin
                let t = push () in
                ins op_mul t ra rb;
                ins op_add t rx t;
                t
              end
          | L.Bin (op, a, b) ->
              let code =
                match op with
                | L.Add -> op_add
                | L.Sub -> op_sub
                | L.Mul -> op_mul
                | L.Div -> op_div
                | L.FloorDiv -> op_fdivi
                | L.Mod -> op_modi
                | L.MinOp -> op_min
                | L.MaxOp -> op_max
              in
              let ra = emit a in
              let rb = emit b in
              binop code ra rb
          | L.Call (name, args) -> (
              match (name, args) with
              | "abs", [ a ] -> unop op_abs (emit a)
              | "sqrt", [ a ] -> unop op_sqrt (emit a)
              | "exp", [ a ] -> unop op_exp (emit a)
              | "log", [ a ] -> unop op_log (emit a)
              | "sin", [ a ] -> unop op_sin (emit a)
              | "cos", [ a ] -> unop op_cos (emit a)
              | "floor", [ a ] -> unop op_floor (emit a)
              | "pow", [ a; b ] ->
                  let ra = emit a in
                  let rb = emit b in
                  binop op_pow ra rb
              | "fmin", [ a; b ] ->
                  let ra = emit a in
                  let rb = emit b in
                  binop op_min ra rb
              | "fmax", [ a; b ] ->
                  let ra = emit a in
                  let rb = emit b in
                  binop op_max ra rb
              | "clamp", [ x; lo; hi ] ->
                  (* min (max x lo) hi, matching the closure evaluator *)
                  let rx = emit x in
                  let rlo = emit lo in
                  let t = binop op_max rx rlo in
                  let rhi = emit hi in
                  binop op_min t rhi
              | _ -> raise (Reject Value_shape))
        in
        List.iter
          (fun (sb, sidx, sval) ->
            sp := 0;
            let i = acc_index sb sidx in
            match accum with
            | Some (areg, ai, _) when ai = i -> (
                (* read-modify-write collapses onto the accumulator: the
                   aliasing load reads [areg], and the single write at the
                   end is the only mutation, so folding [acc + rest] into
                   an in-place add/fma is exact *)
                match sval with
                | L.Bin (L.Add, L.Load (b2, idx2), rest)
                  when b2 = sb && acc_index b2 idx2 = i -> (
                    match rest with
                    | L.Bin (L.Mul, a, b) ->
                        let ra = emit a in
                        let rb = emit b in
                        pop_if rb;
                        pop_if ra;
                        ins op_fma areg ra rb
                    | rest ->
                        let r = emit rest in
                        pop_if r;
                        ins op_add areg areg r)
                | sval ->
                    let r = emit sval in
                    pop_if r;
                    if r <> areg then ins op_mov areg r 0)
            | _ ->
                let r = emit sval in
                pop_if r;
                ins op_store 0 i r)
          stores;
        (* finalize: remap negative temps above the persistent registers *)
        let npersist = !nreg in
        let remap r = if r < 0 then npersist + (-r - 1) else r in
        let raw = Array.of_list (List.rev !code) in
        let n = Array.length raw / 4 in
        let packed = Array.make (Array.length raw) 0 in
        for k = 0 to n - 1 do
          let op = raw.(4 * k) in
          let dst = raw.((4 * k) + 1)
          and a = raw.((4 * k) + 2)
          and b = raw.((4 * k) + 3) in
          packed.(4 * k) <- op;
          if op = op_load then begin
            packed.((4 * k) + 1) <- remap dst;
            packed.((4 * k) + 2) <- a;
            packed.((4 * k) + 3) <- 0
          end
          else if op = op_store then begin
            packed.((4 * k) + 1) <- 0;
            packed.((4 * k) + 2) <- a;
            packed.((4 * k) + 3) <- remap b
          end
          else begin
            packed.((4 * k) + 1) <- remap dst;
            packed.((4 * k) + 2) <- remap a;
            packed.((4 * k) + 3) <- remap b
          end
        done;
        let accesses = Array.init (Hashtbl.length acc_of) access in
        (* vector-tier analysis: which iteration variables the body reads
           (operand scan, since unused fields are literal 0 and register 0
           is a real register), and whether lane batching is semantically
           transparent *)
        let ivuse = Array.make d false in
        let mark r =
          for l = 0 to d - 1 do
            if ivregs.(l) = r then ivuse.(l) <- true
          done
        in
        let load_set = Hashtbl.create 8 in
        let store_set = Hashtbl.create 8 in
        for k = 0 to n - 1 do
          let op = packed.(4 * k) in
          let dst = packed.((4 * k) + 1)
          and a = packed.((4 * k) + 2)
          and b = packed.((4 * k) + 3) in
          if op = op_load then Hashtbl.replace load_set a ()
          else if op = op_store then begin
            Hashtbl.replace store_set a ();
            mark b
          end
          else if op = op_fma then begin
            mark dst;
            mark a;
            mark b
          end
          else if
            op = op_mov || (op >= op_neg && op <= op_floor) || op = op_trunc
          then mark a
          else begin
            mark a;
            mark b
          end
        done;
        let rmw =
          List.sort compare
            (Hashtbl.fold
               (fun i () l -> if Hashtbl.mem load_set i then i :: l else l)
               store_set [])
        in
        let alias_bad =
          Hashtbl.fold
            (fun i () bad ->
              bad
              || (accesses.(i).ac_stored && not (Hashtbl.mem store_set i)))
            load_set false
        in
        (* several stores into one buffer: lane batching reorders them
           across iterations, which is exact only when the buffer feeds
           no load of the nest and the stores never collide across lanes
           — the first is checked here, the second needs the strides and
           is [Tape.bind]'s check over [p_store_pairs] *)
        let store_accs =
          List.sort compare (Hashtbl.fold (fun i () l -> i :: l) store_set [])
        in
        let store_pairs =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j ->
                  if j > i && accesses.(j).ac_buf = accesses.(i).ac_buf then
                    Some (i, j)
                  else None)
                store_accs)
            store_accs
        in
        let shared_store_loaded =
          List.exists
            (fun (i, _) ->
              Hashtbl.fold
                (fun l () hit -> hit || accesses.(l).ac_buf = accesses.(i).ac_buf)
                load_set false)
            store_pairs
        in
        Ok
          { p_levels = levels;
            p_par = q;
            p_accesses = accesses;
            p_nregs = max 1 (npersist + !max_tmp);
            p_lits = Array.of_list (List.rev !lits);
            p_hoists = Array.of_list (List.rev !hoists);
            p_ivregs = ivregs;
            p_promos = Array.of_list (List.rev !promos);
            p_accum = accum;
            p_code = packed;
            p_ivuse = ivuse;
            p_vec_ok =
              accum = None && (not alias_bad) && (not shared_store_loaded)
              (* a read-modify-write address fixed along the innermost
                 level would put every lane on one address *)
              && not (List.exists invariant_in_inner rmw);
            p_rmw = Array.of_list rmw;
            p_store_pairs = Array.of_list store_pairs;
            p_pieces =
              (if npieces >= 2 then Array.of_list piece_bnds else [||]) }
      with Reject r -> Error r)
  | _ -> Error Not_perfect

let claimable s = Result.is_ok (classify s)

(* ---------- the claim record ---------- *)

type claim = {
  cl_root : L.stmt;
  cl_program : program;
  cl_parent : (string * reject) option;
}

type claims = { cs_source : L.stmt option; cs_nests : claim list }

let no_claims = { cs_source = None; cs_nests = [] }

(* Claim maximal nests top-down, never descending into a claimed subtree;
   each with the nearest enclosing loop and why its nest was rejected. *)
let claims (s : L.stmt) : claims =
  let out = ref [] in
  let rec go parent (s : L.stmt) =
    match s with
    | L.For { var; body; _ } -> (
        match classify s with
        | Ok p ->
            out := { cl_root = s; cl_program = p; cl_parent = parent } :: !out
        | Error r -> go (Some (var, r)) body)
    | L.Block l -> List.iter (go parent) l
    | L.If (_, t, e) ->
        go parent t;
        Option.iter (go parent) e
    | L.Alloc { body; _ } -> go parent body
    | L.Store _ | L.Barrier | L.Comment _ | L.Send _ | L.Recv _
    | L.Memcpy _ ->
        ()
  in
  go None s;
  { cs_source = Some s; cs_nests = List.rev !out }

let find cs (s : L.stmt) =
  List.find_map
    (fun c -> if c.cl_root == s then Some c.cl_program else None)
    cs.cs_nests

(* ---------- printing ---------- *)

let nest_name p =
  String.concat "."
    (Array.to_list (Array.map (fun l -> l.lv_var) p.p_levels))

(* The level an accumulator nest may batch its lanes along: the one
   directly above the innermost (reduction) level, when it lies outside
   the parallel prefix, whatever its CPU tag.  Lanes reorder iterations
   of that level against the reduction's, which is exact when each lane
   owns one accumulator address and the body reads neither variable;
   [Tape.bind] proves both from the strides, so no tag is needed. *)
let outer_lane_level p =
  let l = Array.length p.p_levels - 2 in
  match p.p_accum with Some _ when l >= p.p_par -> Some l | _ -> None

type outer_lane =
  | Lane_level of int
  | No_lane_level
  | Reads_lane_var
  | Step_zero

(* The accumulator's lane decision once strides are known: [step a l] is
   access [a]'s flat step along level [l].  Lanes along [l] each own one
   accumulator address exactly when the step is nonzero (the address is
   fixed along the reduction), and reorder nothing else when the body
   reads neither lane variable. *)
let outer_lane p ~step =
  match p.p_accum with
  | None -> None
  | Some (_, ai, _) ->
      Some
        (match outer_lane_level p with
        | None -> No_lane_level
        | Some l ->
            if p.p_ivuse.(l) || p.p_ivuse.(Array.length p.p_levels - 1) then
              Reads_lane_var
            else if step ai l = 0 then Step_zero
            else Lane_level l)

(* Some read-modify-write access ignores the innermost variable. *)
let rmw_fixed_inner p =
  let inner = p.p_levels.(Array.length p.p_levels - 1).lv_var in
  Array.exists
    (fun i ->
      Array.for_all
        (fun (ts, _) -> not (List.mem_assoc inner ts))
        p.p_accesses.(i).ac_idx)
    p.p_rmw

let summary p =
  Printf.sprintf
    "tape %s: depth=%d par=%d instrs=%d regs=%d accesses=%d vec=%s%s"
    (nest_name p)
    (Array.length p.p_levels)
    p.p_par (instr_count p) p.p_nregs
    (Array.length p.p_accesses)
    (if p.p_vec_ok then "ok"
     else if outer_lane_level p <> None then "outer"
     else if p.p_accum <> None then "accum"
     else if rmw_fixed_inner p then "rmw"
     else "alias")
    (if Array.length p.p_pieces = 0 then ""
     else Printf.sprintf " pieces=%d" (Array.length p.p_pieces))

let affine_str ((ts, c) : affine) =
  let terms =
    List.map
      (fun (v, a) ->
        if a = 1 then v else Printf.sprintf "%d*%s" a v)
      ts
  in
  let parts = terms @ (if c <> 0 || terms = [] then [ string_of_int c ] else []) in
  String.concat "+" parts

let rec bexpr_str = function
  | Baff a -> affine_str a
  | Badd (a, b) -> Printf.sprintf "(%s+%s)" (bexpr_str a) (bexpr_str b)
  | Bsub (a, b) -> Printf.sprintf "(%s-%s)" (bexpr_str a) (bexpr_str b)
  | Bscale (a, k) -> Printf.sprintf "%d*%s" k (bexpr_str a)
  | Bmin (a, b) -> Printf.sprintf "min(%s,%s)" (bexpr_str a) (bexpr_str b)
  | Bmax (a, b) -> Printf.sprintf "max(%s,%s)" (bexpr_str a) (bexpr_str b)
  | Bfdiv (a, k) -> Printf.sprintf "floord(%s,%d)" (bexpr_str a) k
  | Bmod (a, k) -> Printf.sprintf "emod(%s,%d)" (bexpr_str a) k

let disassemble ?(lanes = 0) p =
  let outer = if lanes > 1 then outer_lane_level p else None in
  let vec = lanes > 1 && (p.p_vec_ok || outer <> None) in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "tape nest %s (depth %d, parallel prefix %d%s)\n"
       (nest_name p)
       (Array.length p.p_levels)
       p.p_par
       (match outer with
        | Some l ->
            Printf.sprintf ", lanes %d along %s" lanes p.p_levels.(l).lv_var
        | None ->
            if vec then Printf.sprintf ", lanes %d" lanes
            else if lanes > 1 then
              Printf.sprintf ", scalar (lanes %d off)" lanes
            else ""));
  Array.iteri
    (fun l (lv : level) ->
      Buffer.add_string b
        (Printf.sprintf "  level %d: %s in %s..%s [%s]\n" l lv.lv_var
           (bexpr_str lv.lv_lo) (bexpr_str lv.lv_hi)
           (L.tag_name lv.lv_tag)))
    p.p_levels;
  Array.iteri
    (fun k pb ->
      let parts =
        Array.to_list
          (Array.mapi
             (fun l (plo, phi) ->
               Printf.sprintf "%s in %s..%s" p.p_levels.(l).lv_var
                 (bexpr_str plo) (bexpr_str phi))
             pb)
      in
      Buffer.add_string b
        (Printf.sprintf "  piece %d: %s\n" k (String.concat ", " parts)))
    p.p_pieces;
  Array.iteri
    (fun i (a : access) ->
      Buffer.add_string b
        (Printf.sprintf "  access %d: %s%s%s\n" i a.ac_buf
           (String.concat ""
              (Array.to_list
                 (Array.map (fun ix -> "[" ^ affine_str ix ^ "]") a.ac_idx)))
           (if a.ac_stored then " (stored)" else "")))
    p.p_accesses;
  Buffer.add_string b
    (Printf.sprintf "  regs=%d lits=%d hoists=%d promos=%d%s\n" p.p_nregs
       (Array.length p.p_lits)
       (Array.length p.p_hoists)
       (Array.length p.p_promos)
       (match p.p_accum with
       | Some (r, i, load) ->
           Printf.sprintf " accum=r%d(access %d%s)" r i
             (if load then ", init from memory" else "")
       | None -> ""));
  let n = instr_count p in
  for k = 0 to n - 1 do
    let op = p.p_code.(4 * k) in
    let dst = p.p_code.((4 * k) + 1)
    and a = p.p_code.((4 * k) + 2)
    and bb = p.p_code.((4 * k) + 3) in
    let txt =
      if op = op_load then Printf.sprintf "r%d <- access%d" dst a
      else if op = op_store then Printf.sprintf "access%d <- r%d" a bb
      else if op = op_mov || (op >= op_neg && op <= op_floor) || op = op_trunc
      then Printf.sprintf "r%d <- r%d" dst a
      else Printf.sprintf "r%d <- r%d, r%d" dst a bb
    in
    let name =
      if not vec then op_name op
      else if op = op_load then "vload"   (* unit/strided/bcast at bind *)
      else if op = op_store then "vstore" (* unit/strided at bind *)
      else vop_name op
    in
    Buffer.add_string b (Printf.sprintf "    %2d: %-7s %s\n" k name txt)
  done;
  Buffer.contents b
