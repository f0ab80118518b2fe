module L = Loop_ir

let rec subst_expr v rep (e : L.expr) : L.expr =
  match e with
  | L.Var x when x = v -> rep
  | L.Int _ | L.Float _ | L.Var _ -> e
  | L.Load (b, idx) -> L.Load (b, List.map (subst_expr v rep) idx)
  | L.Bin (op, a, b) -> L.Bin (op, subst_expr v rep a, subst_expr v rep b)
  | L.Neg a -> L.Neg (subst_expr v rep a)
  | L.Cast (d, a) -> L.Cast (d, subst_expr v rep a)
  | L.Select (c, a, b) ->
      L.Select (subst_cond v rep c, subst_expr v rep a, subst_expr v rep b)
  | L.Call (f, args) -> L.Call (f, List.map (subst_expr v rep) args)

and subst_cond v rep (c : L.cond) : L.cond =
  match c with
  | L.True -> L.True
  | L.Cmp (op, a, b) -> L.Cmp (op, subst_expr v rep a, subst_expr v rep b)
  | L.And (a, b) -> L.And (subst_cond v rep a, subst_cond v rep b)
  | L.Or (a, b) -> L.Or (subst_cond v rep a, subst_cond v rep b)
  | L.Not a -> L.Not (subst_cond v rep a)

let rec subst_var v rep (s : L.stmt) : L.stmt =
  match s with
  | L.Block l -> L.Block (List.map (subst_var v rep) l)
  | L.For f ->
      if f.var = v then s  (* shadowed *)
      else
        L.For
          { f with lo = subst_expr v rep f.lo; hi = subst_expr v rep f.hi;
            body = subst_var v rep f.body }
  | L.If (c, t, e) ->
      L.If (subst_cond v rep c, subst_var v rep t, Option.map (subst_var v rep) e)
  | L.Store (b, idx, e) ->
      L.Store (b, List.map (subst_expr v rep) idx, subst_expr v rep e)
  | L.Alloc a ->
      L.Alloc { a with dims = List.map (subst_expr v rep) a.dims;
                body = subst_var v rep a.body }
  | L.Barrier | L.Comment _ | L.Memcpy _ -> s
  | L.Send sd ->
      L.Send { sd with dst = subst_expr v rep sd.dst;
               offset = List.map (subst_expr v rep) sd.offset;
               count = subst_expr v rep sd.count }
  | L.Recv r ->
      L.Recv { r with src = subst_expr v rep r.src;
               offset = List.map (subst_expr v rep) r.offset;
               count = subst_expr v rep r.count }

(* A loop [for v in lo..hi vectorized(w)] becomes
     full  = (hi - lo + 1) / w         (number of full vectors)
     for vb in 0..full-1: for lane in 0..w-1 (vector): body[v := lo + w*vb + lane]
     for v in lo + w*full .. hi: body  (scalar epilogue)
   When the extent is statically w the wrapper loop folds away.

   With [keep_claimable] (CPU compiles with the tape enabled), a
   dynamic-extent vector loop the tape classifier would claim stays
   unsplit: the tape lane-batches it with its own scalar remainder, and
   splitting here would only break the surrounding perfect nest into
   per-block and epilogue claims — each a separate bind/enter per entry.
   If the tape does not claim the nest after all, the closure path runs
   the unsplit [Vectorized] loop as a plain sequential loop, so the shape
   is legal either way. *)
let rec vector_legalize ?(keep_claimable = false) (s : L.stmt) : L.stmt =
  match s with
  | L.For ({ tag = L.Vectorized w; _ } as f) ->
      let body = vector_legalize ~keep_claimable f.body in
      let extent = L.(f.hi -! f.lo +! int 1) in
      let extent = L.simplify_expr extent in
      (match extent with
      | L.Int n when n = w ->
          (* Statically full: keep as a pure vector loop. *)
          L.For { f with body }
      | L.Int n when n < w ->
          (* Statically partial: scalar loop. *)
          L.For { f with tag = L.Seq; body }
      (* Predictive, not the [tape-compile] record: the final statement
         does not exist yet. *)
      | _ when keep_claimable && Tape_gen.claimable (L.For { f with body })
        ->
          L.For { f with body }
      | _ ->
          let full = L.Bin (L.FloorDiv, extent, L.Int w) in
          let vb = f.var ^ "_vb" in
          let lane = f.var ^ "_ln" in
          (* The lane loop runs 0..w-1 with the original iterator
             reconstructed in the body, so downstream analyses see the full
             index expression. *)
          let vec_body =
            L.For
              {
                var = lane;
                lo = L.Int 0;
                hi = L.Int (w - 1);
                tag = L.Vectorized w;
                body =
                  subst_var f.var
                    L.(f.lo +! (int w *! Var vb) +! Var lane)
                    body;
              }
          in
          let main =
            L.For
              { var = vb; lo = L.Int 0; hi = L.(simplify_expr (full -! int 1));
                tag = L.Seq; body = vec_body }
          in
          match extent with
          | L.Int n when n mod w = 0 ->
              (* statically divisible extent: every block is full, so the
                 scalar epilogue would be empty — elide it *)
              main
          | _ ->
              let epilogue =
                L.For
                  { var = f.var; lo = L.(f.lo +! (int w *! full)); hi = f.hi;
                    tag = L.Seq; body }
              in
              L.Block [ main; epilogue ])
  | L.Block l -> L.Block (List.map (vector_legalize ~keep_claimable) l)
  | L.For f -> L.For { f with body = vector_legalize ~keep_claimable f.body }
  | L.If (c, t, e) ->
      L.If
        ( c,
          vector_legalize ~keep_claimable t,
          Option.map (vector_legalize ~keep_claimable) e )
  | L.Alloc a ->
      L.Alloc { a with body = vector_legalize ~keep_claimable a.body }
  | _ -> s

let rec stmt_size (s : L.stmt) : int =
  match s with
  | L.Block l -> List.fold_left (fun a s -> a + stmt_size s) 0 l
  | L.For f -> 1 + stmt_size f.body
  | L.If (_, t, e) ->
      1 + stmt_size t + Option.fold ~none:0 ~some:stmt_size e
  | L.Alloc a -> 1 + stmt_size a.body
  | _ -> 1

let rec unroll_expand ?(max_body = 64) (s : L.stmt) : L.stmt =
  match s with
  | L.For ({ tag = L.Unrolled; _ } as f) -> (
      let body = unroll_expand ~max_body f.body in
      match (L.simplify_expr f.lo, L.simplify_expr f.hi) with
      | L.Int lo, L.Int hi
        when hi >= lo && (hi - lo + 1) * stmt_size body <= max_body ->
          L.Block
            (List.init (hi - lo + 1) (fun k ->
                 subst_var f.var (L.Int (lo + k)) body))
      | _ -> L.For { f with body })
  | L.Block l -> L.Block (List.map (unroll_expand ~max_body) l)
  | L.For f -> L.For { f with body = unroll_expand ~max_body f.body }
  | L.If (c, t, e) ->
      L.If (c, unroll_expand ~max_body t,
            Option.map (unroll_expand ~max_body) e)
  | L.Alloc a -> L.Alloc { a with body = unroll_expand ~max_body a.body }
  | _ -> s

let legalize ?keep_claimable s =
  L.simplify_stmt (unroll_expand (vector_legalize ?keep_claimable s))

(* ---------- interval-based bound narrowing ---------- *)

(* Once parameter values are known (the pipeline's [narrow] pass runs
   with the build's concrete parameters), interval analysis over loop
   ranges collapses most of the [min]/[max]/[floord] scaffolding the
   polyhedral AST generator emits for partial tiles: a bound like [min(floord(S-1-8*k0, 2), 3)] with
   [S = 64] and [k0 in 0..7] is the constant 3.  Downstream this turns
   dynamic bounds static (so [unroll_expand] fires and vector epilogues
   become provably empty), makes indices affine (so the flat tape can claim
   the nest), and deletes guards that always hold.

   Soundness: every rewrite replaces an expression with one provably equal
   on all executions, using only the variable ranges established by the
   enclosing (already-narrowed) loop bounds; semantics — including
   out-of-bounds failures — are preserved.  Intervals are [(lo, hi)] with
   [None] for unbounded sides; [Float]/[Load]/[Call]/[Cast] expressions are
   opaque ([None, None]), so only genuinely integer-valued subexpressions
   ever fold. *)

(* ---------- index-set splitting: clamps and partial-tile bounds ----------

   A clamped stencil reads [img[max(i-1, 0)]]: the [max] cannot fold over
   all of [i], but it folds on [i >= 1], and the clamp's other side folds
   near the upper edge.  When a CPU-tagged loop has such an index
   [min]/[max] — one arm affine in the loop variable, the other free of
   it — [narrow] cuts the loop's (constant) range at the points where the
   term's fold changes, in iteration order (prologue, steady, epilogue
   pieces), and narrows each piece with its own range, which is where the
   term folds.  Inner loops split the same way inside every piece, so
   only true border points keep their clamps, and those are usually
   single points on which every index is constant.

   A partial tile leaves the same kind of term in an inner loop's bound:
   blur's vector loop runs [j1_v in 0..min(381 - 32*j0 - 8*j1, 7)].  The
   bound reads the nest variable [j1], so the tape cannot claim any chain
   above [j1_v] and enters once per [(j0, j1)] block.  A CPU loop is
   therefore also cut where such a bound folds, when the bound reads the
   variable of a loop strictly between the cut loop and the bounded one,
   or reads the cut loop's own variable and the bounded loop is its
   direct child (through CPU loops only: a chain never crosses a device
   loop).  The full tiles then form one piece whose bounds are constant,
   and the partial tile another.  A bound that reads the cut loop's
   variable from deeper down, or only variables of loops above it, is
   left alone: no chain it blocks contains the cut loop, and the tape
   evaluates such bounds from the environment on entry.  This keeps an
   outer parallel tile loop whole (its inner tile loop's bound reads it
   from under the next tile loop).

   The thresholds come from the interval arithmetic [norm] itself uses:
   with the dependent arm [z = k*v + r] (r ranging over the other
   variables' intervals) and the other arm in [wlo, whi], the arms'
   intervals are disjoint for ranges inside [(-inf, b]] and inside
   [[a, inf)].  When the two regions meet, one cut separates them,
   placed to keep the piece at the nearer edge of the loop small;
   otherwise the unfoldable middle becomes a piece of its own.

   Exact by construction: consecutive pieces cover the original range
   once, in order, and each piece is narrowed soundly.  Splitting never
   runs under a GPU loop (device code keeps its shape) nor around
   communication, scoped allocations or barriers, and a split is taken
   only while the loop's rewritten statement stays within
   [max_split_size] {!stmt_size} nodes. *)

let max_split_size = 256

type cause = Clamp | Bound of string

type split = { sp_var : string; sp_cuts : int list; sp_cause : cause }

let cpu_tag = function
  | L.Seq | L.Parallel | L.Vectorized _ | L.Unrolled -> true
  | L.Gpu_block _ | L.Gpu_thread _ | L.Distributed -> false

let rec mentions v (e : L.expr) =
  match e with
  | L.Var x -> x = v
  | L.Int _ | L.Float _ -> false
  | L.Load (_, idx) | L.Call (_, idx) -> List.exists (mentions v) idx
  | L.Bin (_, a, b) -> mentions v a || mentions v b
  | L.Neg a | L.Cast (_, a) -> mentions v a
  | L.Select (_, a, b) -> mentions v a || mentions v b

(* A piece keeps its loop's tag, except that a one-point piece and a
   vector piece shorter than its width run as plain sequential loops
   (the [simplify] pass then drops the one-point loop). *)
let piece_tag tag p q =
  match tag with
  | _ when p = q -> L.Seq
  | L.Vectorized w when q - p + 1 < w -> L.Seq
  | t -> t

let split_note (splits : split list) =
  let counted =
    List.fold_left
      (fun acc sp ->
        match List.assoc_opt sp acc with
        | Some n -> (sp, n + 1) :: List.remove_assoc sp acc
        | None -> (sp, 1) :: acc)
      [] splits
  in
  String.concat "; "
    (List.rev_map
       (fun (sp, n) ->
         Printf.sprintf "split %s at %s (%s%s)" sp.sp_var
           (String.concat "/" (List.map string_of_int sp.sp_cuts))
           (match sp.sp_cause with
           | Clamp -> "clamp"
           | Bound v -> "bound " ^ v)
           (if n > 1 then Printf.sprintf ", x%d" n else ""))
       counted)

let narrow_splits ~(params : (string * int) list) (s : L.stmt) :
    L.stmt * split list =
  let env : (string, int option * int option) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (p, v) -> Hashtbl.replace env p (Some v, Some v)) params;
  let unknown = (None, None) in
  let lift2 f a b =
    match (a, b) with Some x, Some y -> Some (f x y) | _ -> None
  in
  let le a b = match (a, b) with Some x, Some y -> x <= y | _ -> false in
  let lt a b = match (a, b) with Some x, Some y -> x < y | _ -> false in
  (* point-collapse, else local constant folding *)
  let finish e (iv : int option * int option) =
    match iv with
    | Some a, Some b when a = b -> (L.Int a, iv)
    | _ -> (L.simplify_expr e, iv)
  in
  let rec norm (e : L.expr) : L.expr * (int option * int option) =
    match e with
    | L.Int n -> (e, (Some n, Some n))
    | L.Float _ -> (e, unknown)
    | L.Var v -> (
        match Hashtbl.find_opt env v with
        | Some ((Some a, Some b) as iv) when a = b -> (L.Int a, iv)
        | Some iv -> (e, iv)
        | None -> (e, unknown))
    | L.Load (b, idx) ->
        (L.Load (b, List.map (fun e -> fst (norm e)) idx), unknown)
    | L.Call (f, args) ->
        (L.Call (f, List.map (fun e -> fst (norm e)) args), unknown)
    | L.Cast (t, a) -> (L.Cast (t, fst (norm a)), unknown)
    | L.Neg a ->
        let a', (lo, hi) = norm a in
        finish (L.Neg a')
          (Option.map (fun x -> -x) hi, Option.map (fun x -> -x) lo)
    | L.Select (c, a, b) -> (
        let c', truth = norm_cond c in
        let a', ia = norm a and b', ib = norm b in
        match truth with
        | Some true -> (a', ia)
        | Some false -> (b', ib)
        | None ->
            if a' = b' then (a', ia)
            else
              let hull =
                ( (match (fst ia, fst ib) with
                  | Some x, Some y -> Some (Int.min x y)
                  | _ -> None),
                  match (snd ia, snd ib) with
                  | Some x, Some y -> Some (Int.max x y)
                  | _ -> None )
              in
              (L.Select (c', a', b'), hull))
    | L.Bin (op, a, b) -> (
        let a', ((alo, ahi) as ia) = norm a in
        let b', ((blo, bhi) as ib) = norm b in
        match op with
        (* one side provably dominated: the min/max IS the other side *)
        | L.MaxOp when le ahi blo -> (b', ib)
        | L.MaxOp when le bhi alo -> (a', ia)
        | L.MinOp when le ahi blo -> (a', ia)
        | L.MinOp when le bhi alo -> (b', ib)
        | _ ->
            let iv =
              match op with
              | L.Add -> (lift2 ( + ) alo blo, lift2 ( + ) ahi bhi)
              | L.Sub -> (lift2 ( - ) alo bhi, lift2 ( - ) ahi blo)
              | L.Mul -> (
                  match (alo, ahi, blo, bhi) with
                  | Some p, Some q, Some r, Some s ->
                      let xs = [ p * r; p * s; q * r; q * s ] in
                      ( Some (List.fold_left Int.min max_int xs),
                        Some (List.fold_left Int.max min_int xs) )
                  | _ -> unknown)
              | L.MinOp ->
                  ( lift2 Int.min alo blo,
                    match (ahi, bhi) with
                    | Some x, Some y -> Some (Int.min x y)
                    | (Some _ as s), None | None, (Some _ as s) -> s
                    | None, None -> None )
              | L.MaxOp ->
                  ( (match (alo, blo) with
                    | Some x, Some y -> Some (Int.max x y)
                    | (Some _ as s), None | None, (Some _ as s) -> s
                    | None, None -> None),
                    lift2 Int.max ahi bhi )
              | L.FloorDiv -> (
                  match b' with
                  | L.Int d when d > 0 ->
                      ( Option.map (fun x -> Tiramisu_support.Ints.fdiv x d) alo,
                        Option.map (fun x -> Tiramisu_support.Ints.fdiv x d) ahi
                      )
                  | _ -> unknown)
              | L.Mod -> (
                  match b' with
                  | L.Int d when d > 0 -> (Some 0, Some (d - 1))
                  | _ -> unknown)
              | L.Div -> unknown (* float division in value contexts *)
            in
            finish (L.Bin (op, a', b')) iv)
  and norm_cond (c : L.cond) : L.cond * bool option =
    match c with
    | L.True -> (c, Some true)
    | L.Cmp (op, a, b) ->
        let a', (alo, ahi) = norm a and b', (blo, bhi) = norm b in
        let truth =
          match op with
          | L.LtOp ->
              if lt ahi blo then Some true
              else if le bhi alo then Some false
              else None
          | L.LeOp ->
              if le ahi blo then Some true
              else if lt bhi alo then Some false
              else None
          | L.GtOp ->
              if lt bhi alo then Some true
              else if le ahi blo then Some false
              else None
          | L.GeOp ->
              if le bhi alo then Some true
              else if lt ahi blo then Some false
              else None
          | L.EqOp ->
              if lt ahi blo || lt bhi alo then Some false
              else (
                match (alo, ahi, blo, bhi) with
                | Some p, Some q, Some r, Some s when p = q && r = s && p = r
                  ->
                    Some true
                | _ -> None)
          | L.NeOp ->
              if lt ahi blo || lt bhi alo then Some true
              else (
                match (alo, ahi, blo, bhi) with
                | Some p, Some q, Some r, Some s when p = q && r = s && p = r
                  ->
                    Some false
                | _ -> None)
        in
        (L.Cmp (op, a', b'), truth)
    | L.And (a, b) -> (
        let a', ta = norm_cond a and b', tb = norm_cond b in
        match (ta, tb) with
        | Some true, _ -> (b', tb)
        | _, Some true -> (a', ta)
        | Some false, _ | _, Some false -> (L.And (a', b'), Some false)
        | _ -> (L.And (a', b'), None))
    | L.Or (a, b) -> (
        let a', ta = norm_cond a and b', tb = norm_cond b in
        match (ta, tb) with
        | Some false, _ -> (b', tb)
        | _, Some false -> (a', ta)
        | Some true, _ | _, Some true -> (L.Or (a', b'), Some true)
        | _ -> (L.Or (a', b'), None))
    | L.Not a ->
        let a', t = norm_cond a in
        (L.Not a', Option.map not t)
  in
  let scoped var iv f =
    let saved = Hashtbl.find_opt env var in
    Hashtbl.replace env var iv;
    let r = f () in
    (match saved with
    | Some iv -> Hashtbl.replace env var iv
    | None -> Hashtbl.remove env var);
    r
  in
  (* A bound of a CPU loop inside the cut loop's body that the cut may
     fold for the tape (see the section comment): it reads a loop
     variable strictly between ([between], innermost first, [None] below
     a device loop), or the cut loop's own [v] from its direct child. *)
  let blocks_chain v between e =
    match between with
    | Some [] -> mentions v e
    | Some between -> List.exists (fun u -> mentions u e) between
    | None -> false
  in
  let inside between var tag =
    match between with
    | Some b when cpu_tag tag -> Some (var :: b)
    | _ -> None
  in
  (* Some index [min]/[max] of [s], or some bound [blocks_chain] picks,
     that [norm] leaves unfolded has an arm affine in [v] (the shape cuts
     are computed for); [s] holds only loops, guards and stores (no
     communication, allocation or barrier).  A cheap screen: [env] knows
     [v] but no loop inside [s], and only nodes with an
     integer-arithmetic arm on [v] are normalized. *)
  let clamped_on v (s : L.stmt) =
    let exception Stop in
    let rec arith (e : L.expr) =
      match e with
      | L.Int _ | L.Var _ -> true
      | L.Neg a -> arith a
      | L.Bin ((L.Add | L.Sub | L.Mul | L.MinOp | L.MaxOp | L.FloorDiv | L.Mod), a, b)
      | L.Select (_, a, b) ->
          arith a && arith b
      | _ -> false
    in
    let on x = mentions v x && L.affine_terms x <> None in
    let rec index e =
      match e with
      | L.Bin ((L.MinOp | L.MaxOp), a, b)
        when (arith a && mentions v a) || (arith b && mentions v b) -> (
          match fst (norm e) with
          | L.Bin ((L.MinOp | L.MaxOp), a, b) ->
              on a || on b || index a || index b
          | e' -> index e')
      | L.Bin (_, a, b) -> index a || index b
      | L.Neg a | L.Cast (_, a) -> index a
      | L.Load (_, idx) | L.Call (_, idx) -> List.exists index idx
      | L.Select (_, a, b) -> index a || index b
      | L.Int _ | L.Float _ | L.Var _ -> false
    and value e =
      match e with
      | L.Load (_, idx) -> List.exists index idx
      | L.Bin (_, a, b) | L.Select (_, a, b) -> value a || value b
      | L.Neg a | L.Cast (_, a) -> value a
      | L.Call (_, args) -> List.exists value args
      | L.Int _ | L.Float _ | L.Var _ -> false
    in
    let rec stmt between s =
      match s with
      | L.Block l -> List.exists (stmt between) l
      | L.For f ->
          f.var <> v
          && (cpu_tag f.tag
              && List.exists
                   (fun e -> blocks_chain v between e && index e)
                   [ f.lo; f.hi ]
             || stmt (inside between f.var f.tag) f.body)
      | L.If (_, t, e) ->
          stmt between t || Option.fold ~none:false ~some:(stmt between) e
      | L.Store (_, idx, x) -> List.exists index idx || value x
      | L.Comment _ -> false
      | L.Alloc _ | L.Barrier | L.Send _ | L.Recv _ | L.Memcpy _ ->
          raise Stop
    in
    try stmt (Some []) s with Stop -> false
  in
  (* Cut points of [var]'s range [lo..hi] (see the section comment),
     sorted, and their cause: [Clamp] when an index clamp gave a cut,
     else the first bounded loop that did; [env] binds [var] to the
     range.  The flag is false when a term on [var] has an arm that is
     not affine (a nested clamp): it may fold only inside a piece, so the
     pieces must be split again. *)
  let cut_points var lo hi body =
    (* cuts newest first, each with the cause of the term that gave it *)
    let cuts = ref [] and final = ref true and cause = ref Clamp in
    let add c = if c > lo && c <= hi then cuts := (c, !cause) :: !cuts in
    let rest ts c =
      List.fold_left
        (fun acc (u, k) ->
          match (acc, Hashtbl.find_opt env u) with
          | Some (a, b), Some (Some x, Some y) ->
              if k > 0 then Some (a + (k * x), b + (k * y))
              else Some (a + (k * y), b + (k * x))
          | _ -> None)
        (Some (c, c)) ts
    in
    let side z w =
      match L.affine_terms z with
      | Some (ts, c) when List.mem_assoc var ts && not (mentions var w) -> (
          let k = List.assoc var ts in
          match (rest (List.remove_assoc var ts) c, snd (norm w)) with
          | Some (rlo, rhi), (Some wlo, Some whi) ->
              let fdiv = Tiramisu_support.Ints.fdiv
              and cdiv = Tiramisu_support.Ints.cdiv in
              let b, a =
                if k > 0 then (fdiv (wlo - rhi) k, cdiv (whi - rlo) k)
                else (fdiv (rlo - whi) (-k), cdiv (rhi - wlo) (-k))
              in
              if a <= lo || b >= hi then ()
              else if a <= b + 1 then
                add (if a - lo <= hi - (b + 1) then a else b + 1)
              else begin
                add (b + 1);
                add a
              end
          | _ -> ())
      | _ -> ()
    in
    let nested z = mentions var z && L.affine_terms z = None in
    let rec index (e : L.expr) =
      match e with
      | L.Bin ((L.MinOp | L.MaxOp), x, y) ->
          side x y;
          side y x;
          if nested x || nested y then final := false;
          index x;
          index y
      | L.Bin (_, x, y) | L.Select (_, x, y) ->
          index x;
          index y
      | L.Neg x | L.Cast (_, x) -> index x
      | L.Load (_, idx) | L.Call (_, idx) -> List.iter index idx
      | L.Int _ | L.Float _ | L.Var _ -> ()
    in
    let rec value (e : L.expr) =
      match e with
      | L.Load (_, idx) -> List.iter (fun i -> index (fst (norm i))) idx
      | L.Bin (_, x, y) | L.Select (_, x, y) ->
          value x;
          value y
      | L.Neg x | L.Cast (_, x) -> value x
      | L.Call (_, args) -> List.iter value args
      | L.Int _ | L.Float _ | L.Var _ -> ()
    in
    let rec stmt between (s : L.stmt) =
      match s with
      | L.Block l -> List.iter (stmt between) l
      | L.For f when f.var <> var ->
          let lo', (flo, _) = norm f.lo and hi', (_, fhi) = norm f.hi in
          (* the bound as written decides: a one-point loop between,
             which [simplify] drops, still counts, since the bound then
             reads the cut loop from inside a chain that may hold it *)
          if cpu_tag f.tag then begin
            cause := Bound f.var;
            List.iter
              (fun (e, e') -> if blocks_chain var between e then index e')
              [ (f.lo, lo'); (f.hi, hi') ];
            cause := Clamp
          end;
          let between = inside between f.var f.tag in
          scoped f.var (flo, fhi) (fun () -> stmt between f.body)
      | L.If (_, t, e) ->
          stmt between t;
          Option.iter (stmt between) e
      | L.Store (_, idx, v) ->
          List.iter (fun i -> index (fst (norm i))) idx;
          value v
      | _ -> ()
    in
    stmt (Some []) body;
    let causes = List.rev_map snd !cuts in
    let cause =
      match causes with
      | first :: _ when not (List.mem Clamp causes) -> first
      | _ -> Clamp
    in
    (List.sort_uniq compare (List.map fst !cuts), !final, cause)
  in
  let splits = ref [] in
  let device = ref 0 in
  let rec walk (s : L.stmt) : L.stmt =
    match s with
    | L.For { var; lo; hi; tag; body } -> loop ~split:true var lo hi tag body
    | L.Block l -> L.Block (List.map walk l)
    | L.Comment _ | L.Barrier | L.Memcpy _ -> s
    | L.Store (b, idx, v) ->
        L.Store (b, List.map (fun e -> fst (norm e)) idx, fst (norm v))
    | L.If (c, t, e) -> (
        let c', truth = norm_cond c in
        match truth with
        | Some true -> walk t
        | Some false -> (
            match e with Some e -> walk e | None -> L.Block [])
        | None -> L.If (c', walk t, Option.map walk e))
    | L.Alloc a ->
        L.Alloc
          { a with
            dims = List.map (fun e -> fst (norm e)) a.dims;
            body = walk a.body }
    | L.Send sd ->
        L.Send
          { sd with
            dst = fst (norm sd.dst);
            offset = List.map (fun e -> fst (norm e)) sd.offset;
            count = fst (norm sd.count) }
    | L.Recv r ->
        L.Recv
          { r with
            src = fst (norm r.src);
            offset = List.map (fun e -> fst (norm e)) r.offset;
            count = fst (norm r.count) }
  (* [split]: try to split this loop at its clamps and partial-tile
     bounds; false for a piece whose cuts already separate every fold *)
  and loop ~split var lo hi tag body =
    let lo', (llo, _) = norm lo in
    let hi', (_, hhi) = norm hi in
    let plain () =
      let gpu =
        match tag with L.Gpu_block _ | L.Gpu_thread _ -> 1 | _ -> 0
      in
      device := !device + gpu;
      let body' = scoped var (llo, hhi) (fun () -> walk body) in
      device := !device - gpu;
      L.For { var; lo = lo'; hi = hi'; tag; body = body' }
    in
    match (lo', hi', tag) with
    | L.Int a, L.Int b, _ when b < a -> L.Block []
    | L.Int a, L.Int b, _
      when split && cpu_tag tag && a < b && !device = 0
           && 2 * stmt_size body <= max_split_size
           && scoped var (llo, hhi) (fun () -> clamped_on var body) -> (
        match scoped var (llo, hhi) (fun () -> cut_points var a b body) with
        | [], _, _ -> plain ()
        | cuts, _, _
          when (List.length cuts + 1) * stmt_size body > max_split_size ->
            plain ()
        | cuts, final, cause ->
            let before = !splits in
            splits :=
              { sp_var = var; sp_cuts = cuts; sp_cause = cause } :: before;
            let pieces =
              List.map2
                (fun p q ->
                  loop ~split:(not final) var (L.Int p) (L.Int q)
                    (piece_tag tag p q) body)
                (a :: cuts)
                (List.map pred cuts @ [ b ])
            in
            let out = L.Block pieces in
            if stmt_size out <= max_split_size then out
            else begin
              splits := before;
              plain ()
            end)
    | _ -> plain ()
  in
  let s' = walk s in
  (s', List.rev !splits)

let narrow ~params s = fst (narrow_splits ~params s)

(* ---------- one-trip loops ---------- *)

(* A sequential loop over a single point is its body with the variable
   substituted: after narrowing and splitting, such loops would otherwise
   sit inside claimable nests as an innermost level of extent 1. *)
let rec drop_unit_loops (s : L.stmt) : L.stmt =
  match s with
  | L.For ({ tag = L.Seq; _ } as f) -> (
      let body = drop_unit_loops f.body in
      match (L.simplify_expr f.lo, L.simplify_expr f.hi) with
      | L.Int a, L.Int b when a = b -> subst_var f.var (L.Int a) body
      | _ -> L.For { f with body })
  | L.For f -> L.For { f with body = drop_unit_loops f.body }
  | L.Block l -> L.Block (List.map drop_unit_loops l)
  | L.If (c, t, e) ->
      L.If (c, drop_unit_loops t, Option.map drop_unit_loops e)
  | L.Alloc a -> L.Alloc { a with body = drop_unit_loops a.body }
  | _ -> s

let simplify s = L.simplify_stmt (drop_unit_loops (unroll_expand s))
