open Tiramisu_presburger
open Ir
module L = Tiramisu_codegen.Loop_ir
module AG = Tiramisu_codegen.Ast_gen

type t = {
  ast : L.stmt;
  fn : Ir.fn;
}

exception Unsupported of string

(* ---------- inline expansion ---------- *)

let rec expand fn e =
  Expr.subst_access
    (fun name idx ->
      match List.find_opt (fun c -> c.comp_name = name) fn.comps with
      | Some p when p.inlined ->
          let body = expand fn p.expr in
          let bind = List.combine p.iters idx in
          Some (Expr.subst_iters (fun i -> List.assoc_opt i bind) body)
      | _ -> None)
    e

(* ---------- time-vector description ----------

   Each executable computation is described by a list of time dimensions
   (alternating statics and dynamics) together with its scheduled set over
   the dynamic columns.  Static values are doubled when materialized so that
   compute_at producers can slot in "just before" their consumer with value
   2v - 1. *)

type tdim =
  | T_static of int * int   (* (value, sub-order): materializes as 2v + sub *)
  | T_dyn of dim

type desc = {
  comp : computation;
  tdims : tdim list;
  set : Iset.t;   (* over the dynamic columns appearing in tdims *)
}

let col_index cols col =
  let rec go i = function
    | [] -> None
    | c :: rest -> if c = col then Some i else go (i + 1) rest
  in
  go 0 cols

(* Build a polyhedron set over [tuple_cols] from [domain] (over iters),
   constraints [cstrs] (over iters/elim/tuple columns), and fixed columns. *)
let build_set ~params ~context ~domain ~elim ~tuple_cols ~cstrs ~fixes =
  let iters = Array.to_list domain.Iset.space.Space.vars in
  let cols = Array.of_list (params @ iters @ elim @ tuple_cols) in
  let n = Array.length cols in
  let np = List.length params in
  let ni = List.length iters and ne = List.length elim in
  let add = Poly.add_cstr ~cols in
  let base = List.fold_left add (Poly.universe n) cstrs in
  let base = List.fold_left add base context in
  let base =
    List.fold_left
      (fun p (col, v) ->
        match col_index (Array.to_list cols) col with
        | Some idx -> Poly.fix_var p idx v
        | None -> p)
      base fixes
  in
  let polys =
    List.map
      (fun dp ->
        let lifted = Poly.insert_vars dp ~at:(np + ni) ~count:(n - np - ni) in
        fst
          (Poly.project_out (Poly.intersect lifted base) ~at:np
             ~count:(ni + ne)))
      domain.Iset.polys
  in
  Iset.of_polys (Space.set_space ~params tuple_cols) polys

(* Static fixes (materialized value 2v + sub) for a schedule's dims. *)
let static_fixes ?(sub = 0) dims =
  List.filter_map
    (fun d ->
      match d.d_kind with
      | Static v -> Some (d.d_col, (2 * v) + sub)
      | Dyn -> None)
    dims

(* [consumer]'s accesses to [producer]: a consumer rewired by
   cache_shared_at reads "<producer>_shared", and its accesses still
   define the producer's footprint. *)
let reads ~(consumer : computation) ~(producer : computation) =
  List.filter
    (fun (name, _) ->
      name = producer.comp_name || name = producer.comp_name ^ "_shared")
    (Expr.accesses (expand consumer.fn consumer.expr))

let consumes ~consumer ~producer = reads ~consumer ~producer <> []

(* Footprint of [consumer]'s accesses to [producer] within the loop prefix
   ending at consumer's dynamic level [lvl]: a set over
   [prefix_cols @ p_coord] (footprint coordinates are renamed producer
   iterators). *)
let footprint ~params ~context ~(consumer : computation) ~(producer : computation) ~lvl =
  let fn = consumer.fn in
  let c_iters = consumer.iters in
  let p_coord = List.map (fun i -> "p$" ^ i) producer.iters in
  let prefix_pos = dyn_pos consumer.sched lvl in
  let all_dims = consumer.sched.dims in
  let prefix_dims = List.filteri (fun i _ -> i <= prefix_pos) all_dims in
  let rest_dims = List.filteri (fun i _ -> i > prefix_pos) all_dims in
  let prefix_dyn_cols =
    List.filter_map
      (fun d -> match d.d_kind with Dyn -> Some d.d_col | Static _ -> None)
      prefix_dims
  in
  let prefix_static_cols =
    List.filter_map
      (fun d -> match d.d_kind with Static _ -> Some d.d_col | Dyn -> None)
      prefix_dims
  in
  let rest_cols = List.map (fun d -> d.d_col) rest_dims in
  let accs = reads ~consumer ~producer in
  if accs = [] then
    invalid_arg
      (Printf.sprintf "compute_at: %s does not consume %s" consumer.comp_name
         producer.comp_name);
  let sets =
    List.map
      (fun (_, idx) ->
        let range_cstrs =
          List.concat
            (List.mapi
               (fun k (e : Ir.expr) ->
                 let coord = List.nth p_coord k in
                 match
                   Expr.index_range ~iters:c_iters ~params:fn.params e
                 with
                 | Some (lo, hi) ->
                     [ Cstr.Ge (Aff.var coord, lo); Cstr.Le (Aff.var coord, hi) ]
                 | None ->
                     (* Non-affine index: fall back to the producer's full
                        extent (§V-B over-approximation). *)
                     let _, (lo, hi) = List.nth producer.ranges k in
                     [ Cstr.Ge (Aff.var coord, lo); Cstr.Lt (Aff.var coord, hi) ])
               idx)
        in
        build_set ~params ~context ~domain:consumer.domain
          ~elim:(consumer.sched.inter @ rest_cols @ prefix_static_cols)
          ~tuple_cols:(prefix_dyn_cols @ p_coord)
          ~cstrs:(consumer.sched.cstrs @ range_cstrs)
          ~fixes:(static_fixes all_dims))
      accs
  in
  (List.fold_left Iset.union (List.hd sets) (List.tl sets), prefix_dims, p_coord)

let rename_cstrs bind cstrs =
  let ren a =
    Aff.subst a (fun n ->
        Option.map Aff.var (List.assoc_opt n bind))
  in
  List.map (Cstr.map ren) cstrs

(* ---------- per-computation descriptions ---------- *)

let rec desc_of ~params ~context memo (c : computation) =
  match Hashtbl.find_opt memo c.comp_name with
  | Some d -> d
  | None ->
      let d =
        match c.computed_at with
        | None ->
            let set =
              build_set ~params ~context ~domain:c.domain ~elim:c.sched.inter
                ~tuple_cols:
                  (List.filter_map
                     (fun d ->
                       match d.d_kind with Dyn -> Some d.d_col | Static _ -> None)
                     c.sched.dims)
                ~cstrs:c.sched.cstrs ~fixes:[]
            in
            {
              comp = c;
              tdims =
                List.map
                  (fun d ->
                    match d.d_kind with
                    | Static v -> T_static (v, 0)
                    | Dyn -> T_dyn d)
                  c.sched.dims;
              set;
            }
        | Some (consumer, lvl) ->
            let cons_desc = desc_of ~params ~context memo consumer in
            let fp, prefix_dims, p_coord =
              footprint ~params ~context ~consumer ~producer:c ~lvl
            in
            (* The producer's own dims, minus its leading static (replaced by
               the ordering slot before the consumer). *)
            let own_dims =
              match c.sched.dims with
              | { d_kind = Static _; _ } :: rest -> rest
              | rest -> rest
            in
            let own_dyn_cols =
              List.filter_map
                (fun d ->
                  match d.d_kind with Dyn -> Some d.d_col | Static _ -> None)
                own_dims
            in
            let prefix_dyn_cols =
              List.filter_map
                (fun d ->
                  match d.d_kind with Dyn -> Some d.d_col | Static _ -> None)
                prefix_dims
            in
            (* Producer's domain and schedule constraints over the renamed
               footprint coordinates. *)
            let dom = Iset.rename_vars c.domain p_coord in
            let bind = List.combine c.iters p_coord in
            let cstrs = rename_cstrs bind c.sched.cstrs in
            (* The footprint links p_coord to the prefix dyn columns: turn
               each of its convex pieces into constraints over those columns
               and build one set per piece (unioned). *)
            let fp_cols =
              Array.append (Array.of_list params) fp.Iset.space.Space.vars
            in
            let piece_cstrs p =
              List.map
                (fun r -> Cstr.Eq (Aff.of_row ~cols:fp_cols r, Aff.const 0))
                p.Poly.eqs
              @ List.map
                  (fun r -> Cstr.Ge (Aff.of_row ~cols:fp_cols r, Aff.const 0))
                  p.Poly.ineqs
            in
            let build_with piece =
              build_set ~params ~context ~domain:dom ~elim:c.sched.inter
                ~tuple_cols:(prefix_dyn_cols @ own_dyn_cols)
                ~cstrs:(cstrs @ piece_cstrs piece)
                ~fixes:[]
            in
            let set =
              match fp.Iset.polys with
              | [] ->
                  Iset.empty
                    (Space.set_space ~params (prefix_dyn_cols @ own_dyn_cols))
              | p :: rest ->
                  List.fold_left
                    (fun acc q -> Iset.union acc (build_with q))
                    (build_with p) rest
            in
            let cons_prefix_tdims =
              List.filteri (fun i _ -> i <= dyn_pos consumer.sched lvl)
                cons_desc.tdims
            in
            let order_slot =
              match
                List.nth_opt cons_desc.tdims (dyn_pos consumer.sched lvl + 1)
              with
              | Some (T_static (v, _)) -> T_static (v, -1)
              | _ -> T_static (0, -1)
            in
            {
              comp = c;
              tdims =
                cons_prefix_tdims
                @ order_slot
                  :: List.map
                       (fun d ->
                         match d.d_kind with
                         | Static v -> T_static (v, 0)
                         | Dyn -> T_dyn d)
                       own_dims;
              set;
            }
      in
      Hashtbl.replace memo c.comp_name d;
      d

(* ---------- expression translation ---------- *)

(* Translate an affine expression over iters/params/cols to a loop
   expression.  [iter_map]: iterator -> Aff over columns; [col_env]: column
   name -> loop expr (None if unknown). *)
let rec aff_to_expr ~params ~iter_map ~col_env a =
  let acc = ref (L.Int (Aff.constant_part a)) in
  List.iter
    (fun (name, c) ->
      let e =
        if List.mem name params then L.Var name
        else
          match List.assoc_opt name iter_map with
          | Some sub -> aff_to_expr ~params ~iter_map:[] ~col_env sub
          | None -> (
              match col_env name with
              | Some e -> e
              | None ->
                  raise
                    (Unsupported
                       (Printf.sprintf "unresolved name %s in affine expr" name)))
      in
      acc := L.(!acc +! (int c *! e)))
    (Aff.terms a);
  L.simplify_expr !acc

let rec cond_of_expr translate (e : Ir.expr) : L.cond =
  match e with
  | Cmp_e (op, a, b) ->
      let op' =
        match op with
        | Eq -> L.EqOp | Ne -> L.NeOp | Lt -> L.LtOp
        | Le -> L.LeOp | Gt -> L.GtOp | Ge -> L.GeOp
      in
      L.Cmp (op', translate a, translate b)
  | _ -> L.Cmp (L.NeOp, translate e, L.Int 0)

and translate_expr ~fn ~params ~iter_map ~col_env (e : Ir.expr) : L.expr =
  let tr = translate_expr ~fn ~params ~iter_map ~col_env in
  match e with
  | Int_e n -> L.Int n
  | Float_e f -> L.Float f
  | Param_e p -> L.Var p
  | Iter_e i -> (
      match List.assoc_opt i iter_map with
      | Some a -> aff_to_expr ~params ~iter_map:[] ~col_env a
      | None -> raise (Unsupported (Printf.sprintf "unbound iterator %s" i)))
  | Access_e (name, idx) -> (
      let idx' = List.map tr idx in
      match List.find_opt (fun c -> c.comp_name = name) fn.comps with
      | None ->
          raise (Unsupported (Printf.sprintf "unknown computation %s" name))
      | Some p ->
          let acc =
            match p.access with
            | Some a -> a
            | None -> raise (Unsupported (name ^ " has no buffer"))
          in
          let bind = List.combine p.iters idx' in
          let dim_expr a =
            let acc_e = ref (L.Int (Aff.constant_part a)) in
            List.iter
              (fun (nm, cf) ->
                let e =
                  match List.assoc_opt nm bind with
                  | Some e -> e
                  | None -> (
                      if List.mem nm params then L.Var nm
                      else
                        match col_env nm with
                        | Some e -> e
                        | None ->
                            raise
                              (Unsupported
                                 (Printf.sprintf "access to %s via %s" name nm)))
                in
                acc_e := L.(!acc_e +! (int cf *! e)))
              (Aff.terms a);
            L.simplify_expr !acc_e
          in
          L.Load (acc.acc_buf.buf_name, List.map dim_expr acc.acc_idx))
  | Bin_e (op, a, b) ->
      let op' =
        match op with
        | Add -> L.Add | Sub -> L.Sub | Mul -> L.Mul | Div -> L.Div
        | Min -> L.MinOp | Max -> L.MaxOp
      in
      L.Bin (op', tr a, tr b)
  | Neg_e a -> L.Neg (tr a)
  | Cmp_e _ -> L.Select (cond_of_expr tr e, L.Int 1, L.Int 0)
  | Select_e (c, a, b) -> L.Select (cond_of_expr tr c, tr a, tr b)
  | Clamp_e (v, lo, hi) ->
      L.Bin (L.MaxOp, L.Bin (L.MinOp, tr v, tr hi), tr lo)
  | Call_e (f, args) -> L.Call (f, List.map tr args)
  | Cast_e (d, a) -> L.Cast (d, tr a)

(* ---------- allocate_at (Table II, b.allocate_at(C, i)) ----------

   Scope a buffer's allocation inside the named loop level of a
   computation: the post-pass finds the first loop whose variable carries
   the level's name and whose subtree touches the buffer, and wraps its
   body in a scoped Alloc. *)

let stmt_mentions buf (s0 : L.stmt) =
  let rec expr_mentions (e : L.expr) =
    match e with
    | L.Load (b, idx) -> b = buf || List.exists expr_mentions idx
    | L.Int _ | L.Float _ | L.Var _ -> false
    | L.Bin (_, a, b) -> expr_mentions a || expr_mentions b
    | L.Neg a | L.Cast (_, a) -> expr_mentions a
    | L.Select (_, a, b) -> expr_mentions a || expr_mentions b
    | L.Call (_, args) -> List.exists expr_mentions args
  in
  let rec go (s : L.stmt) =
    match s with
    | L.Block l -> List.exists go l
    | L.For f -> go f.body
    | L.If (_, t, e) ->
        go t || (match e with Some e -> go e | None -> false)
    | L.Store (b, idx, v) ->
        b = buf || List.exists expr_mentions idx || expr_mentions v
    | L.Alloc a -> go a.body
    | _ -> false
  in
  go s0

let wrap_allocs fn ast =
  let aff_to_simple_expr a =
    let acc = ref (L.Int (Aff.constant_part a)) in
    List.iter
      (fun (n, c) -> acc := L.(!acc +! (int c *! Var n)))
      (Aff.terms a);
    L.simplify_expr !acc
  in
  List.fold_left
    (fun ast ((b : buffer), (c : computation), lvl) ->
      let target = (nth_dyn c.sched lvl).d_name in
      let matches v =
        v = target
        || (String.length v > String.length target
           && String.sub v 0 (String.length target) = target
           && v.[String.length target] = '_')
      in
      let done_ = ref false in
      let rec rewrite (s : L.stmt) =
        match s with
        | L.For f
          when (not !done_) && matches f.var && stmt_mentions b.buf_name f.body
          ->
            done_ := true;
            L.For
              {
                f with
                body =
                  L.Alloc
                    {
                      buf = b.buf_name;
                      dtype = b.buf_dtype;
                      dims = List.map aff_to_simple_expr b.buf_dims;
                      mem = b.buf_mem;
                      body = f.body;
                    };
              }
        | L.For f -> L.For { f with body = rewrite f.body }
        | L.Block l -> L.Block (List.map rewrite l)
        | L.If (cnd, t, e) -> L.If (cnd, rewrite t, Option.map rewrite e)
        | s -> s
      in
      rewrite ast)
    ast fn.allocs

(* ---------- lowering ---------- *)

(* cache_shared_at (Table II): synthesize a copy computation that stages the
   producer's buffer into GPU shared memory inside the consumer's tile, and
   rewire the consumer to read the shared copy.  The copy is computed_at the
   same loop level, so the footprint machinery sizes its iteration set
   automatically (the paper's "amount of data to copy ... computed
   automatically", §III-C).  The shared buffer conservatively mirrors the
   producer's global buffer shape (the simulator has no 48 KB limit; see
   DESIGN.md). *)
let expand_shared_caches fn =
  List.iter
    (fun (p : computation) ->
      match p.cached_shared with
      | None -> ()
      | Some (sbuf, consumer, lvl) ->
          p.cached_shared <- None;
          (* shaped by the producer's iteration box, indexed identically to
             the copy's iterators *)
          let sbuf =
            { sbuf with
              buf_dims =
                List.map
                  (fun (_, (lo, hi)) -> Tiramisu_presburger.Aff.sub hi lo)
                  p.ranges }
          in
          fn.buffers <- fn.buffers @ [ sbuf ];
          let cache_name = p.comp_name ^ "_shared" in
          let vars =
            List.map
              (fun (it, (lo, hi)) -> Tiramisu.var it lo hi)
              p.ranges
          in
          let copy =
            Tiramisu.comp fn cache_name vars
              (Ir.Access_e
                 (p.comp_name, List.map (fun it -> Ir.Iter_e it) p.iters))
          in
          copy.computed_at <- Some (consumer, lvl);
          Tiramisu.store_in copy sbuf
            (List.map
               (fun (it, (lo, _)) ->
                 Tiramisu_presburger.Aff.sub (Tiramisu_presburger.Aff.var it) lo)
               p.ranges);
          (* consumers now read the shared copy *)
          consumer.expr <-
            Expr.subst_access
              (fun name idx ->
                if name = p.comp_name then Some (Ir.Access_e (cache_name, idx))
                else None)
              consumer.expr)
    fn.comps

(* Expansion + polyhedral AST generation only — the raw statement before
   legalization and alloc scoping.  {!Tiramisu_pipeline.Pipeline.lower}
   runs the three stages as separately traced passes. *)
let generate_ast fn =
  let params = fn.params in
  let context = fn.context in
  expand_shared_caches fn;
  List.iter
    (fun c ->
      match c.kind with
      | Regular when not c.inlined -> ignore (Tiramisu.buffer_of c)
      | Input -> ignore (Tiramisu.buffer_of c)
      | _ -> ())
    fn.comps;
  let memo = Hashtbl.create 16 in
  let execs =
    List.filter (fun c -> (not c.inlined) && c.kind <> Input) fn.comps
  in
  let descs = List.map (desc_of ~params ~context memo) execs in
  let max_len =
    List.fold_left (fun m d -> max m (List.length d.tdims)) 0 descs
  in
  let sources =
    List.map
      (fun d ->
        let c = d.comp in
        let pad = max_len - List.length d.tdims in
        let tdims = d.tdims @ List.init pad (fun _ -> T_static (0, 0)) in
        let set_cols = Array.to_list d.set.Iset.space.Space.vars in
        (* Full tuple: one column per tdim; statics get fresh columns fixed
           to their materialized value (2v + sub). *)
        let full_cols =
          List.mapi
            (fun i td ->
              match td with
              | T_dyn dd -> dd.d_col
              | T_static _ -> "s$" ^ string_of_int i)
            tdims
        in
        let fixes =
          List.concat
            (List.mapi
               (fun i td ->
                 match td with
                 | T_static (v, sub) ->
                     [ ("s$" ^ string_of_int i, (2 * v) + sub) ]
                 | T_dyn _ -> [])
               tdims)
        in
        let np = List.length params in
        (* each full column's position among the set's columns *)
        let set_pos = List.map (col_index set_cols) full_cols in
        let polys =
          List.map
            (fun p ->
              let nfull = List.length full_cols in
              let q = ref (Poly.universe (np + nfull)) in
              let remap row =
                let row' = Array.make (np + nfull + 1) 0 in
                row'.(0) <- row.(0);
                for i = 0 to np - 1 do
                  row'.(i + 1) <- row.(i + 1)
                done;
                List.iteri
                  (fun fi pos ->
                    match pos with
                    | Some si -> row'.(np + fi + 1) <- row.(np + si + 1)
                    | None -> ())
                  set_pos;
                row'
              in
              List.iter (fun r -> q := Poly.add_eq !q (remap r)) p.Poly.eqs;
              List.iter (fun r -> q := Poly.add_ineq !q (remap r)) p.Poly.ineqs;
              List.iteri
                (fun fi col ->
                  match List.assoc_opt col fixes with
                  | Some v -> q := Poly.fix_var !q (np + fi) v
                  | None -> ())
                full_cols;
              !q)
            d.set.Iset.polys
        in
        let sched_set =
          Iset.of_polys (Space.set_space ~params full_cols) polys
        in
        let dim_names =
          Array.of_list
            (List.map
               (function T_dyn dd -> dd.d_name | T_static _ -> "_s")
               tdims)
        in
        let tags =
          Array.of_list
            (List.map
               (function T_dyn dd -> dd.d_tag | T_static _ -> L.Seq)
               tdims)
        in
        let col_pos = List.mapi (fun i col -> (col, i)) full_cols in
        (* one substitution per computation, shared by its leaf pieces *)
        let iter_map =
          lazy
            (match c.kind with
            | Op_barrier | Op_copy _ -> []
            | _ -> (
                try
                  Schedule.backward_exprs ~params:c.fn.params c.domain c.sched
                with Failure m -> failwith (c.comp_name ^ ": " ^ m)))
        in
        let emit env =
          let col_env name =
            Option.map env (List.assoc_opt name col_pos)
          in
          let iter_map = Lazy.force iter_map in
          let translate e = translate_expr ~fn ~params ~iter_map ~col_env e in
          let aff a = aff_to_expr ~params ~iter_map ~col_env a in
          match c.kind with
          | Regular ->
              let acc = Option.get c.access in
              L.Store
                ( acc.acc_buf.buf_name,
                  List.map aff acc.acc_idx,
                  translate (expand fn c.expr) )
          | Op_copy ci ->
              L.Memcpy
                { dst = ci.c_dst.buf_name; src = ci.c_src.buf_name;
                  direction = ci.c_direction }
          | Op_send si ->
              L.Send
                { dst = aff si.s_dest; buf = si.s_buf.buf_name;
                  offset = List.map aff si.s_offset; count = aff si.s_count;
                  props = { L.async = si.s_async } }
          | Op_recv ri ->
              L.Recv
                { src = aff ri.r_src; buf = ri.r_buf.buf_name;
                  offset = List.map aff ri.r_offset; count = aff ri.r_count;
                  props = { L.async = not ri.r_sync } }
          | Op_barrier -> L.Barrier
          | Input -> assert false
        in
        { AG.name = c.comp_name; sched = sched_set; dim_names; tags; emit })
      descs
  in
  AG.generate ~context ~params sources

(* allocate_at post-pass, exposed as its own pipeline stage. *)
let scope_allocs fn ast = wrap_allocs fn ast

let buffer_extents fn ~params =
  let eval a =
    Aff.eval a (fun n ->
        match List.assoc_opt n params with
        | Some v -> v
        | None -> failwith ("buffer_extents: unbound parameter " ^ n))
  in
  List.map (fun b -> (b, Array.of_list (List.map eval b.buf_dims))) fn.buffers
