open Tiramisu_core
module L = Tiramisu_codegen.Loop_ir

exception Unsupported of string

type loop_kind =
  | Root of string              (* iterates an argument's full interval *)
  | Outer of string * int       (* split outer part of an argument *)
  | Inner of string * int       (* split inner part (factor iterations) *)

type loop = {
  mutable l_var : string;
  mutable l_tag : L.loop_tag;
  l_kind : loop_kind;
}

type func = {
  h_name : string;
  h_args : string list;
  h_rank : int;
  h_body : Ir.expr option;      (* None = input image *)
  mutable h_loops : loop list;  (* outermost first *)
  mutable h_with : func option; (* compute_with partner (fused) *)
}

type pipeline = {
  p_name : string;
  mutable p_funcs : func list;
}

let pipeline p_name = { p_name; p_funcs = [] }

let func p name args body =
  let f =
    {
      h_name = name;
      h_args = args;
      h_rank = List.length args;
      h_body = Some body;
      h_loops = List.map (fun a -> { l_var = a; l_tag = L.Seq; l_kind = Root a }) args;
      h_with = None;
    }
  in
  p.p_funcs <- p.p_funcs @ [ f ];
  f

let input p name rank =
  let f =
    {
      h_name = name;
      h_args = List.init rank (Printf.sprintf "_a%d");
      h_rank = rank;
      h_body = None;
      h_loops = [];
      h_with = None;
    }
  in
  p.p_funcs <- p.p_funcs @ [ f ];
  f

let name f = f.h_name

(* ---------------- scheduling ---------------- *)

let find_loop f v =
  match List.find_opt (fun l -> l.l_var = v) f.h_loops with
  | Some l -> l
  | None ->
      raise (Unsupported (Printf.sprintf "%s: no loop %s" f.h_name v))

let parallel f v = (find_loop f v).l_tag <- L.Parallel
let unroll f v _factor = (find_loop f v).l_tag <- L.Unrolled

let split f v factor outer inner =
  let rec go = function
    | [] -> raise (Unsupported (Printf.sprintf "%s: no loop %s" f.h_name v))
    | l :: rest when l.l_var = v -> (
        match l.l_kind with
        | Root arg ->
            { l_var = outer; l_tag = L.Seq; l_kind = Outer (arg, factor) }
            :: { l_var = inner; l_tag = l.l_tag; l_kind = Inner (arg, factor) }
            :: rest
        | _ ->
            raise (Unsupported "halide baseline: nested splits not supported"))
    | l :: rest -> l :: go rest
  in
  f.h_loops <- go f.h_loops

let vectorize f v width =
  split f v width v (v ^ "_v");
  (find_loop f (v ^ "_v")).l_tag <- L.Vectorized width

let reorder f order =
  let remaining =
    List.filter (fun l -> not (List.mem l.l_var order)) f.h_loops
  in
  let picked = List.map (find_loop f) order in
  (* Halide's reorder lists innermost-first; we take outermost-first for
     consistency with the rest of this codebase. *)
  f.h_loops <- picked @ remaining

let gpu_tile f vx vy fx fy =
  split f vx fx vx (vx ^ "_t");
  split f vy fy vy (vy ^ "_t");
  reorder f [ vx; vy; vx ^ "_t"; vy ^ "_t" ];
  (* threadIdx.x on the second (contiguous) dimension for coalescing, as
     Halide's gpu_tile does. *)
  (find_loop f vx).l_tag <- L.Gpu_block 1;
  (find_loop f vy).l_tag <- L.Gpu_block 0;
  (find_loop f (vx ^ "_t")).l_tag <- L.Gpu_thread 1;
  (find_loop f (vy ^ "_t")).l_tag <- L.Gpu_thread 0

let reads f g =
  (* does f's body access g? *)
  match f.h_body with
  | None -> false
  | Some body ->
      List.exists (fun (n, _) -> n = g.h_name) (Expr.accesses body)

let compute_with f g =
  if reads f g || reads g f then
    raise
      (Unsupported
         (Printf.sprintf
            "cannot compute %s with %s: one reads the other's output (Halide \
             cannot prove the fusion legal without dependence analysis)"
            f.h_name g.h_name));
  if f.h_rank <> g.h_rank then
    raise (Unsupported "compute_with: rank mismatch");
  f.h_with <- Some g

let store_in_input f inp =
  raise
    (Unsupported
       (Printf.sprintf
          "storing %s into input %s creates a cyclic dataflow graph, which \
           Halide's acyclic-pipeline restriction rejects"
          f.h_name inp.h_name))

(* ---------------- interval arithmetic ---------------- *)

type itv = { lo : float; hi : float }

let iconst v = { lo = v; hi = v }
let ijoin a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let rec interval env params (e : Ir.expr) : itv =
  match e with
  | Ir.Int_e n -> iconst (float_of_int n)
  | Ir.Float_e f -> iconst f
  | Ir.Param_e p -> (
      match List.assoc_opt p params with
      | Some v -> iconst (float_of_int v)
      | None -> raise (Unsupported ("unbound parameter " ^ p)))
  | Ir.Iter_e i -> (
      match List.assoc_opt i env with
      | Some itv -> itv
      | None -> raise (Unsupported ("unbound loop variable " ^ i)))
  | Ir.Neg_e a ->
      let x = interval env params a in
      { lo = -.x.hi; hi = -.x.lo }
  | Ir.Bin_e (op, a, b) -> (
      let x = interval env params a and y = interval env params b in
      match op with
      | Ir.Add -> { lo = x.lo +. y.lo; hi = x.hi +. y.hi }
      | Ir.Sub -> { lo = x.lo -. y.hi; hi = x.hi -. y.lo }
      | Ir.Mul ->
          let c = [ x.lo *. y.lo; x.lo *. y.hi; x.hi *. y.lo; x.hi *. y.hi ] in
          { lo = List.fold_left Float.min infinity c;
            hi = List.fold_left Float.max neg_infinity c }
      | Ir.Div ->
          let c = [ x.lo /. y.lo; x.lo /. y.hi; x.hi /. y.lo; x.hi /. y.hi ] in
          { lo = List.fold_left Float.min infinity c;
            hi = List.fold_left Float.max neg_infinity c }
      | Ir.Min -> { lo = Float.min x.lo y.lo; hi = Float.min x.hi y.hi }
      | Ir.Max -> { lo = Float.max x.lo y.lo; hi = Float.max x.hi y.hi })
  | Ir.Clamp_e (x, lo, hi) ->
      let xi = interval env params x in
      let li = interval env params lo and hi' = interval env params hi in
      { lo = Float.max xi.lo li.lo; hi = Float.min xi.hi hi'.hi }
  | Ir.Select_e (_, a, b) ->
      ijoin (interval env params a) (interval env params b)
  | Ir.Cmp_e _ -> { lo = 0.0; hi = 1.0 }
  | Ir.Call_e ("floor", [ a ]) ->
      let x = interval env params a in
      { lo = Float.of_int (int_of_float (Float.floor x.lo));
        hi = Float.of_int (int_of_float (Float.floor x.hi)) }
  | Ir.Call_e (_, args) ->
      List.fold_left
        (fun acc a -> ijoin acc (interval env params a))
        (iconst 0.0) args
  | Ir.Cast_e (_, a) -> interval env params a
  | Ir.Access_e (_, _) ->
      (* value intervals of data are unknown; only used in index position
         when data-dependent — not supported by Halide either *)
      raise (Unsupported "data-dependent index")

(* ---------------- bounds inference ---------------- *)

type box = (int * int) list (* (min, max) inclusive per dimension *)

let topo_order p outputs =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit stack f =
    if List.memq f stack then
      raise
        (Unsupported
           (Printf.sprintf "cyclic dataflow through %s (Halide requires an \
                            acyclic pipeline)" f.h_name));
    if not (Hashtbl.mem visited f.h_name) then begin
      Hashtbl.replace visited f.h_name ();
      (match f.h_body with
      | None -> ()
      | Some body ->
          List.iter
            (fun (n, _) ->
              match List.find_opt (fun g -> g.h_name = n) p.p_funcs with
              | Some g -> visit (f :: stack) g
              | None -> ())
            (Expr.accesses body));
      order := f :: !order
    end
  in
  List.iter (fun (f, _) -> visit [] f) outputs;
  (* [!order] lists consumers before their producers. *)
  !order

let infer_bounds p ~outputs ~inputs ~params =
  let boxes : (string, box) Hashtbl.t = Hashtbl.create 16 in
  let union_box name (b : box) =
    match Hashtbl.find_opt boxes name with
    | None -> Hashtbl.replace boxes name b
    | Some b0 ->
        Hashtbl.replace boxes name
          (List.map2 (fun (l0, h0) (l, h) -> (min l0 l, max h0 h)) b0 b)
  in
  List.iter (fun (f, b) -> union_box f.h_name (List.map (fun (lo, hi) -> (lo, hi)) b)) outputs;
  (* consumers first: propagate requirements down to producers *)
  let order = topo_order p outputs in
  List.iter
    (fun f ->
      match (f.h_body, Hashtbl.find_opt boxes f.h_name) with
      | Some body, Some box ->
          let env =
            List.map2
              (fun a (lo, hi) ->
                (a, { lo = float_of_int lo; hi = float_of_int hi }))
              f.h_args box
          in
          List.iter
            (fun (callee, idx) ->
              match List.find_opt (fun g -> g.h_name = callee) p.p_funcs with
              | None -> ()
              | Some g ->
                  let b =
                    List.map
                      (fun e ->
                        let itv = interval env params e in
                        ( int_of_float (Float.floor itv.lo),
                          int_of_float (Float.ceil itv.hi) ))
                      idx
                  in
                  if List.length b <> g.h_rank then
                    raise (Unsupported (callee ^ ": access arity mismatch"));
                  union_box g.h_name b)
            (Expr.accesses body)
      | _ -> ())
    order;
  (* Inputs must cover their inferred required regions. *)
  List.iter
    (fun (f, declared) ->
      match Hashtbl.find_opt boxes f.h_name with
      | None -> Hashtbl.replace boxes f.h_name declared
      | Some required ->
          List.iter2
            (fun (rl, rh) (dl, dh) ->
              if rl < dl || rh > dh then
                raise
                  (Unsupported
                     (Printf.sprintf
                        "inferred required region of input %s ([%d,%d]) \
                         exceeds its bounds ([%d,%d]): execution would fail \
                         an assertion (Halide bounds over-approximation)"
                        f.h_name rl rh dl dh)))
            required declared;
          Hashtbl.replace boxes f.h_name declared)
    inputs;
  boxes

(* ---------------- lowering ---------------- *)

type compiled = {
  ast : L.stmt;
  buffers : (string * int array * L.mem_space) list;
  regions : (string * (int * int) list) list;
}

let rec translate p boxes (e : Ir.expr) : L.expr =
  let tr = translate p boxes in
  match e with
  | Ir.Int_e n -> L.Int n
  | Ir.Float_e f -> L.Float f
  | Ir.Param_e pm -> L.Var pm
  | Ir.Iter_e i -> L.Var i
  | Ir.Access_e (callee, idx) -> (
      match Hashtbl.find_opt boxes callee with
      | None -> raise (Unsupported ("unknown func " ^ callee))
      | Some box ->
          L.Load
            ( callee,
              List.map2
                (fun e (mn, _) -> L.simplify_expr L.(tr e -! int mn))
                idx box ))
  | Ir.Bin_e (op, a, b) ->
      let op' =
        match op with
        | Ir.Add -> L.Add | Ir.Sub -> L.Sub | Ir.Mul -> L.Mul
        | Ir.Div -> L.Div | Ir.Min -> L.MinOp | Ir.Max -> L.MaxOp
      in
      L.Bin (op', tr a, tr b)
  | Ir.Neg_e a -> L.Neg (tr a)
  | Ir.Cmp_e (op, a, b) ->
      let op' =
        match op with
        | Ir.Eq -> L.EqOp | Ir.Ne -> L.NeOp | Ir.Lt -> L.LtOp
        | Ir.Le -> L.LeOp | Ir.Gt -> L.GtOp | Ir.Ge -> L.GeOp
      in
      L.Select (L.Cmp (op', tr a, tr b), L.Int 1, L.Int 0)
  | Ir.Select_e (c, a, b) ->
      let cond =
        match c with
        | Ir.Cmp_e (op, x, y) ->
            let op' =
              match op with
              | Ir.Eq -> L.EqOp | Ir.Ne -> L.NeOp | Ir.Lt -> L.LtOp
              | Ir.Le -> L.LeOp | Ir.Gt -> L.GtOp | Ir.Ge -> L.GeOp
            in
            L.Cmp (op', tr x, tr y)
        | _ -> L.Cmp (L.NeOp, tr c, L.Int 0)
      in
      L.Select (cond, tr a, tr b)
  | Ir.Clamp_e (v, lo, hi) ->
      L.Bin (L.MaxOp, L.Bin (L.MinOp, tr v, tr hi), tr lo)
  | Ir.Call_e (f, args) -> L.Call (f, List.map tr args)
  | Ir.Cast_e (d, a) -> L.Cast (d, tr a)

(* Loop nest for one func over its inferred box. *)
let lower_func p boxes f =
  match f.h_body with
  | None -> L.Block []
  | Some body ->
      let box = Hashtbl.find boxes f.h_name in
      let arg_box a = List.nth box (Option.get (List.find_index (( = ) a) f.h_args)) in
      let store =
        L.Store
          ( f.h_name,
            List.map2
              (fun a (mn, _) -> L.simplify_expr L.(Var a -! int mn))
              f.h_args box,
            translate p boxes body )
      in
      (* Split loops reconstruct their argument and guard the tail. *)
      let rec build loops (body : L.stmt) =
        match loops with
        | [] -> body
        | l :: rest -> (
            let inner = build rest body in
            match l.l_kind with
            | Root a ->
                let mn, mx = arg_box a in
                L.For { var = a; lo = L.Int mn; hi = L.Int mx; tag = l.l_tag;
                        body = inner }
            | Outer (a, factor) ->
                let mn, mx = arg_box a in
                let extent = mx - mn + 1 in
                let n_outer = (extent + factor - 1) / factor in
                ignore mn;
                L.For { var = l.l_var; lo = L.Int 0; hi = L.Int (n_outer - 1);
                        tag = l.l_tag; body = inner }
            | Inner (a, factor) ->
                let mn, mx = arg_box a in
                let outer_var =
                  match
                    List.find_opt
                      (fun l' ->
                        match l'.l_kind with
                        | Outer (a', _) -> a' = a
                        | _ -> false)
                      f.h_loops
                  with
                  | Some l' -> l'.l_var
                  | None -> raise (Unsupported "split without outer loop")
                in
                (* Halide's ShiftInwards tail strategy: the last partial
                   chunk is shifted to overlap the previous one (pure funcs
                   may recompute), avoiding a per-iteration guard. *)
                let base =
                  L.(Bin
                       (MinOp,
                        int mn +! (Var outer_var *! int factor),
                        int (max mn (mx - factor + 1))))
                in
                let recon = L.(base +! Var l.l_var) in
                L.For { var = l.l_var; lo = L.Int 0; hi = L.Int (factor - 1);
                        tag = l.l_tag;
                        body = Tiramisu_codegen.Passes.subst_var a recon inner })
      in
      (* Substitute the reconstructed argument inside the body: Root loops
         bind the arg var directly; Inner loops substitute. *)
      build f.h_loops store

let compile p ~outputs ~inputs ~params =
  let boxes = infer_bounds p ~outputs ~inputs ~params in
  (* producers first, so values exist before they are read *)
  let order = List.rev (topo_order p outputs) in
  let fused_away =
    List.filter_map (fun f -> Option.map (fun g -> g.h_name) f.h_with) p.p_funcs
  in
  ignore fused_away;
  let stmts =
    List.filter_map
      (fun f ->
        match f.h_body with
        | None -> None
        | Some _ ->
            let s = lower_func p boxes f in
            let s =
              match f.h_with with
              | Some g -> L.Block [ lower_func p boxes g; s ]
              | None -> s
            in
            Some s)
      (List.filter
         (fun f ->
           not
             (List.exists
                (fun h -> match h.h_with with Some g -> g == f | None -> false)
                p.p_funcs))
         order)
  in
  let any_gpu =
    List.exists
      (fun f ->
        List.exists
          (fun l ->
            match l.l_tag with
            | L.Gpu_block _ | L.Gpu_thread _ -> true
            | _ -> false)
          f.h_loops)
      p.p_funcs
  in
  let copies_in, copies_out =
    if not any_gpu then ([], [])
    else
      ( List.map
          (fun (f, _) ->
            L.Memcpy { dst = f.h_name; src = f.h_name;
                       direction = "host_to_device" })
          inputs,
        List.map
          (fun (f, _) ->
            L.Memcpy { dst = f.h_name; src = f.h_name;
                       direction = "device_to_host" })
          outputs )
  in
  let buffers =
    List.filter_map
      (fun f ->
        match Hashtbl.find_opt boxes f.h_name with
        | None -> None
        | Some box ->
            Some
              ( f.h_name,
                Array.of_list (List.map (fun (mn, mx) -> mx - mn + 1) box),
                L.Host ))
      p.p_funcs
  in
  let ast =
    Tiramisu_codegen.Passes.legalize
      (L.Block (copies_in @ stmts @ copies_out))
  in
  {
    ast;
    buffers;
    regions =
      List.of_seq
        (Seq.map (fun (k, v) -> (k, v)) (Hashtbl.to_seq boxes));
  }

let run compiled ~params ~inputs =
  Tiramisu_backends.Interp.reference ~params ~extents:compiled.buffers ~inputs
    compiled.ast

let estimate ?machine compiled ~params =
  Tiramisu_backends.Cost.estimate ?machine ~params ~buffers:compiled.buffers
    compiled.ast

(* Distributed Halide's per-exchange send volume: exact halo when the
   boundary access offsets are plain affine; the neighbour's whole chunk
   when accesses are clamped (cannot be analyzed statically), plus the data
   is packed into a contiguous buffer before sending (§VI-B-c). *)
let dist_comm_bytes p ~output ~rows ~cols ~elems ~nodes =
  ignore output;
  let has_clamp =
    List.exists
      (fun f ->
        match f.h_body with
        | None -> false
        | Some body ->
            List.exists
              (fun (_, idx) ->
                List.exists
                  (fun e ->
                    let rec clamped (e : Ir.expr) =
                      match e with
                      | Ir.Clamp_e _ -> true
                      | Ir.Bin_e (_, a, b) -> clamped a || clamped b
                      | Ir.Neg_e a | Ir.Cast_e (_, a) -> clamped a
                      | Ir.Call_e (_, args) -> List.exists clamped args
                      | _ -> false
                    in
                    clamped e)
                  idx)
              (Expr.accesses body))
      p.p_funcs
  in
  let chunk_rows = rows / nodes in
  let row_bytes = float_of_int (cols * elems * 4) in
  if has_clamp then float_of_int chunk_rows *. row_bytes
  else
    (* exact stencil extent: maximum |offset| over accesses *)
    let max_off = ref 0 in
    List.iter
      (fun f ->
        match f.h_body with
        | None -> ()
        | Some body ->
            List.iter
              (fun (_, idx) ->
                match idx with
                | e0 :: _ -> (
                    match
                      Expr.to_aff ~iters:f.h_args ~params:[] e0
                    with
                    | Some a ->
                        max_off :=
                          max !max_off
                            (abs (Tiramisu_presburger.Aff.constant_part a))
                    | None -> ())
                | [] -> ())
              (Expr.accesses body))
      p.p_funcs;
    float_of_int !max_off *. row_bytes
