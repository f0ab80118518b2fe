open Tiramisu_presburger
module L = Loop_ir

type source = {
  name : string;
  sched : Iset.t;
  dim_names : string array;
  tags : L.loop_tag array;
  emit : (int -> L.expr) -> L.stmt;
}

exception Unbounded of string

(* One convex piece of one statement. [pending] holds guard conditions that
   were discovered at an outer shared loop but could not be emitted there
   without breaking the interleaving of fused statements; they are emitted at
   the first point where the instance is alone (or at the leaf). *)
type instance = {
  src : source;
  poly : Poly.t;          (* over [params; time dims], less [statics] *)
  statics : (int * int array) list;
      (* the piece's static time dims, each with the row fixing it *)
  consts : int option array; (* [Poly.constant_values] of the whole piece *)
  ctx : Poly.t;           (* constraints already enforced for this instance *)
  pending : L.cond list;
}

type gen_env = {
  params : string array;
  nt : int;                       (* number of time dimensions *)
  dim_vars : L.expr option array; (* value of each time dim, once generated *)
  used_names : (string, unit) Hashtbl.t;
}

let fresh_name env base =
  let base = if base = "" then "t" else base in
  let rec go i =
    let n = if i = 0 then base else base ^ "_" ^ string_of_int i in
    if Hashtbl.mem env.used_names n then go (i + 1)
    else begin
      Hashtbl.add env.used_names n ();
      n
    end
  in
  go 0

(* Convert a coefficient row over [const; params; tdims] into an expression,
   resolving time dims through the environment. *)
let row_to_expr env row =
  let np = Array.length env.params in
  let acc = ref (L.Int row.(0)) in
  Array.iteri
    (fun i p ->
      let c = row.(i + 1) in
      if c <> 0 then acc := L.(!acc +! (int c *! Var p)))
    env.params;
  for k = 0 to env.nt - 1 do
    let c = row.(np + k + 1) in
    if c <> 0 then
      match env.dim_vars.(k) with
      | Some e -> acc := L.(!acc +! (int c *! e))
      | None ->
          invalid_arg
            (Printf.sprintf "Ast_gen: row references un-generated dim %d" k)
  done;
  L.simplify_expr !acc

(* Bounds of time dim [k] from the projected polyhedron: lower bounds come
   from rows with positive coefficient on k, upper bounds from negative. *)
let bounds_of env ~k proj name =
  let np = Array.length env.params in
  let col = np + k + 1 in
  let lbs = ref [] and ubs = ref [] in
  List.iter
    (fun row ->
      let a = row.(col) in
      if a <> 0 then begin
        (* a*t + rest >= 0 *)
        let rest = Array.copy row in
        rest.(col) <- 0;
        if a > 0 then begin
          (* t >= ceil(-rest / a) = floor((-rest + a - 1) / a) *)
          let e = row_to_expr env (Tiramisu_support.Vec.neg rest) in
          let e =
            if a = 1 then e
            else L.Bin (L.FloorDiv, L.(e +! L.int (a - 1)), L.int a)
          in
          lbs := L.simplify_expr e :: !lbs
        end
        else begin
          (* t <= floor(rest / -a) *)
          let b = -a in
          let e = row_to_expr env rest in
          let e = if b = 1 then e else L.Bin (L.FloorDiv, e, L.int b) in
          ubs := L.simplify_expr e :: !ubs
        end
      end)
    (Poly.to_ineqs proj);
  match (!lbs, !ubs) with
  | [], _ | _, [] -> raise (Unbounded name)
  | lbs, ubs -> (lbs, ubs)

(* Guard condition from the constraints of [g]. *)
let guard_cond env g =
  let ineq row = L.Cmp (L.GeOp, row_to_expr env row, L.Int 0) in
  let eq row = L.Cmp (L.EqOp, row_to_expr env row, L.Int 0) in
  let open Poly in
  L.simplify_cond (L.conj (List.map eq g.eqs @ List.map ineq g.ineqs))

let keep_upto ~np k i = i < np + k + 1 (* params and dims 0..k *)

(* The static-column rule.  A time dim is static in a piece when one row
   alone mentions it: an equality that fixes it (a static schedule
   dimension becomes exactly that).  Such a row constrains nothing else,
   so it is kept out of the piece and of its context: a static level
   groups by the value [consts] already holds, an equality elimination
   only passes the row through, and every later level's context would
   hold it.  It comes back only in the projection of its own level, when
   that level is a loop.  Only the piece's leading equalities are taken. *)
let split_statics ~np p =
  let n = Poly.dim p in
  let mentions = Array.make (n + 1) 0 in
  let count r =
    for j = 1 to n do
      if r.(j) <> 0 then mentions.(j) <- mentions.(j) + 1
    done
  in
  List.iter count p.Poly.eqs;
  List.iter count p.Poly.ineqs;
  let static_dim r =
    let j = ref 0 and many = ref false in
    for i = 1 to n do
      if r.(i) <> 0 then if !j = 0 then j := i else many := true
    done;
    if (not !many) && !j > np && abs r.(!j) = 1 && mentions.(!j) = 1 then
      Some (!j - np - 1)
    else None
  in
  let rec take acc eqs =
    match eqs with
    | r :: rest -> (
        match static_dim r with
        | Some d -> take ((d, r) :: acc) rest
        | None -> (List.rev acc, eqs))
    | [] -> (List.rev acc, eqs)
  in
  match take [] p.Poly.eqs with
  | [], _ -> ([], p)
  | statics, eqs -> (statics, Poly.make n ~eqs ~ineqs:p.Poly.ineqs)

(* The projection of [inst] onto params and dims 0..[level], with the row
   of a static [level] back in. *)
let project ~np ~level inst =
  let poly =
    List.fold_left
      (fun p (d, r) -> if d = level then Poly.add_eq p r else p)
      inst.poly inst.statics
  in
  fst (Poly.eliminate poly ~keep:(keep_upto ~np level))

(* Rows of [p] that mention time dim k. *)
let rows_on ~np ~k p =
  let col = np + k + 1 in
  let eqs = List.filter (fun r -> r.(col) <> 0) p.Poly.eqs in
  let ineqs = List.filter (fun r -> r.(col) <> 0) p.Poly.ineqs in
  Poly.make (Poly.dim p) ~eqs ~ineqs

let merge_tags name tags =
  List.fold_left
    (fun acc t ->
      match L.join_tags acc t with
      | Some t -> t
      | None ->
          invalid_arg
            (Printf.sprintf
               "Ast_gen: conflicting hardware tags on a shared loop of %s" name))
    L.Seq tags

let wrap_pending pending stmts =
  match L.simplify_cond (L.conj pending) with
  | L.True -> stmts
  | c -> [ L.If (c, L.block stmts, None) ]

let rec gen env level insts : L.stmt list =
  match insts with
  | [] -> []
  | [ inst ] when inst.pending <> [] ->
      (* Alone: safe to materialize the pending guards around the subtree. *)
      wrap_pending inst.pending (gen env level [ { inst with pending = [] } ])
  | _ when level = env.nt ->
      (* Leaf: emit each statement under its residual guard. *)
      List.concat_map
        (fun inst ->
          let g = Poly.gist inst.poly ~ctx:inst.ctx in
          let body =
            inst.src.emit (fun k ->
                match env.dim_vars.(k) with
                | Some e -> e
                | None -> invalid_arg "Ast_gen: missing dim value at leaf")
          in
          wrap_pending (guard_cond env g :: inst.pending) [ body ])
        insts
  | _ ->
      let np = Array.length env.params in
      let consts = List.map (fun i -> i.consts.(np + level)) insts in
      if List.for_all Option.is_some consts then begin
        (* Static dimension: group by value, in increasing order. *)
        let tagged = List.map2 (fun i c -> (Option.get c, i)) insts consts in
        let values = List.sort_uniq compare (List.map fst tagged) in
        List.concat_map
          (fun v ->
            let group =
              List.filter_map
                (fun (c, i) ->
                  if c <> v then None
                  else if List.mem_assoc level i.statics then Some i
                  else
                    let fixed = Poly.fix_var (Poly.universe (Poly.dim i.ctx)) (np + level) v in
                    Some { i with ctx = Poly.extend i.ctx fixed })
                tagged
            in
            env.dim_vars.(level) <- Some (L.Int v);
            let out = gen env (level + 1) group in
            env.dim_vars.(level) <- None;
            out)
          values
      end
      else begin
        (* Dynamic dimension: loop over the union of the instances' ranges. *)
        let name =
          let suggested =
            let s = (List.hd insts).src in
            if level < Array.length s.dim_names then s.dim_names.(level)
            else "t"
          in
          fresh_name env suggested
        in
        let projs = List.map (project ~np ~level) insts in
        let per_inst_bounds =
          List.map2
            (fun inst proj -> bounds_of env ~k:level proj inst.src.name)
            insts projs
        in
        let lows = List.map (fun (lbs, _) -> L.fold_max lbs) per_inst_bounds in
        let ups = List.map (fun (_, ubs) -> L.fold_min ubs) per_inst_bounds in
        let lo = L.simplify_expr (L.fold_min lows) in
        let hi = L.simplify_expr (L.fold_max ups) in
        let tag =
          merge_tags (List.hd insts).src.name
            (List.map
               (fun i ->
                 if level < Array.length i.src.tags then i.src.tags.(level)
                 else L.Seq)
               insts)
        in
        let single = match insts with [ _ ] -> true | _ -> false in
        env.dim_vars.(level) <- Some (L.Var name);
        let insts' =
          List.map2
            (fun inst proj ->
              let enforced =
                if single then
                  Poly.extend inst.ctx (rows_on ~np ~k:level proj)
                else inst.ctx
              in
              let g = Poly.gist proj ~ctx:enforced in
              let guard = guard_cond env g in
              let pending =
                match guard with L.True -> inst.pending | c -> c :: inst.pending
              in
              { inst with ctx = Poly.extend inst.ctx proj; pending })
            insts projs
        in
        let body = L.block (gen env (level + 1) insts') in
        env.dim_vars.(level) <- None;
        [ L.For { var = name; lo; hi; tag; body } ]
      end

let generate ?(context = []) ~params sources =
  match sources with
  | [] -> L.Block []
  | s0 :: _ ->
      let nt = Iset.n_vars s0.sched in
      List.iter
        (fun s ->
          if Iset.n_vars s.sched <> nt then
            invalid_arg "Ast_gen.generate: time arity mismatch")
        sources;
      let params = Array.of_list params in
      let env =
        {
          params;
          nt;
          dim_vars = Array.make nt None;
          used_names = Hashtbl.create 16;
        }
      in
      Array.iter (fun p -> Hashtbl.add env.used_names p ()) params;
      let ctx0 =
        let space =
          Space.set_space ~params:(Array.to_list params)
            (List.init nt (fun k -> "__t" ^ string_of_int k))
        in
        (Iset.of_constraints space context).Iset.polys |> List.hd
      in
      let insts =
        List.concat_map
          (fun src ->
            List.map
              (fun piece ->
                let statics, poly = split_statics ~np:(Array.length params) piece in
                { src; poly; statics; consts = Poly.constant_values piece; ctx = ctx0;
                  pending = [] })
              src.sched.Iset.polys)
          sources
      in
      L.simplify_stmt (L.block (gen env 0 insts))
