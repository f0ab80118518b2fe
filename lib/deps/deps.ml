open Tiramisu_presburger
open Tiramisu_core
open Ir

type kind = Flow | Anti | Output

type dep = {
  src : Ir.computation;
  dst : Ir.computation;
  kind : kind;
  rel : Poly.t list;
}

let kind_str = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

let sren x = "s@" ^ x
let dren x = "d@" ^ x

(* Rename everything except parameters. *)
let rename_aff_np ~params f a =
  Aff.subst a (fun n ->
      if List.mem n params then None else Some (Aff.var (f n)))

let rename_cstr ~params f = function
  | Cstr.Eq (a, b) -> Cstr.Eq (rename_aff_np ~params f a, rename_aff_np ~params f b)
  | Cstr.Le (a, b) -> Cstr.Le (rename_aff_np ~params f a, rename_aff_np ~params f b)
  | Cstr.Lt (a, b) -> Cstr.Lt (rename_aff_np ~params f a, rename_aff_np ~params f b)
  | Cstr.Ge (a, b) -> Cstr.Ge (rename_aff_np ~params f a, rename_aff_np ~params f b)
  | Cstr.Gt (a, b) -> Cstr.Gt (rename_aff_np ~params f a, rename_aff_np ~params f b)

(* Lift a domain poly (over [params; iters]) into [cols], assuming the
   renamed iterators appear contiguously in cols starting at [at]. *)
let lift_domain ~np ~at ~total p =
  let ni = Poly.dim p - np in
  (* insert columns between params and iters, then after iters *)
  let p = Poly.insert_vars p ~at:np ~count:(at - np) in
  Poly.insert_vars p ~at:(at + ni) ~count:(total - (at + ni))

(* Flow dependences from Layer I producer-consumer edges. *)
let flow_deps fn =
  let params = fn.params in
  let np = List.length params in
  let regulars =
    List.filter (fun (c : computation) -> c.kind = Regular && not c.inlined) fn.comps
  in
  List.concat_map
    (fun (dst : computation) ->
      let expr = Lower.expand fn dst.expr in
      let accs = Expr.accesses expr in
      List.filter_map
        (fun (pname, idx) ->
          match
            List.find_opt
              (fun (p : computation) -> p.comp_name = pname && p.kind = Regular && not p.inlined)
              regulars
          with
          | None -> None
          | Some src ->
              let s_iters = List.map sren src.iters in
              let d_iters = List.map dren dst.iters in
              let cols = Array.of_list (params @ s_iters @ d_iters) in
              let total = Array.length cols in
              let nsi = List.length s_iters in
              let base = Poly.universe total in
              (* index linking constraints *)
              let base =
                List.fold_left
                  (fun acc (k, (e : Ir.expr)) ->
                    let coord = Aff.var (List.nth s_iters k) in
                    let cs =
                      match
                        Expr.to_aff ~iters:dst.iters ~params e
                      with
                      | Some a ->
                          [ Cstr.Eq (coord, rename_aff_np ~params dren a) ]
                      | None -> (
                          match
                            Expr.index_range ~iters:dst.iters ~params e
                          with
                          | Some (lo, hi) ->
                              [
                                Cstr.Ge (coord, rename_aff_np ~params dren lo);
                                Cstr.Le (coord, rename_aff_np ~params dren hi);
                              ]
                          | None ->
                              (* Unanalyzable index: any producer instance
                                 may be read. *)
                              [])
                    in
                    List.fold_left
                      (fun acc c ->
                        match Cstr.to_row ~cols c with
                        | `Eq r -> Poly.add_eq acc r
                        | `Ineq r -> Poly.add_ineq acc r)
                      acc cs)
                  base
                  (List.mapi (fun k e -> (k, e)) idx)
              in
              let rel =
                List.concat_map
                  (fun sp ->
                    List.map
                      (fun dp ->
                        let sp' = lift_domain ~np ~at:np ~total sp in
                        let dp' = lift_domain ~np ~at:(np + nsi) ~total dp in
                        Poly.intersect base (Poly.intersect sp' dp'))
                      dst.domain.Iset.polys)
                  src.domain.Iset.polys
              in
              let rel = List.filter (fun p -> not (Poly.is_empty p)) rel in
              if rel = [] then None
              else Some { src; dst; kind = Flow; rel })
        accs)
    regulars

(* Memory dependences through shared buffers (Layer III). *)
let memory_deps fn =
  let params = fn.params in
  let np = List.length params in
  let stored =
    List.filter_map
      (fun (c : computation) ->
        match (c.kind, c.access, c.inlined) with
        | Regular, Some a, false -> Some (c, a)
        | _ -> None)
      fn.comps
  in
  (* Reads of buffer b: consumer c accessing producer p stored in b, at
     index A_p(g(c)). *)
  let reads =
    List.concat_map
      (fun ((c : computation), _) ->
        List.filter_map
          (fun (pname, idx) ->
            match List.find_opt (fun (p, _) -> p.comp_name = pname) stored with
            | Some (p, pa) ->
                (* buffer index k = acc_idx_k with p.iters bound to idx *)
                let bind k =
                  let a = List.nth pa.acc_idx k in
                  (* a is affine over p.iters; each p iter j substituted by
                     idx_j (range if non-affine). Approximate: only handle
                     the affine case exactly. *)
                  let subst_ok = ref true in
                  let e =
                    Aff.subst a (fun n ->
                        match
                          List.find_index (fun i -> i = n) p.iters
                        with
                        | Some j -> (
                            match
                              Expr.to_aff ~iters:c.iters ~params
                                (List.nth idx j)
                            with
                            | Some g -> Some g
                            | None ->
                                subst_ok := false;
                                None)
                        | None -> None)
                  in
                  if !subst_ok then Some e else None
                in
                let idx_affs =
                  List.mapi (fun k _ -> bind k) pa.acc_idx
                in
                Some (c, pa.acc_buf, idx_affs)
            | None -> None)
          (Expr.accesses (Lower.expand fn c.expr)))
      stored
  in
  let mk_rel (src : computation) src_idx (dst : computation) dst_idx =
    let s_iters = List.map sren src.iters in
    let d_iters = List.map dren dst.iters in
    let cols = Array.of_list (params @ s_iters @ d_iters) in
    let total = Array.length cols in
    let nsi = List.length s_iters in
    let base = Poly.universe total in
    let base =
      List.fold_left2
        (fun acc sa da ->
          match (sa, da) with
          | Some sa, Some da ->
              let c =
                Cstr.Eq
                  ( rename_aff_np ~params sren sa,
                    rename_aff_np ~params dren da )
              in
              (match Cstr.to_row ~cols c with
              | `Eq r -> Poly.add_eq acc r
              | `Ineq r -> Poly.add_ineq acc r)
          | _ -> acc)
        base src_idx dst_idx
    in
    let rels =
      List.concat_map
        (fun sp ->
          List.map
            (fun dp ->
              let sp' = lift_domain ~np ~at:np ~total sp in
              let dp' = lift_domain ~np ~at:(np + nsi) ~total dp in
              Poly.intersect base (Poly.intersect sp' dp'))
            dst.domain.Iset.polys)
        src.domain.Iset.polys
    in
    List.filter (fun p -> not (Poly.is_empty p)) rels
  in
  let write_idx (c, (a : access)) =
    List.map (fun x -> Some x) a.acc_idx |> fun l -> (c, a.acc_buf, l)
  in
  let writes = List.map write_idx stored in
  let deps = ref [] in
  (* Output deps: write/write on the same buffer. *)
  List.iter
    (fun (w1, b1, i1) ->
      List.iter
        (fun (w2, b2, i2) ->
          if b1.buf_name = b2.buf_name then begin
            let rel = mk_rel w1 i1 w2 i2 in
            if rel <> [] then
              deps := { src = w1; dst = w2; kind = Output; rel } :: !deps
          end)
        writes)
    writes;
  (* Flow (write then read) and anti (read then write). *)
  List.iter
    (fun (w, bw, iw) ->
      List.iter
        (fun (r, br, ir) ->
          if bw.buf_name = br.buf_name then begin
            let rel = mk_rel w iw r ir in
            if rel <> [] then
              deps := { src = w; dst = r; kind = Flow; rel } :: !deps;
            let rel' = mk_rel r ir w iw in
            if rel' <> [] then
              deps := { src = r; dst = w; kind = Anti; rel = rel' } :: !deps
          end)
        reads)
    writes;
  List.rev !deps

let is_empty_dep d = List.for_all Poly.is_empty d.rel

type violation = {
  dep : dep;
  level : int;
  carried : bool;
}

(* Materialized time description of a computation: list of (column name or
   constant) in order, using the same doubling of statics as lowering. *)
let time_desc (c : computation) =
  List.map
    (fun d ->
      match d.d_kind with
      | Static v -> `Const (2 * v)
      | Dyn -> `Col d.d_col)
    c.sched.dims

module LT = Tiramisu_codegen.Loop_ir

(* Tags under which a loop's iterations are not executed in increasing
   order: a dependence carried at such a level races even though the
   time-space mapping orders it correctly.  [Unrolled] expansion preserves
   sequential order and stays legal. *)
let relaxes_order = function LT.Seq | LT.Unrolled -> false | _ -> true

(* The hardware tag the *generated loop* at each time level carries, per
   computation.  This mirrors Ast_gen's merging: statements descend the
   time dims together, splitting into separate subtrees only at levels
   where every member is a distinct static constant; at a dynamic level
   the whole group shares one loop, whose tag is the join of the members'
   tags.  So a Parallel tag contributed by any fused computation applies
   to every statement under that loop — which is exactly what a
   per-endpoint tag check would miss. *)
let effective_tags fn =
  let comps =
    List.filter (fun (c : computation) -> c.kind = Regular && not c.inlined) fn.comps
  in
  let nt =
    List.fold_left (fun acc c -> max acc (List.length c.sched.dims)) 0 comps
  in
  let pad l z = Array.of_list (l @ List.init (nt - List.length l) (fun _ -> z)) in
  let info =
    List.map
      (fun (c : computation) ->
        ( c.comp_name,
          pad (time_desc c) (`Const 0),
          pad (List.map (fun d -> d.d_tag) c.sched.dims) LT.Seq ))
      comps
  in
  let eff = Hashtbl.create 16 in
  List.iter (fun (n, _, _) -> Hashtbl.replace eff n (Array.make nt LT.Seq)) info;
  let rec go group level =
    if level < nt && group <> [] then
      let static (_, desc, _) =
        match desc.(level) with `Const v -> Some v | `Col _ -> None
      in
      if List.for_all (fun m -> static m <> None) group then
        List.sort_uniq compare (List.filter_map static group)
        |> List.iter (fun v ->
               go (List.filter (fun m -> static m = Some v) group) (level + 1))
      else begin
        let t =
          List.fold_left
            (fun acc (_, _, tags) ->
              if relaxes_order tags.(level) then tags.(level) else acc)
            LT.Seq group
        in
        List.iter (fun (n, _, _) -> (Hashtbl.find eff n).(level) <- t) group;
        go group (level + 1)
      end
  in
  go info 0;
  fun name level ->
    match Hashtbl.find_opt eff name with
    | Some arr when level < Array.length arr -> arr.(level)
    | _ -> LT.Seq

(* ---------- Level profile of one dependence ----------

   Whether a schedule preserves a dependence depends on the hardware tags
   only through which time levels relax execution order, so the Omega
   queries are asked once per dependence and then folded with any tag
   assignment.  Let P_k be the dependence polyhedron in time space
   restricted to the instance pairs whose first k time coordinates are
   equal.  The profile records:
   - [gt.(k)]: P_k has a pair with ts_k > td_k — the mapping breaks the
     order at k, whatever the tags;
   - [lt.(k)]: P_k has a pair with ts_k < td_k — the dependence is carried
     at k, which races when a tag relaxes level k.  Asked only when a fold
     meets such a tag, then remembered;
   - [all_eq]: P_t is non-empty — source and sink run at the same time.
   A level where both sides sit at the same static position asks nothing
   (P_(k+1) = P_k).  The profile stops at the first level where they sit at
   distinct static positions: P_(k+1) is empty there, and every deeper
   question asks about a subset of it.  It never asks whether P_k itself is
   empty: that is an Omega run on the bare dependence polyhedron, which no
   per-level question needs and which stacked splits make explode. *)
type profile = {
  pdep : dep;
  gt : bool array;
  lt : bool Lazy.t array;
  all_eq : bool;
}

let profile ~params (d : dep) =
  let src = d.src and dst = d.dst in
  let s_desc = time_desc src and d_desc = time_desc dst in
  let t = max (List.length s_desc) (List.length d_desc) in
  let pad desc =
    Array.of_list (desc @ List.init (t - List.length desc) (fun _ -> `Const 0))
  in
  let s_desc = pad s_desc and d_desc = pad d_desc in
  let s_iters = List.map sren src.iters in
  let d_iters = List.map dren dst.iters in
  let s_extra = List.map sren (src.sched.inter @ List.map (fun dd -> dd.d_col) src.sched.dims) in
  let d_extra = List.map dren (dst.sched.inter @ List.map (fun dd -> dd.d_col) dst.sched.dims) in
  let ts = Array.init t (Printf.sprintf "ts$%d") in
  let td = Array.init t (Printf.sprintf "td$%d") in
  let cols =
    Array.of_list
      (params @ s_iters @ d_iters @ s_extra @ d_extra @ Array.to_list ts
     @ Array.to_list td)
  in
  let total = Array.length cols in
  let np = List.length params in
  let nsi = List.length s_iters and ndi = List.length d_iters in
  let add p c =
    match Cstr.to_row ~cols c with
    | `Eq r -> Poly.add_eq p r
    | `Ineq r -> Poly.add_ineq p r
  in
  let base = Poly.universe total in
  (* Schedule constraints for both sides. *)
  let base =
    List.fold_left add base
      (List.map (rename_cstr ~params sren) src.sched.cstrs
      @ List.map (rename_cstr ~params dren) dst.sched.cstrs)
  in
  (* Time columns equal the (renamed) schedule columns or constants. *)
  let link base tdesc names f =
    List.fold_left2
      (fun acc slot name ->
        match slot with
        | `Const v -> add acc (Cstr.Eq (Aff.var name, Aff.const v))
        | `Col col -> add acc (Cstr.Eq (Aff.var name, Aff.var (f col))))
      base (Array.to_list tdesc) (Array.to_list names)
  in
  let base = link base s_desc ts sren in
  let base = link base d_desc td dren in
  let pieces =
    List.map
      (fun rp ->
        Poly.intersect base
          (Poly.insert_vars rp ~at:(np + nsi + ndi)
             ~count:(total - np - nsi - ndi)))
      d.rel
  in
  let nonempty p = not (Poly.is_empty p) in
  let sat prefix c = List.exists (fun p -> nonempty (add p c)) prefix in
  let gt = Array.make t false in
  let lt = Array.make t (Lazy.from_val false) in
  (* [prefix]: the pieces of P_k, with the prefix equalities added. *)
  let rec go k prefix =
    if k = t then List.exists nonempty prefix
    else
      let ts_k = Aff.var ts.(k) and td_k = Aff.var td.(k) in
      match (s_desc.(k), d_desc.(k)) with
      | `Const a, `Const b when a = b -> go (k + 1) prefix
      | `Const a, `Const b ->
          (* Distinct static positions: P_(k+1) is empty. *)
          if a > b then gt.(k) <- sat prefix (Cstr.Gt (ts_k, td_k))
          else lt.(k) <- lazy (sat prefix (Cstr.Lt (ts_k, td_k)));
          false
      | _ ->
          gt.(k) <- sat prefix (Cstr.Gt (ts_k, td_k));
          lt.(k) <- lazy (sat prefix (Cstr.Lt (ts_k, td_k)));
          go (k + 1)
            (List.map (fun p -> add p (Cstr.Eq (ts_k, td_k))) prefix)
  in
  let all_eq = go 0 pieces in
  { pdep = d; gt; lt; all_eq }

(* The violations of a profiled dependence under [tags], lazily and in level
   order: a caller that only asks whether there is one stops at the first.
   A level the mapping orders still races when the generated loop there
   runs its iterations out of order (parallel, vector lanes, gpu,
   distributed) and the dependence is carried there. *)
let violations ~tags p =
  let d = p.pdep in
  let relaxed k =
    relaxes_order (tags d.src.comp_name k) || relaxes_order (tags d.dst.comp_name k)
  in
  let at k =
    if p.gt.(k) then Some { dep = d; level = k; carried = false }
    else if relaxed k && Lazy.force p.lt.(k) then Some { dep = d; level = k; carried = true }
    else None
  in
  let t = Array.length p.gt in
  Seq.append
    (Seq.filter_map at (Seq.init t Fun.id))
    (if p.all_eq then Seq.return { dep = d; level = t; carried = false } else Seq.empty)

(* Flow dependences between computations outside any [compute_at]. *)
let checked_deps fn =
  List.filter (fun d -> d.src.computed_at = None && d.dst.computed_at = None) (flow_deps fn)

let check_legality fn =
  let tags = effective_tags fn in
  List.concat_map
    (fun d -> List.of_seq (violations ~tags (profile ~params:fn.params d)))
    (checked_deps fn)

let compute_at_covered fn (p : computation) =
  match p.computed_at with
  | None -> true
  | Some (consumer, _) ->
      (* Every index the consumer reads must lie in the producer's domain
         (the footprint construction then covers it in the same tile). *)
      let params = fn.params in
      let accs =
        List.filter
          (fun (name, _) -> name = p.comp_name)
          (Expr.accesses (Lower.expand fn consumer.expr))
      in
      List.for_all
        (fun (_, idx) ->
          let p_coord = List.map (fun i -> "p@" ^ i) p.iters in
          let cols =
            Array.of_list (params @ consumer.iters @ p_coord)
          in
          let total = Array.length cols in
          let np = List.length params in
          let nci = List.length consumer.iters in
          let add acc c =
            match Cstr.to_row ~cols c with
            | `Eq r -> Poly.add_eq acc r
            | `Ineq r -> Poly.add_ineq acc r
          in
          let base = Poly.universe total in
          let base =
            List.fold_left add base
              (List.concat
                 (List.mapi
                    (fun k e ->
                      let coord = Aff.var (List.nth p_coord k) in
                      match Expr.to_aff ~iters:consumer.iters ~params e with
                      | Some a -> [ Cstr.Eq (coord, a) ]
                      | None -> (
                          match
                            Expr.index_range ~iters:consumer.iters ~params e
                          with
                          | Some (lo, hi) ->
                              [ Cstr.Ge (coord, lo); Cstr.Le (coord, hi) ]
                          | None -> []))
                    idx))
          in
          let reads =
            List.concat_map
              (fun cp ->
                let lifted =
                  Poly.insert_vars cp ~at:(np + nci)
                    ~count:(total - np - nci)
                in
                let joined = Poly.intersect base lifted in
                [ fst (Poly.project_out joined ~at:np ~count:nci) ])
              consumer.domain.Iset.polys
          in
          let read_set =
            Iset.of_polys (Space.set_space ~params p_coord) reads
          in
          let dom = Iset.rename_vars p.domain p_coord in
          Iset.subset read_set dom)
        accs

let has_cycle fn =
  let names = List.map (fun c -> c.comp_name) fn.comps in
  let edges c =
    List.filter_map
      (fun (n, _) -> if List.mem n names then Some n else None)
      (Expr.accesses c.expr)
  in
  let state = Hashtbl.create 16 in
  let rec dfs n =
    match Hashtbl.find_opt state n with
    | Some `Active -> true
    | Some `Done -> false
    | None -> (
        Hashtbl.replace state n `Active;
        let c = List.find_opt (fun c -> c.comp_name = n) fn.comps in
        let cyc =
          match c with
          | Some c -> List.exists dfs (edges c)
          | None -> false
        in
        Hashtbl.replace state n `Done;
        cyc)
  in
  List.exists (fun c -> dfs c.comp_name) fn.comps

let pp_dep ppf d =
  Format.fprintf ppf "%s: %s -> %s (%d pieces)" (kind_str d.kind)
    d.src.comp_name d.dst.comp_name (List.length d.rel)

let pp_violation ppf v =
  if v.carried then
    Format.fprintf ppf "%a carried by an order-relaxing (parallel/vector) loop at level %d"
      pp_dep v.dep v.level
  else Format.fprintf ppf "%a violated at level %d" pp_dep v.dep v.level

(* The one-call legality oracle: flow-dependence preservation under the
   current schedules plus coverage of every [compute_at] producer.  This is
   what the differential fuzzer runs before executing a randomly scheduled
   pipeline — an [Error] means the schedule must not be executed. *)
let legal_under_schedule fn =
  let viols = check_legality fn in
  let uncovered =
    List.filter
      (fun (c : computation) ->
        c.computed_at <> None && not (compute_at_covered fn c))
      fn.comps
  in
  if viols = [] && uncovered = [] then Ok ()
  else
    let b = Buffer.create 128 in
    List.iter
      (fun v -> Buffer.add_string b (Format.asprintf "%a; " pp_violation v))
      viols;
    List.iter
      (fun (c : computation) ->
        Buffer.add_string b
          (Printf.sprintf "compute_at producer %s not covered; " c.comp_name))
      uncovered;
    Error (Buffer.contents b)

(* ---------- Parallel tag widening (used by the pipeline's planner) ----------

   Before lowering, try to grow each computation's parallel band: any [Seq]
   dynamic dim contiguous with the existing [Parallel] band — just outside
   its outermost dim, or just inside its innermost — is trial-retagged
   [Parallel] and kept only if the function still has no violation (the
   trial runs against the whole function, so loop sharing via
   [effective_tags] is honoured: a tag widened on one computation is vetted
   against the dependences of everything fused into that loop).  The result
   is a perfectly-nested [Parallel] chain the planner can coalesce into one
   fused loop.  Widening is greedy and order-deterministic; the returned
   closure undoes every accepted mutation, so callers can widen, lower, and
   restore the user's schedule.

   Cost: tags never change a dependence or its level profile, so
   [flow_deps] runs once and each dependence is profiled once, on its first
   trial; a trial is then a fold of the profiles with the trial's effective
   tags, and asks Omega only for an [lt] level no earlier trial relaxed.
   On a 2-CPU x86-64 VM, sgemm's [tuned] schedule widens in 6-9 ms; it
   took 530-590 ms when every new tag signature re-ran the per-level
   queries with the row-copying equality elimination. *)
let widen_parallel fn =
  let profiles =
    List.map (fun d -> lazy (profile ~params:fn.params d)) (checked_deps fn)
  in
  let all_legal () =
    let tags = effective_tags fn in
    List.for_all (fun p -> Seq.is_empty (violations ~tags (Lazy.force p))) profiles
  in
  let widened = ref [] in
  let undos = ref [] in
  let try_widen (c : computation) (d : dim) =
    d.d_tag = LT.Seq
    && begin
         d.d_tag <- LT.Parallel;
         if all_legal () then begin
           widened := (c.comp_name, d.d_name) :: !widened;
           undos := (fun () -> d.d_tag <- LT.Seq) :: !undos;
           true
         end
         else begin
           d.d_tag <- LT.Seq;
           false
         end
       end
  in
  List.iter
    (fun (c : computation) ->
      if c.kind = Regular && (not c.inlined) && c.computed_at = None then begin
        let dyns = Array.of_list (dyn_dims c.sched) in
        let n = Array.length dyns in
        let p = ref (-1) in
        (try
           for i = 0 to n - 1 do
             if dyns.(i).d_tag = LT.Parallel then begin
               p := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !p >= 0 then begin
          (* outward: contiguous Seq dims above the band *)
          let i = ref (!p - 1) in
          while !i >= 0 && try_widen c dyns.(!i) do
            decr i
          done;
          (* inward: extend below the innermost dim of the band *)
          let q = ref !p in
          while !q + 1 < n && dyns.(!q + 1).d_tag = LT.Parallel do
            incr q
          done;
          let j = ref (!q + 1) in
          while !j < n && try_widen c dyns.(!j) do
            incr j
          done
        end
      end)
    fn.comps;
  let ws = List.rev !widened in
  let undo_list = !undos in
  (ws, fun () -> List.iter (fun f -> f ()) undo_list)
