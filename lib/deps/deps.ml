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

(* Lift a domain poly (over [params; iters]) into [cols], assuming the
   renamed iterators appear contiguously in cols starting at [at]. *)
let lift_domain ~np ~at ~total p =
  let ni = Poly.dim p - np in
  (* insert columns between params and iters, then after iters *)
  let p = Poly.insert_vars p ~at:np ~count:(at - np) in
  Poly.insert_vars p ~at:(at + ni) ~count:(total - (at + ni))

(* What a sink instance allows of one source-side form: one value, or a
   closed range. *)
type bound = Point of Aff.t | Range of Aff.t * Aff.t

(* The one construction of an access relation: the pairs of a [src]
   instance and a [dst] instance satisfying every link, as pieces over the
   columns [params; s@src iters; d@dst iters].  A link pairs an affine form
   over [src]'s iterators with a bound over [dst]'s; a coordinate no link
   names is unconstrained.  There is one piece per pair of domain pieces
   (source outer, sink inner), or per sink piece when [~src_domain:false]
   leaves the source side outside [src]'s domain, and the empty pieces are
   dropped. *)
let relation ~params ?(src_domain = true) (src : computation) (dst : computation) links =
  let np = List.length params and nsi = List.length src.iters in
  let cols = Array.of_list (params @ List.map sren src.iters @ List.map dren dst.iters) in
  let total = Array.length cols in
  let s = rename_aff_np ~params sren and d = rename_aff_np ~params dren in
  let base =
    List.fold_left (Poly.add_cstr ~cols) (Poly.universe total)
      (List.concat_map
         (fun (a, bound) ->
           match bound with
           | Point b -> [ Cstr.Eq (s a, d b) ]
           | Range (lo, hi) -> [ Cstr.Ge (s a, d lo); Cstr.Le (s a, d hi) ])
         links)
  in
  let sinks = List.map (lift_domain ~np ~at:(np + nsi) ~total) dst.domain.Iset.polys in
  let pieces =
    if src_domain then
      List.concat_map
        (fun sp ->
          let sp = lift_domain ~np ~at:np ~total sp in
          List.map (fun dp -> Poly.intersect base (Poly.intersect sp dp)) sinks)
        src.domain.Iset.polys
    else List.map (Poly.intersect base) sinks
  in
  List.filter (fun p -> not (Poly.is_empty p)) pieces

(* The links of a [dst] instance reading [src] at [idx]: source coordinate
   k equals index k when it is affine, lies in its range when
   [Expr.index_range] bounds it, and is free otherwise (any producer
   instance may be read). *)
let read_links ~params (src : computation) (dst : computation) idx =
  List.filter_map Fun.id
    (List.mapi
       (fun k e ->
         let coord = Aff.var (List.nth src.iters k) in
         match Expr.to_aff ~iters:dst.iters ~params e with
         | Some a -> Some (coord, Point a)
         | None ->
             Option.map
               (fun (lo, hi) -> (coord, Range (lo, hi)))
               (Expr.index_range ~iters:dst.iters ~params e))
       idx)

(* for the test that pins a widening with no trial to no analysis *)
let n_flow_deps = Atomic.make 0
let flow_deps_calls () = Atomic.get n_flow_deps

(* Flow dependences from Layer I producer-consumer edges. *)
let flow_deps fn =
  Atomic.incr n_flow_deps;
  let params = fn.params in
  let regulars =
    List.filter (fun (c : computation) -> c.kind = Regular && not c.inlined) fn.comps
  in
  List.concat_map
    (fun (dst : computation) ->
      List.filter_map
        (fun (pname, idx) ->
          match List.find_opt (fun (p : computation) -> p.comp_name = pname) regulars with
          | None -> None
          | Some src -> (
              match relation ~params src dst (read_links ~params src dst idx) with
              | [] -> None
              | rel -> Some { src; dst; kind = Flow; rel }))
        (Expr.accesses (Lower.expand fn dst.expr)))
    regulars

(* Memory dependences through shared buffers (Layer III). *)
let memory_deps fn =
  let params = fn.params in
  let stored =
    List.filter_map
      (fun (c : computation) ->
        match (c.kind, c.access, c.inlined) with
        | Regular, Some a, false -> Some (c, a)
        | _ -> None)
      fn.comps
  in
  (* Each access: who makes it, the buffer, and one affine form per buffer
     coordinate over the accessor's iterators, [None] where it is not
     affine.  A write stores at its [acc_idx]; a read of producer [p] loads
     [p]'s [acc_idx] with [p]'s iterators replaced by the read indices. *)
  let writes =
    List.map (fun (c, (a : access)) -> (c, a.acc_buf, List.map Option.some a.acc_idx)) stored
  in
  let reads =
    List.concat_map
      (fun ((c : computation), _) ->
        List.filter_map
          (fun (pname, idx) ->
            List.find_opt (fun ((p : computation), _) -> p.comp_name = pname) stored
            |> Option.map (fun ((p : computation), (pa : access)) ->
                   let at =
                     List.combine p.iters (List.map (Expr.to_aff ~iters:c.iters ~params) idx)
                   in
                   let read a =
                     if List.exists (fun v -> List.assoc_opt v at = Some None) (Aff.vars a)
                     then None
                     else Some (Aff.subst a (fun v -> Option.join (List.assoc_opt v at)))
                   in
                   (c, pa.acc_buf, List.map read pa.acc_idx)))
          (Expr.accesses (Lower.expand fn c.expr)))
      stored
  in
  (* One link per coordinate both sides know. *)
  let dep kind (src, _, si) (dst, _, di) =
    let links =
      List.filter_map
        (function Some a, Some b -> Some (a, Point b) | _ -> None)
        (List.combine si di)
    in
    match relation ~params src dst links with
    | [] -> []
    | rel -> [ { src; dst; kind; rel } ]
  in
  let same_buffer xs ys f =
    List.concat_map
      (fun ((_, bx, _) as x) ->
        List.concat_map
          (fun ((_, by, _) as y) -> if bx.buf_name = by.buf_name then f x y else [])
          ys)
      xs
  in
  same_buffer writes writes (dep Output)
  @ same_buffer writes reads (fun w r -> dep Flow w r @ dep Anti r w)

type violation =
  | Order of { dep : dep; level : int; carried : bool }
  | Tag_conflict of { comps : string list; level : int; tags : Tiramisu_codegen.Loop_ir.loop_tag list }

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
   per-endpoint tag check would miss.  Tags that do not join (say
   [Parallel] and [Unrolled]) are a [Tag_conflict], which lowering would
   reject; the loop then keeps the first tag that is not [Seq]. *)
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
  let conflicts = ref [] in
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
        let level_tags = List.map (fun (_, _, tags) -> tags.(level)) group in
        let t =
          match List.fold_left (fun acc t -> Option.bind acc (LT.join_tags t)) (Some LT.Seq) level_tags with
          | Some t -> t
          | None ->
              let comps = List.map (fun (n, _, _) -> n) group in
              let tags = List.sort_uniq compare (List.filter (( <> ) LT.Seq) level_tags) in
              conflicts := Tag_conflict { comps; level; tags } :: !conflicts;
              List.find (( <> ) LT.Seq) level_tags
        in
        List.iter (fun (n, _, _) -> (Hashtbl.find eff n).(level) <- t) group;
        go group (level + 1)
      end
  in
  go info 0;
  ( (fun name level ->
      match Hashtbl.find_opt eff name with
      | Some arr when level < Array.length arr -> arr.(level)
      | _ -> LT.Seq),
    List.rev !conflicts )

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
   per-level question needs and which stacked splits make explode.

   The polyhedron is built from integer rows, with no column name.  Each
   endpoint's schedule is resolved once into rows over its own columns
   ([endpoint]); the profile lifts them into its columns [params; s iters;
   d iters; s inter and dims; d inter and dims; ts; td] by offset, as
   [lift_domain] lifts domains, and writes the time links and the
   per-level questions straight into rows.  The rows come out in the order
   a construction by column name gives ([Poly.add_cstr] puts each added
   row first): the time links of the sink then of the source, last level
   first, ahead of the schedule equalities of the sink then of the source,
   each in reverse constraint order.  The Omega test sees the same
   system, so verdicts and fuel are those of that construction. *)

(* One slot of a time description: a static position (doubled, as lowering
   does) or a dynamic dim, by its column's index. *)
type slot = Fixed of int | Column of int

(* A computation's schedule as rows over its own columns [params; iters;
   inter; dim cols].  [e_eqs] and [e_ineqs] are in reverse constraint
   order. *)
type endpoint = {
  e_nx : int;  (* inter and dim columns *)
  e_eqs : int array list;
  e_ineqs : int array list;
  e_desc : slot array;
  e_key : string Lazy.t;
      (* all of the above with no column name: two schedules built alike
         share it, however their columns are named *)
}

let endpoint ~params (c : computation) =
  let s = c.sched in
  let cols =
    Array.of_list (params @ c.iters @ s.inter @ List.map (fun d -> d.d_col) s.dims)
  in
  (* the first column of that name, as [Cstr.to_row] resolves it; a dim's
     own column is always there *)
  let rec index i name = if cols.(i) = name then i else index (i + 1) name in
  let e_eqs, e_ineqs =
    List.fold_left
      (fun (eqs, ineqs) cs ->
        match Cstr.to_row ~cols cs with
        | `Eq r -> (r :: eqs, ineqs)
        | `Ineq r -> (eqs, r :: ineqs))
      ([], []) s.cstrs
  in
  let e_desc =
    Array.of_list
      (List.map
         (fun d ->
           match d.d_kind with Static v -> Fixed (2 * v) | Dyn -> Column (index 0 d.d_col))
         s.dims)
  in
  let e_nx = List.length s.inter + List.length s.dims in
  let e_key = lazy (Marshal.to_string (e_nx, e_desc, e_eqs, e_ineqs) [ Marshal.No_sharing ]) in
  { e_nx; e_eqs; e_ineqs; e_desc; e_key }

(* Each computation's endpoint, built on first use. *)
let endpoints ~params =
  let tbl = Hashtbl.create 8 in
  fun (c : computation) ->
    match Hashtbl.find_opt tbl c.comp_name with
    | Some e -> e
    | None ->
        let e = endpoint ~params c in
        Hashtbl.add tbl c.comp_name e;
        e

(* A row over [total] columns with the given (row index, coefficient)
   cells. *)
let row ~total cells =
  let r = Array.make (total + 1) 0 in
  List.iter (fun (i, v) -> r.(i) <- v) cells;
  r

(* Where an endpoint's own column [j] sits among a profile's columns: its
   parameters stay, its [ni] iterators move to [iters_at] and its inter
   and dim columns to [extra_at]. *)
let place ~np ~ni ~iters_at ~extra_at j =
  if j < np then j else if j < np + ni then j - np + iters_at else j - np - ni + extra_at

(* Rows over an endpoint's own columns, moved to a profile's [total]
   columns by [place]. *)
let lift_rows ~total place rows =
  List.map
    (fun r ->
      let out = Array.make (total + 1) 0 in
      out.(0) <- r.(0);
      for j = 0 to Array.length r - 2 do
        out.(place j + 1) <- r.(j + 1)
      done;
      out)
    rows

(* The pieces of P_0 and what the level questions need of it: both time
   descriptions padded to [t] levels, and the row indices of ts_0 and
   td_0. *)
type frame = {
  pieces : Poly.t list;
  s_desc : slot array;
  d_desc : slot array;
  t : int;
  total : int;
  ts0 : int;
  td0 : int;
}

let frame ~params ~src:(se : endpoint) ~dst:(de : endpoint) (d : dep) =
  let np = List.length params in
  let nsi = List.length d.src.iters and ndi = List.length d.dst.iters in
  let t = max (Array.length se.e_desc) (Array.length de.e_desc) in
  let pad desc =
    Array.init t (fun k -> if k < Array.length desc then desc.(k) else Fixed 0)
  in
  let s_desc = pad se.e_desc and d_desc = pad de.e_desc in
  let s_at = np + nsi + ndi in
  let d_at = s_at + se.e_nx in
  let ts_at = d_at + de.e_nx in
  let td_at = ts_at + t in
  let total = td_at + t in
  let place_s = place ~np ~ni:nsi ~iters_at:np ~extra_at:s_at in
  let place_d = place ~np ~ni:ndi ~iters_at:(np + nsi) ~extra_at:d_at in
  (* time column k equals its slot: a constant or the (lifted) dim column *)
  let links desc time_at place =
    List.rev
      (List.init t (fun k ->
           match desc.(k) with
           | Fixed v -> row ~total [ (0, -v); (time_at + k + 1, 1) ]
           | Column j -> row ~total [ (time_at + k + 1, 1); (place j + 1, -1) ]))
  in
  let lift = lift_rows ~total in
  let base =
    Poly.make total
      ~eqs:
        (links d_desc td_at place_d @ links s_desc ts_at place_s
        @ lift place_d de.e_eqs @ lift place_s se.e_eqs)
      ~ineqs:(lift place_d de.e_ineqs @ lift place_s se.e_ineqs)
  in
  let pieces =
    List.map
      (fun rp ->
        Poly.intersect base
          (Poly.insert_vars rp ~at:(np + nsi + ndi) ~count:(total - np - nsi - ndi)))
      d.rel
  in
  { pieces; s_desc; d_desc; t; total; ts0 = ts_at + 1; td0 = td_at + 1 }

let profile_pieces fn d =
  let endpoint = endpoints ~params:fn.params in
  (frame ~params:fn.params ~src:(endpoint d.src) ~dst:(endpoint d.dst) d).pieces

(* A carried-dependence question: asked at most once, when a fold first
   meets an order-relaxing tag at its level.  A question whose Omega run
   raised (a spent work budget) stays unasked, so a later fold asks it
   again. *)
type question = Answered of bool | Pending of (unit -> bool)

type levels = { gt : bool array; lt : question array; all_eq : bool }

let carried lv k =
  match lv.lt.(k) with
  | Answered b -> b
  | Pending ask ->
      let b = ask () in
      lv.lt.(k) <- Answered b;
      b

let profile ~params ~src ~dst (d : dep) =
  let fr = frame ~params ~src ~dst d in
  let t = fr.t and total = fr.total in
  let nonempty p = not (Poly.is_empty p) in
  let sat prefix r = List.exists (fun p -> nonempty (Poly.add_ineq p r)) prefix in
  (* ts_k > td_k and ts_k < td_k, as [>= 0] rows *)
  let later k = row ~total [ (0, -1); (fr.ts0 + k, 1); (fr.td0 + k, -1) ] in
  let earlier k = row ~total [ (0, -1); (fr.td0 + k, 1); (fr.ts0 + k, -1) ] in
  let gt = Array.make t false in
  let lt = Array.make t (Answered false) in
  (* [prefix]: the pieces of P_k, with the prefix equalities added. *)
  let rec go k prefix =
    if k = t then List.exists nonempty prefix
    else
      match (fr.s_desc.(k), fr.d_desc.(k)) with
      | Fixed a, Fixed b when a = b -> go (k + 1) prefix
      | Fixed a, Fixed b ->
          (* Distinct static positions: P_(k+1) is empty. *)
          if a > b then gt.(k) <- sat prefix (later k)
          else lt.(k) <- Pending (fun () -> sat prefix (earlier k));
          false
      | _ ->
          gt.(k) <- sat prefix (later k);
          lt.(k) <- Pending (fun () -> sat prefix (earlier k));
          let same = row ~total [ (fr.ts0 + k, 1); (fr.td0 + k, -1) ] in
          go (k + 1) (List.map (fun p -> Poly.add_eq p same) prefix)
  in
  let all_eq = go 0 fr.pieces in
  { gt; lt; all_eq }

(* The violations of dependence [d] with level profile [lv] under [tags],
   lazily and in level order: a caller that only asks whether there is one
   stops at the first.  A level the mapping orders still races when the
   generated loop there runs its iterations out of order (parallel, vector
   lanes, gpu, distributed) and the dependence is carried there. *)
let violations ~tags d lv =
  let relaxed k =
    relaxes_order (tags d.src.comp_name k) || relaxes_order (tags d.dst.comp_name k)
  in
  let at k =
    if lv.gt.(k) then Some (Order { dep = d; level = k; carried = false })
    else if relaxed k && carried lv k then Some (Order { dep = d; level = k; carried = true })
    else None
  in
  let t = Array.length lv.gt in
  Seq.append
    (Seq.filter_map at (Seq.init t Fun.id))
    (if lv.all_eq then Seq.return (Order { dep = d; level = t; carried = false }) else Seq.empty)

(* ---------- The per-search memo ----------

   Flow dependences depend only on the algorithm (domains, expressions,
   inlining), and a profile only on its dependence and on both endpoints'
   rows and time descriptions.  A memo is bound to one algorithm: it holds
   the flow dependences of the function it was made from, computed on
   first use, and every profile asked through it, keyed by the
   dependence's index among them and both endpoints' keys.  Handed a
   function, it checks that the function is that algorithm (same
   computations, in the same order, with the same iterators, domains,
   expressions and inlining) and rebinds each dependence to the
   function's own computations.  A hit asks Omega nothing. *)
type memo = {
  m_fn : fn;
  mutable m_deps : (int * int * dep) list option;
      (* the dependences, with the positions of their endpoints in
         [m_fn.comps] *)
  m_profiles : (int * string * string, levels) Hashtbl.t;
  m_covered : (string * string, bool) Hashtbl.t;
      (* [compute_at_covered] by producer and consumer: it reads neither
         schedule nor level *)
  mutable m_hits : int;
  mutable m_misses : int;
}

let memo fn =
  { m_fn = fn; m_deps = None; m_profiles = Hashtbl.create 64;
    m_covered = Hashtbl.create 8; m_hits = 0; m_misses = 0 }
let memo_hits m = m.m_hits
let memo_misses m = m.m_misses

let same_algorithm a b =
  a == b
  || a.fn_name = b.fn_name && a.params = b.params
     && List.length a.comps = List.length b.comps
     && List.for_all2
          (fun (x : computation) (y : computation) ->
            x.comp_name = y.comp_name
            && (x.kind = Regular) = (y.kind = Regular)
            && x.inlined = y.inlined && x.iters = y.iters && x.domain = y.domain
            && compare x.expr y.expr = 0)
          a.comps b.comps

(* [fn]'s flow dependences through [m], each with its index. *)
let memo_deps m fn =
  if not (same_algorithm m.m_fn fn) then
    invalid_arg ("Deps: a dependence memo of another algorithm than " ^ fn.fn_name);
  let deps =
    match m.m_deps with
    | Some l -> l
    | None ->
        let pos (c : computation) =
          let rec go i = function
            | x :: rest -> if x == c then i else go (i + 1) rest
            | [] -> invalid_arg "Deps.memo_deps"
          in
          go 0 m.m_fn.comps
        in
        let l = List.map (fun d -> (pos d.src, pos d.dst, d)) (flow_deps m.m_fn) in
        m.m_deps <- Some l;
        l
  in
  let comps = Array.of_list fn.comps in
  List.mapi (fun i (s, t, d) -> (i, { d with src = comps.(s); dst = comps.(t) })) deps

(* Flow dependences between computations outside any [compute_at], each
   with its index among all of them. *)
let checked_deps ?memo fn =
  let deps =
    match memo with
    | None -> List.mapi (fun i d -> (i, d)) (flow_deps fn)
    | Some m -> memo_deps m fn
  in
  List.filter (fun (_, d) -> d.src.computed_at = None && d.dst.computed_at = None) deps

(* The profile of the [i]-th dependence [d], through the memo when there
   is one.  A profile is stored only once it is complete. *)
let levels ?memo ~params endpoint i d =
  let src = endpoint d.src and dst = endpoint d.dst in
  match memo with
  | None -> profile ~params ~src ~dst d
  | Some m -> (
      let key = (i, Lazy.force src.e_key, Lazy.force dst.e_key) in
      match Hashtbl.find_opt m.m_profiles key with
      | Some lv ->
          m.m_hits <- m.m_hits + 1;
          lv
      | None ->
          let lv = profile ~params ~src ~dst d in
          m.m_misses <- m.m_misses + 1;
          Hashtbl.add m.m_profiles key lv;
          lv)

let check_legality ?memo fn =
  let tags, conflicts = effective_tags fn in
  let endpoint = endpoints ~params:fn.params in
  conflicts
  @ List.concat_map
      (fun (i, d) ->
        List.of_seq (violations ~tags d (levels ?memo ~params:fn.params endpoint i d)))
      (checked_deps ?memo fn)

let compute_at_covered fn (p : computation) =
  match p.computed_at with
  | None -> true
  | Some (consumer, _) ->
      (* Every index the consumer reads must lie in the producer's domain
         (the footprint construction then covers it in the same tile). *)
      let params = fn.params in
      let coords = List.map sren p.iters in
      let at = List.length params + List.length coords in
      let dom = Iset.rename_vars p.domain coords in
      List.for_all
        (fun (name, idx) ->
          name <> p.comp_name
          ||
          let reads =
            List.map
              (fun r -> fst (Poly.project_out r ~at ~count:(List.length consumer.iters)))
              (relation ~params ~src_domain:false p consumer
                 (read_links ~params p consumer idx))
          in
          Iset.subset (Iset.of_polys (Space.set_space ~params coords) reads) dom)
        (Expr.accesses (Lower.expand fn consumer.expr))

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

let pp_violation ppf = function
  | Order { dep; level; carried = true } ->
      Format.fprintf ppf "%a carried by an order-relaxing (parallel/vector) loop at level %d"
        pp_dep dep level
  | Order { dep; level; carried = false } ->
      Format.fprintf ppf "%a violated at level %d" pp_dep dep level
  | Tag_conflict { comps; level; tags } ->
      Format.fprintf ppf "conflicting hardware tags (%s) on the loop at level %d shared by %s"
        (String.concat ", " (List.map LT.tag_name tags))
        level (String.concat ", " comps)

(* The one-call legality oracle: flow-dependence preservation under the
   current schedules plus coverage of every [compute_at] producer.  This is
   what the differential fuzzer runs before executing a randomly scheduled
   pipeline — an [Error] means the schedule must not be executed. *)
let legal_under_schedule ?memo fn =
  let viols = check_legality ?memo fn in
  (* [check_legality] has checked the memo's algorithm *)
  let covered (c : computation) =
    match (memo, c.computed_at) with
    | Some m, Some (consumer, _) -> (
        let key = (c.comp_name, consumer.comp_name) in
        match Hashtbl.find_opt m.m_covered key with
        | Some b -> b
        | None ->
            let b = compute_at_covered fn c in
            Hashtbl.add m.m_covered key b;
            b)
    | _ -> compute_at_covered fn c
  in
  let uncovered =
    List.filter (fun (c : computation) -> c.computed_at <> None && not (covered c)) fn.comps
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
   [flow_deps] runs at most once, on the first trial (a function with no
   parallel band to grow runs none and analyses nothing), and each
   dependence is profiled once, on its first trial; a trial is then a fold
   of the profiles with the trial's effective tags, and asks Omega only for
   an [lt] level no earlier trial relaxed.
   On a 2-CPU x86-64 VM, sgemm's [tuned] schedule widens in 6-9 ms; it
   took 530-590 ms when every new tag signature re-ran the per-level
   queries with the row-copying equality elimination.

   Each trial runs on [trial_fuel] (see {!Tiramisu_support.Limits}): a
   trial's queries grow with stacked splits and unrolls and with the number
   of dependences it profiles, and
   widening is only an optimization — the schedule as written already
   passed legality — so a trial over budget hands its tag back and ends
   the widening, keeping the dims already proved legal.  Over the 7884
   trials of fuzz seeds 1–20000 the largest used 591 units (99.9% under
   490), over every CLI kernel x schedule 764; no trial of generator seeds
   10000–99999 runs over.  A reduction tiled three times over asks one
   Fourier–Motzkin step for about 2.1 million pairs on its eighth trial
   (pinned in the fuzz tests). *)
let trial_fuel = 1_000_000

let widen_parallel fn =
  let profiles =
    lazy
      (let endpoint = endpoints ~params:fn.params in
       List.map
         (fun (_, d) -> (d, lazy (profile ~params:fn.params ~src:(endpoint d.src) ~dst:(endpoint d.dst) d)))
         (checked_deps fn))
  in
  let all_legal () =
    let tags, conflicts = effective_tags fn in
    conflicts = []
    && List.for_all
         (fun (d, p) -> Seq.is_empty (violations ~tags d (Lazy.force p)))
         (Lazy.force profiles)
  in
  let widened = ref [] in
  let undos = ref [] in
  let spent = ref false in
  let try_widen (c : computation) (d : dim) =
    (not !spent) && d.d_tag = LT.Seq
    && begin
         d.d_tag <- LT.Parallel;
         (* the first trial also runs the dependence analysis, which may
            raise: hand the tags back as they were *)
         let legal =
           try Tiramisu_support.Limits.with_fuel trial_fuel all_legal
           with e ->
             d.d_tag <- LT.Seq;
             List.iter (fun f -> f ()) !undos;
             raise e
         in
         match legal with
         | Some true ->
             widened := (c.comp_name, d.d_name) :: !widened;
             undos := (fun () -> d.d_tag <- LT.Seq) :: !undos;
             true
         | Some false ->
             d.d_tag <- LT.Seq;
             false
         | None ->
             d.d_tag <- LT.Seq;
             spent := true;
             false
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
  (ws, !spent, fun () -> List.iter (fun f -> f ()) undo_list)
