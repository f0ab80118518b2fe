(* Compile-time parallel planning (OpenMP collapse-style coalescing).

   The pool runtime used to decide parallel granularity per loop entry with
   a runtime heuristic — which, on the bench kernels, demoted every
   [Parallel] loop because a single tiled outer loop (6–16 entries) never
   clears the fork/join break-even on its own.  Tiramisu makes granularity
   a compile-time scheduling decision over polyhedral domains; this pass
   implements that decision on the lowered loop IR:

   - the trip count of a run of perfectly-nested [Parallel] loops is
     computed exactly with {!Tiramisu_presburger.Poly.card} (bounds are
     turned into constraint rows; [max]-of-affine lower bounds and
     [min]-of-affine upper bounds split into one row per argument, so tile
     scaffolding stays exact);
   - adjacent [Parallel] levels with constant bounds are coalesced into a
     single parallel loop over the product domain ([collapse]): the fused
     loop iterates [0 .. Πnᵢ-1] and single-trip binder loops recover each
     original variable as [lᵢ + (fused / strideᵢ) mod nᵢ], preserving the
     affine addressing and tape claims of everything below;
   - loops whose whole subtree carries less estimated work than
     [min_work] per worker are serialized outright (the plan, not the
     runtime, says no: the executor forks every loop the plan keeps);
   - [Parallel] loops nested under a kept parallel loop are retagged [Seq]
     (the backend would run them inline anyway; the retag keeps their
     nests tape-claimable, since the tape accepts [Parallel] tags only as
     a prefix of a nest).

   The pass is shape-preserving from the executor's point of view: binder
   loops are ordinary [For]s with equal bounds, so the interpreter, the
   closure compiler and the C emitter need no new cases. *)

module L = Loop_ir
module Poly = Tiramisu_presburger.Poly

type decision = {
  d_var : string;              (* outermost loop var the decision is about *)
  d_action :
    [ `Coalesce of string list | `Keep | `Keep_tape of string list
    | `Serialize ];
  d_trip : int option;         (* parallel-chain trip count (card) *)
  d_trip_exact : bool;
  d_per_worker : int;          (* estimated work units per worker *)
  d_uniform : bool;            (* per-entry work independent of the index *)
}

type report = {
  r_parallel : int;            (* parallel loops kept (fused groups count 1) *)
  r_coalesced : int;           (* fused groups emitted *)
  r_fused_levels : int;        (* original loops folded into fused groups *)
  r_serialized : int;          (* top-level Parallel subtrees demoted *)
  r_retagged : int;            (* nested Parallel loops retagged Seq *)
  r_decisions : decision list; (* outermost-first *)
}

let empty_report =
  { r_parallel = 0; r_coalesced = 0; r_fused_levels = 0; r_serialized = 0;
    r_retagged = 0; r_decisions = [] }

let decision_str d =
  let action =
    match d.d_action with
    | `Coalesce vs -> Printf.sprintf "coalesce[%s]" (String.concat "+" vs)
    | `Keep -> "parallel"
    | `Keep_tape vs -> Printf.sprintf "tape[%s]" (String.concat "+" vs)
    | `Serialize -> "serialize"
  in
  Printf.sprintf "%s %s trip=%s%s work/worker=%d %s" action d.d_var
    (match d.d_trip with Some n -> string_of_int n | None -> "?")
    (if d.d_trip_exact then "" else "~")
    d.d_per_worker
    (if d.d_uniform then "uniform" else "irregular")

(* ---------- static work estimate ---------- *)

(* Below roughly this many estimated work units (≈ executed statements)
   per worker, a parallel loop is cheaper to run sequentially than to fork
   across the pool: the wakeup broadcast, range hand-off and per-range
   register-file setup cost a few microseconds each, and a work unit costs
   on the order of 0.1 µs through the compiled drivers. *)
let min_work = 4_000

let rec est_int env (e : L.expr) : int =
  match e with
  | L.Int n -> n
  | L.Float f -> int_of_float f
  | L.Var v -> ( match Hashtbl.find_opt env v with Some x -> x | None -> 0)
  | L.Neg a -> -est_int env a
  | L.Cast (_, a) -> est_int env a
  | L.Load _ | L.Call _ -> 0
  | L.Select (_, a, _) -> est_int env a
  | L.Bin (op, a, b) -> (
      let x = est_int env a and y = est_int env b in
      match op with
      | L.Add -> x + y
      | L.Sub -> x - y
      | L.Mul -> x * y
      | L.Div -> if y = 0 then 0 else x / y
      | L.FloorDiv -> if y = 0 then 0 else Tiramisu_support.Ints.fdiv x y
      | L.Mod -> if y = 0 then 0 else Tiramisu_support.Ints.emod x y
      | L.MinOp -> Int.min x y
      | L.MaxOp -> Int.max x y)

let with_var env var v f =
  let saved = Hashtbl.find_opt env var in
  Hashtbl.replace env var v;
  let r = f () in
  (match saved with
  | Some x -> Hashtbl.replace env var x
  | None -> Hashtbl.remove env var);
  r

let rec est_work env (s : L.stmt) : int =
  match s with
  | L.Block l -> List.fold_left (fun acc s -> acc + est_work env s) 0 l
  | L.Comment _ | L.Barrier -> 0
  | L.Store _ -> 1
  | L.Send _ | L.Recv _ | L.Memcpy _ -> 8
  | L.If (_, t, e) ->
      Int.max (est_work env t)
        (match e with Some e -> est_work env e | None -> 0)
  | L.Alloc { body; _ } -> 8 + est_work env body
  | L.For { var; lo; hi; body; _ } ->
      let lo = est_int env lo and hi = est_int env hi in
      let extent = Int.max 0 (hi - lo + 1) in
      if extent = 0 then 0
      else
        with_var env var
          (lo + ((extent - 1) / 2))
          (fun () -> extent * (1 + est_work env body))

(* The static-vs-dynamic shape rule: a loop whose per-entry work estimate is
   the same at both ends of its range (rectangular domains, and everything
   the planner coalesces) balances exactly under static per-worker ranges;
   anything else (triangular domains, guarded partial tiles) needs dynamic
   chunking. *)
let uniform env ~var ~lo ~hi body =
  let at x = with_var env var x (fun () -> est_work env body) in
  let lo = est_int env lo and hi = est_int env hi in
  hi < lo || at lo = at hi

(* ---------- polyhedral trip count of a parallel chain ---------- *)

(* A chain level: one loop of the perfect nest. *)
type level = { l_var : string; l_lo : L.expr; l_hi : L.expr }

(* [max]-trees on lower bounds (and [min]-trees on upper bounds) split into
   one conjunct per argument: [v >= max(a,b)] iff [v >= a && v >= b]. *)
let rec max_args (e : L.expr) =
  match e with
  | L.Bin (L.MaxOp, a, b) -> max_args a @ max_args b
  | e -> [ e ]

let rec min_args (e : L.expr) =
  match e with
  | L.Bin (L.MinOp, a, b) -> min_args a @ min_args b
  | e -> [ e ]

(* Constraint row over the chain variables for [sign·(v - e) >= 0].
   Occurrences of non-chain names take their static-estimate value, which
   keeps the row linear; the count is flagged inexact unless the name's
   value is exact (a parameter).  [None] when [e] is not affine. *)
let bound_row env ~exact_names ~vars ~nvars ~v ~sign e =
  match L.affine_terms e with
  | None -> None
  | Some (ts, c) ->
      let row = Array.make (nvars + 1) 0 in
      let inexact = ref false in
      row.(0) <- -sign * c;
      row.(v + 1) <- sign;
      List.iter
        (fun (u, a) ->
          match Hashtbl.find_opt vars u with
          | Some j -> row.(j + 1) <- row.(j + 1) - (sign * a)
          | None ->
              if not (List.mem u exact_names) then inexact := true;
              row.(0) <- row.(0) - (sign * a * est_int env (L.Var u)))
        ts;
      Some (row, not !inexact)

(* Exact cardinality of the chain's iteration domain, via {!Poly.card}.
   Returns [(count, exact)]; falls back to the product of estimated extents
   (never exact) when a bound is not affine or the count is unavailable. *)
let chain_trip env ~exact_names (levels : level list) : int option * bool =
  let nvars = List.length levels in
  let vars = Hashtbl.create 8 in
  List.iteri (fun j l -> Hashtbl.replace vars l.l_var j) levels;
  let rows = ref [] in
  let exact = ref true in
  let ok =
    List.for_all
      (fun l ->
        let v = Hashtbl.find vars l.l_var in
        let push sign e =
          match bound_row env ~exact_names ~vars ~nvars ~v ~sign e with
          | Some (row, ex) ->
              rows := row :: !rows;
              if not ex then exact := false;
              true
          | None -> false
        in
        List.for_all (push 1) (max_args l.l_lo)
        && List.for_all (push (-1)) (min_args l.l_hi))
      levels
  in
  if ok then
    match Poly.card (Poly.make nvars ~eqs:[] ~ineqs:!rows) with
    | Some n -> (Some n, !exact)
    | None -> (None, false)
  else
    (* product of midpoint extents: an estimate, never exact *)
    let n =
      List.fold_left
        (fun acc l ->
          let lo = est_int env l.l_lo and hi = est_int env l.l_hi in
          acc * Int.max 0 (hi - lo + 1))
        1 levels
    in
    (Some n, false)

(* ---------- the planning walk ---------- *)

(* Names already used anywhere in a subtree (loop vars and free names), to
   uniquify the fused binder variable. *)
let used_names (s : L.stmt) =
  let tbl = Hashtbl.create 32 in
  let add v = Hashtbl.replace tbl v () in
  let rec expr (e : L.expr) =
    match e with
    | L.Int _ | L.Float _ -> ()
    | L.Var v -> add v
    | L.Load (b, idx) -> add b; List.iter expr idx
    | L.Bin (_, a, b) -> expr a; expr b
    | L.Neg a | L.Cast (_, a) -> expr a
    | L.Select (c, a, b) -> cond c; expr a; expr b
    | L.Call (_, args) -> List.iter expr args
  and cond (c : L.cond) =
    match c with
    | L.True -> ()
    | L.Cmp (_, a, b) -> expr a; expr b
    | L.And (a, b) | L.Or (a, b) -> cond a; cond b
    | L.Not a -> cond a
  and stmt (s : L.stmt) =
    match s with
    | L.Block l -> List.iter stmt l
    | L.For { var; lo; hi; body; _ } -> add var; expr lo; expr hi; stmt body
    | L.If (c, t, e) -> cond c; stmt t; Option.iter stmt e
    | L.Store (b, idx, v) -> add b; List.iter expr idx; expr v
    | L.Alloc { buf; dims; body; _ } -> add buf; List.iter expr dims; stmt body
    | L.Barrier | L.Comment _ | L.Memcpy _ -> ()
    | L.Send { dst; buf; offset; count; _ } ->
        add buf; expr dst; List.iter expr offset; expr count
    | L.Recv { src; buf; offset; count; _ } ->
        add buf; expr src; List.iter expr offset; expr count
  in
  stmt s;
  tbl

(* Maximal run of perfectly-nested Parallel loops starting at [s]. *)
let rec parallel_chain (s : L.stmt) : (level * L.stmt) list =
  match s with
  | L.For { var; lo; hi; tag = L.Parallel; body } -> (
      let lvl = ({ l_var = var; l_lo = lo; l_hi = hi }, body) in
      match L.single_for body with
      | Some inner -> lvl :: parallel_chain inner
      | None -> [ lvl ])
  | _ -> []

let retag_seq_deep count (s : L.stmt) =
  let rec go (s : L.stmt) : L.stmt =
    match s with
    | L.Block l -> L.Block (List.map go l)
    | L.For ({ tag = L.Parallel; _ } as f) ->
        incr count;
        L.For { f with tag = L.Seq; body = go f.body }
    | L.For f -> L.For { f with body = go f.body }
    | L.If (c, t, e) -> L.If (c, go t, Option.map go e)
    | L.Alloc a -> L.Alloc { a with body = go a.body }
    | s -> s
  in
  go s

let chunks_per_worker = 4

let plan ~workers ~params ?(force = false) ?(tape = false)
    (stmt : L.stmt) : L.stmt * report =
  let env = Hashtbl.create 16 in
  List.iter (fun (p, v) -> Hashtbl.replace env p v) params;
  let exact_names = List.map fst params in
  let used = used_names stmt in
  (* parameters occupy register slots too: the fused binder must not
     shadow one *)
  List.iter (fun (p, _) -> Hashtbl.replace used p ()) params;
  let fresh_fused base =
    let rec go i =
      let cand = if i = 0 then base else Printf.sprintf "%s_%d" base i in
      if Hashtbl.mem used cand then go (i + 1)
      else begin
        Hashtbl.replace used cand ();
        cand
      end
    in
    go 0
  in
  let rep = ref empty_report in
  let note d = rep := { !rep with r_decisions = d :: !(rep).r_decisions } in
  (* Build the collapsed nest for the first [m] levels of [chain]; the body
     below level [m] is [inner] (already planned). *)
  let coalesce (chain : (level * L.stmt) list) m inner =
    let levels = List.filteri (fun i _ -> i < m) (List.map fst chain) in
    let extents =
      List.map
        (fun l ->
          match (l.l_lo, l.l_hi) with
          | L.Int a, L.Int b -> (a, Int.max 0 (b - a + 1))
          | _ -> assert false)
        levels
    in
    let total = List.fold_left (fun acc (_, n) -> acc * n) 1 extents in
    let fused = fresh_fused (String.concat "_" (List.map (fun l -> l.l_var) levels)) in
    (* strides: level i covers Π of the extents below it within the fuse *)
    let strides =
      let rec go = function
        | [] -> []
        | (_, _) :: rest as all ->
            let below =
              List.fold_left (fun acc (_, n) -> acc * n) 1 (List.tl all)
            in
            below :: go rest
      in
      go extents
    in
    let rec binders lvls exts strs =
      match (lvls, exts, strs) with
      | [], [], [] -> inner
      | l :: lvls', (lo, n) :: exts', stride :: strs' ->
          let q = L.Bin (L.FloorDiv, L.Var fused, L.Int stride) in
          let idx =
            L.simplify_expr
              (L.Bin (L.Add, L.Int lo, L.Bin (L.Mod, q, L.Int n)))
          in
          L.For
            { var = l.l_var; lo = idx; hi = idx; tag = L.Seq;
              body = binders lvls' exts' strs' }
      | _ -> assert false
    in
    (* the first binder needs no [mod]: fused/stride₀ < n₀ by construction *)
    let body =
      match (levels, extents, strides) with
      | l0 :: lvls', (lo0, _) :: exts', s0 :: strs' ->
          let idx =
            L.simplify_expr
              (L.Bin (L.Add, L.Int lo0, L.Bin (L.FloorDiv, L.Var fused, L.Int s0)))
          in
          L.For
            { var = l0.l_var; lo = idx; hi = idx; tag = L.Seq;
              body = binders lvls' exts' strs' }
      | _ -> assert false
    in
    L.For
      { var = fused; lo = L.Int 0; hi = L.Int (total - 1); tag = L.Parallel;
        body }
  in
  let rec go in_par (s : L.stmt) : L.stmt =
    match s with
    | L.Block l -> L.Block (List.map (go in_par) l)
    | L.If (c, t, e) -> L.If (c, go in_par t, Option.map (go in_par) e)
    | L.Alloc a -> L.Alloc { a with body = go in_par a.body }
    | L.For ({ tag = L.Parallel; _ } as f) when in_par ->
        (* Under a kept parallel loop the backend runs this inline; retag it
           as the ordinary sequential loop it is. *)
        rep := { !rep with r_retagged = !(rep).r_retagged + 1 };
        go in_par (L.For { f with tag = L.Seq })
    | L.For ({ tag = L.Parallel; var; lo; hi; _ } as f) -> (
        let chain = parallel_chain s in
        let levels = List.map fst chain in
        let trip, trip_exact = chain_trip env ~exact_names levels in
        let total_work =
          with_var env var 0 (fun () -> est_work env (L.For f))
        in
        let per_worker = total_work / Int.max 1 workers in
        let uniform = uniform env ~var ~lo ~hi f.body in
        if (not force) && (workers <= 1 || per_worker < min_work) then begin
          (* Not worth forking: serialize the whole subtree (anything nested
             carries even less work per entry). *)
          rep := { !rep with r_serialized = !(rep).r_serialized + 1 };
          note
            { d_var = var; d_action = `Serialize; d_trip = trip;
              d_trip_exact = trip_exact; d_per_worker = per_worker;
              d_uniform = uniform };
          retag_seq_deep (ref 0) s
        end
        else begin
          (* Fusible prefix: adjacent Parallel levels with constant bounds. *)
          let rect_prefix =
            let rec count = function
              | { l_lo = L.Int _; l_hi = L.Int _; _ } :: rest ->
                  1 + count rest
              | _ -> 0
            in
            count levels
          in
          let target = workers * chunks_per_worker in
          let m =
            if rect_prefix = 0 then 1
            else begin
              let exts =
                List.filteri (fun i _ -> i < rect_prefix) levels
                |> List.map (fun l ->
                       match (l.l_lo, l.l_hi) with
                       | L.Int a, L.Int b -> Int.max 0 (b - a + 1)
                       | _ -> assert false)
              in
              if List.exists (fun n -> n = 0) exts then 1
              else if force then rect_prefix
                (* forced (fuzzing): maximal fusion, machine-independent *)
              else
                (* fewest levels whose product already spreads the pool:
                   deeper fusion buys nothing and pays div/mod per entry *)
                let rec pick i acc = function
                  | [] -> i
                  | n :: rest ->
                      if acc >= target then i else pick (i + 1) (acc * n) rest
                in
                pick 0 1 exts
            end
          in
          let m = Int.max 1 (Int.min m rect_prefix) in
          if m >= 2 then begin
            let vars_m =
              List.filteri (fun i _ -> i < m)
                (List.map (fun l -> l.l_var) levels)
            in
            (* Predictive, not the [tape-compile] record: a retag here
               still changes [p_par], and with it the lane level. *)
            if tape && Tape_gen.claimable s then begin
              (* The tape backend linearizes the Parallel prefix itself
                 (no div/mod binder loops — which would destroy tape
                 eligibility); keep the first [m] levels as they are,
                 retag deeper Parallel levels, and let the executor's
                 fused split do the collapse. *)
              let rec keep_chain k (t : L.stmt) : L.stmt =
                if k = 0 then retag_seq_deep_counted t
                else
                  match t with
                  | L.For ({ tag = L.Parallel; _ } as f) ->
                      L.For { f with body = keep_chain (k - 1) f.body }
                  | L.Block l -> L.Block (List.map (keep_chain k) l)
                  | t -> t
              in
              rep :=
                { !rep with
                  r_parallel = !(rep).r_parallel + 1;
                  r_fused_levels = !(rep).r_fused_levels + m };
              note
                { d_var = var; d_action = `Keep_tape vars_m; d_trip = trip;
                  d_trip_exact = trip_exact; d_per_worker = per_worker;
                  d_uniform = uniform };
              keep_chain m s
            end
            else begin
              let inner_before = snd (List.nth chain (m - 1)) in
              let inner = retag_seq_deep_counted inner_before in
              rep :=
                { !rep with
                  r_parallel = !(rep).r_parallel + 1;
                  r_coalesced = !(rep).r_coalesced + 1;
                  r_fused_levels = !(rep).r_fused_levels + m };
              note
                { d_var = var; d_action = `Coalesce vars_m; d_trip = trip;
                  d_trip_exact = trip_exact; d_per_worker = per_worker;
                  d_uniform = uniform };
              coalesce chain m inner
            end
          end
          else begin
            rep := { !rep with r_parallel = !(rep).r_parallel + 1 };
            note
              { d_var = var; d_action = `Keep; d_trip = trip;
                d_trip_exact = trip_exact; d_per_worker = per_worker;
                d_uniform = uniform };
            let elo = est_int env lo and ehi = est_int env hi in
            L.For
              { f with
                body =
                  with_var env var
                    (elo + (Int.max 0 (ehi - elo) / 2))
                    (fun () -> go true f.body) }
          end
        end)
    | L.For f ->
        let lo = est_int env f.lo and hi = est_int env f.hi in
        L.For
          { f with
            body =
              with_var env f.var
                (lo + (Int.max 0 (hi - lo) / 2))
                (fun () -> go in_par f.body) }
    | s -> s
  and retag_seq_deep_counted s =
    let c = ref 0 in
    let s' = retag_seq_deep c s in
    rep := { !rep with r_retagged = !(rep).r_retagged + !c };
    s'
  in
  let planned = go false stmt in
  let r = !rep in
  (planned, { r with r_decisions = List.rev r.r_decisions })

let report_str r =
  Printf.sprintf
    "parallel=%d coalesced=%d fused_levels=%d serialized=%d retagged=%d%s"
    r.r_parallel r.r_coalesced r.r_fused_levels r.r_serialized r.r_retagged
    (match r.r_decisions with
    | [] -> ""
    | ds ->
        "; " ^ String.concat "; " (List.map decision_str ds))
