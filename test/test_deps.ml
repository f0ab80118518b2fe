(* Dependence analysis and legality tests (paper §II, Table I rows "Exact
   dependence analysis" / "Compile-time set emptiness check" / "Expressing
   cyclic data-flow graphs"). *)

open Tiramisu_presburger
open Tiramisu_core
module D = Tiramisu_deps.Deps

let a = Aff.var
let c0 = Aff.const

let make_blur () =
  let f = Tiramisu.create ~params:[ "N"; "M" ] "blur" in
  let i = Tiramisu.var "i" (c0 0) Aff.(a "N" - c0 2) in
  let iby = Tiramisu.var "i" (c0 0) Aff.(a "N" - c0 4) in
  let j = Tiramisu.var "j" (c0 0) Aff.(a "M" - c0 2) in
  let inp =
    Tiramisu.input f "input"
      [ Tiramisu.var "i" (c0 0) (a "N"); Tiramisu.var "j" (c0 0) (a "M") ]
  in
  let open Expr in
  let open Tiramisu in
  let bx =
    comp f "bx" [ i; j ]
      (((inp $ [ x i; x j ]) +: (inp $ [ x i; x j +: int 1 ])) /: float 2.0)
  in
  let by =
    comp f "by" [ iby; j ]
      (((bx $ [ x iby; x j ]) +: (bx $ [ x iby +: int 2; x j ])) /: float 2.0)
  in
  (f, inp, bx, by)

(* A stencil with a self-dependence of distance (1, -1):
   s(i,j) = s(i-1, j+1) + 1. *)
let make_skewed_stencil () =
  let f = Tiramisu.create ~params:[ "N" ] "stencil" in
  let i = Tiramisu.var "i" (c0 1) (a "N") in
  let j = Tiramisu.var "j" (c0 0) Aff.(a "N" - c0 1) in
  let s =
    Tiramisu.comp f "s" [ i; j ]
      Expr.(int 1)
  in
  (* Self-access: s(i,j) reads s(i-1, j+1) where defined. *)
  s.Ir.expr <-
    Ir.Bin_e
      ( Ir.Add,
        Ir.Access_e
          ("s", Expr.[ iter "i" -: int 1; iter "j" +: int 1 ]),
        Ir.Int_e 1 );
  (f, s)

let tests =
  [
    Alcotest.test_case "blur flow deps found" `Quick (fun () ->
        let f, _, bx, by = make_blur () in
        let deps = D.flow_deps f in
        Alcotest.(check int) "one dep (bx->by twice merged per access)" 2
          (List.length deps);
        List.iter
          (fun d ->
            Alcotest.(check string) "src" bx.Ir.comp_name d.D.src.Ir.comp_name;
            Alcotest.(check string) "dst" by.Ir.comp_name d.D.dst.Ir.comp_name)
          deps);
    Alcotest.test_case "default blur schedule is legal" `Quick (fun () ->
        let f, _, _, _ = make_blur () in
        Alcotest.(check int) "no violations" 0
          (List.length (D.check_legality f)));
    Alcotest.test_case "consumer before producer is illegal" `Quick
      (fun () ->
        let f, _, bx, by = make_blur () in
        Tiramisu.before by bx Tiramisu.root;
        Alcotest.(check bool) "violations found" true
          (D.check_legality f <> []));
    Alcotest.test_case "interchange of independent dims is legal" `Quick
      (fun () ->
        let f, _, bx, by = make_blur () in
        Tiramisu.interchange bx "i" "j";
        Tiramisu.interchange by "i" "j";
        Alcotest.(check int) "no violations" 0
          (List.length (D.check_legality f)));
    Alcotest.test_case "self-dependence (1,-1): interchange illegal" `Quick
      (fun () ->
        let f, s = make_skewed_stencil () in
        Alcotest.(check int) "legal before" 0
          (List.length (D.check_legality f));
        Tiramisu.interchange s "i" "j";
        Alcotest.(check bool) "illegal after interchange" true
          (D.check_legality f <> []));
    Alcotest.test_case "self-dependence (1,-1): skewing makes interchange \
                        legal" `Quick (fun () ->
        (* Skew j by 2i: dep distance becomes (1, 1); interchange is then
           legal. This is the affine transformation Halide cannot express. *)
        let f, s = make_skewed_stencil () in
        Tiramisu.skew s "i" "j" 2;
        Tiramisu.interchange s "i" "j";
        Alcotest.(check int) "legal after skew+interchange" 0
          (List.length (D.check_legality f)));
    Alcotest.test_case "vectorizing the dependent dim is illegal-free \
                        (loop preserved)" `Quick (fun () ->
        let f, _, _, by = make_blur () in
        Tiramisu.vectorize by "j" 4;
        Alcotest.(check int) "no violations" 0
          (List.length (D.check_legality f)));
    Alcotest.test_case "cyclic dataflow detected (edgeDetector shape)" `Quick
      (fun () ->
        let f = Tiramisu.create ~params:[ "N" ] "edge" in
        let i = Tiramisu.var "i" (c0 1) Aff.(a "N" - c0 1) in
        let j = Tiramisu.var "j" (c0 1) Aff.(a "N" - c0 1) in
        let r = Tiramisu.comp f "r" [ i; j ] Expr.(int 0) in
        let img = Tiramisu.comp f "img" [ i; j ] Expr.(int 0) in
        (* R reads Img, Img reads R: cyclic. *)
        r.Ir.expr <- Ir.Access_e ("img", Expr.[ iter "i"; iter "j" ]);
        img.Ir.expr <- Ir.Access_e ("r", Expr.[ iter "i"; iter "j" ]);
        Alcotest.(check bool) "cycle" true (D.has_cycle f));
    Alcotest.test_case "blur dataflow is acyclic" `Quick (fun () ->
        let f, _, _, _ = make_blur () in
        Alcotest.(check bool) "no cycle" false (D.has_cycle f));
    Alcotest.test_case "memory deps: two writers, one buffer" `Quick
      (fun () ->
        let f = Tiramisu.create ~params:[ "N" ] "two_writers" in
        let i = Tiramisu.var "i" (c0 0) (a "N") in
        let s1 = Tiramisu.comp f "s1" [ i ] Expr.(int 1) in
        let s2 = Tiramisu.comp f "s2" [ i ] Expr.(int 2) in
        let b = Tiramisu.buffer f "shared" [ a "N" ] in
        Tiramisu.store_in s1 b [ a "i" ];
        Tiramisu.store_in s2 b [ a "i" ];
        let deps = D.memory_deps f in
        let outputs = List.filter (fun d -> d.D.kind = D.Output) deps in
        (* s1/s1, s1/s2, s2/s1, s2/s2 all write the same elements. *)
        Alcotest.(check int) "output deps" 4 (List.length outputs));
    Alcotest.test_case "compute_at coverage holds for blur" `Quick (fun () ->
        let f, _, bx, by = make_blur () in
        Tiramisu.tile by "i" "j" 4 4 "i0" "j0" "i1" "j1";
        Tiramisu.compute_at bx by "j0";
        Alcotest.(check bool) "covered" true (D.compute_at_covered f bx));
    Alcotest.test_case "dependence is exact: no dep between disjoint \
                        regions" `Quick (fun () ->
        (* w writes rows 0..N/2-1; r reads rows N/2..N-1: no flow dep
           (requires exact emptiness over integers). *)
        let f = Tiramisu.create ~params:[] "disjoint" in
        let iw = Tiramisu.var "i" (c0 0) (c0 8) in
        let ir = Tiramisu.var "i" (c0 8) (c0 16) in
        let w = Tiramisu.comp f "w" [ iw ] Expr.(int 1) in
        let r = Tiramisu.comp f "r" [ ir ] Expr.(int 0) in
        r.Ir.expr <- Ir.Access_e ("w", [ Ir.Iter_e "i" ]);
        ignore w;
        (* read of w at i in [8,16) is outside w's domain [0,8): dep empty *)
        Alcotest.(check int) "no deps" 0 (List.length (D.flow_deps f)));
  ]

(* ---------- level profile = per-level queries ----------

   [check_legality] and [widen_parallel] fold one level profile per
   dependence with the tags.  The reference below is the loop the profile
   replaced: every call asks Omega one question per time level (plus the
   carried question at every order-relaxing level, plus the all-equal one),
   with no memo.  Both must report the same violations under every tag
   assignment the widening tries, and the widening must accept the same
   dims as a greedy loop driven by the reference. *)

module LT = Tiramisu_codegen.Loop_ir

let sren x = "s@" ^ x
let dren x = "d@" ^ x

let rename_cstr ~params f =
  Cstr.map (fun e -> Aff.subst e (fun n -> if List.mem n params then None else Some (Aff.var (f n))))

let time_desc (c : Ir.computation) =
  List.map
    (fun (d : Ir.dim) ->
      match d.Ir.d_kind with Ir.Static v -> `Const (2 * v) | Ir.Dyn -> `Col d.Ir.d_col)
    c.Ir.sched.Ir.dims

let relaxes_order = function LT.Seq | LT.Unrolled -> false | _ -> true

(* (level, carried) for every violation of [d], in level order. *)
let reference_dep ~tags ~params (d : D.dep) =
  let src = d.D.src and dst = d.D.dst in
  let s_desc = time_desc src and d_desc = time_desc dst in
  let t = max (List.length s_desc) (List.length d_desc) in
  let pad desc = desc @ List.init (t - List.length desc) (fun _ -> `Const 0) in
  let s_desc = pad s_desc and d_desc = pad d_desc in
  let s_iters = List.map sren src.Ir.iters and d_iters = List.map dren dst.Ir.iters in
  let extra f (c : Ir.computation) =
    List.map f (c.Ir.sched.Ir.inter @ List.map (fun (dd : Ir.dim) -> dd.Ir.d_col) c.Ir.sched.Ir.dims)
  in
  let ts = List.init t (Printf.sprintf "ts$%d") and td = List.init t (Printf.sprintf "td$%d") in
  let cols =
    Array.of_list (params @ s_iters @ d_iters @ extra sren src @ extra dren dst @ ts @ td)
  in
  let total = Array.length cols in
  let lead = List.length params + List.length s_iters + List.length d_iters in
  let add = Poly.add_cstr ~cols in
  let base =
    List.fold_left add (Poly.universe total)
      (List.map (rename_cstr ~params sren) src.Ir.sched.Ir.cstrs
      @ List.map (rename_cstr ~params dren) dst.Ir.sched.Ir.cstrs)
  in
  let link base tdesc names f =
    List.fold_left2
      (fun acc slot name ->
        match slot with
        | `Const v -> add acc (Cstr.Eq (a name, c0 v))
        | `Col col -> add acc (Cstr.Eq (a name, a (f col))))
      base tdesc names
  in
  let base = link (link base s_desc ts sren) d_desc td dren in
  let satisfiable cstrs =
    List.exists
      (fun rp ->
        let lifted = Poly.insert_vars rp ~at:lead ~count:(total - lead) in
        not (Poly.is_empty (Poly.intersect (List.fold_left add base cstrs) lifted)))
      d.D.rel
  in
  let eq m = Cstr.Eq (a (List.nth ts m), a (List.nth td m)) in
  let levels =
    List.concat
      (List.init t (fun k ->
           let prefix = List.init k eq in
           let tk = a (List.nth ts k) and dk = a (List.nth td k) in
           if satisfiable (prefix @ [ Cstr.Gt (tk, dk) ]) then [ (k, false) ]
           else if
             (relaxes_order (tags src.Ir.comp_name k) || relaxes_order (tags dst.Ir.comp_name k))
             && satisfiable (prefix @ [ Cstr.Lt (tk, dk) ])
           then [ (k, true) ]
           else []))
  in
  if satisfiable (List.init t eq) then levels @ [ (t, false) ] else levels

let violation_key = function
  | D.Order { dep; level; carried } ->
      `Order (dep.D.src.Ir.comp_name, dep.D.dst.Ir.comp_name, level, carried)
  | D.Tag_conflict { comps; level; _ } -> `Conflict (comps, level)

(* Tag conflicts come from [effective_tags] on both sides: the reference
   re-derives only the dependence violations. *)
let reference_check fn =
  let tags, conflicts = D.effective_tags fn in
  List.map violation_key conflicts
  @ List.concat_map
      (fun (d : D.dep) ->
        if d.D.src.Ir.computed_at <> None || d.D.dst.Ir.computed_at <> None then []
        else
          List.map
            (fun (level, carried) ->
              `Order (d.D.src.Ir.comp_name, d.D.dst.Ir.comp_name, level, carried))
            (reference_dep ~tags ~params:fn.Ir.params d))
      (D.flow_deps fn)

(* The greedy widening loop, vetted by [reference_check]; every trial also
   compares [check_legality]'s violations with the reference's.  Tags are
   restored before returning.  Returns the widened dims and the number of
   checks, the schedule as given included. *)
let reference_widen ~label fn =
  let trials = ref 0 in
  let legal () =
    let want = reference_check fn in
    let got = List.map violation_key (D.check_legality fn) in
    if got <> want then
      Alcotest.failf "%s, trial %d: profile reports %d violations, the per-level loop %d" label
        !trials (List.length got) (List.length want);
    incr trials;
    want = []
  in
  (* Trial 0: the schedule as given. *)
  ignore (legal ());
  let widened = ref [] and undos = ref [] in
  let try_widen (c : Ir.computation) (d : Ir.dim) =
    d.Ir.d_tag = LT.Seq
    && begin
         d.Ir.d_tag <- LT.Parallel;
         if legal () then begin
           widened := (c.Ir.comp_name, d.Ir.d_name) :: !widened;
           undos := (fun () -> d.Ir.d_tag <- LT.Seq) :: !undos;
           true
         end
         else begin
           d.Ir.d_tag <- LT.Seq;
           false
         end
       end
  in
  List.iter
    (fun (c : Ir.computation) ->
      if c.Ir.kind = Ir.Regular && (not c.Ir.inlined) && c.Ir.computed_at = None then begin
        let dyns = Array.of_list (Ir.dyn_dims c.Ir.sched) in
        let n = Array.length dyns in
        match List.find_opt (fun i -> dyns.(i).Ir.d_tag = LT.Parallel) (List.init n Fun.id) with
        | None -> ()
        | Some p ->
            let i = ref (p - 1) in
            while !i >= 0 && try_widen c dyns.(!i) do decr i done;
            let q = ref p in
            while !q + 1 < n && dyns.(!q + 1).Ir.d_tag = LT.Parallel do incr q done;
            let j = ref (!q + 1) in
            while !j < n && try_widen c dyns.(!j) do incr j done
      end)
    fn.Ir.comps;
  List.iter (fun f -> f ()) !undos;
  (List.rev !widened, !trials)

let cli_kernels =
  let module K = Tiramisu_kernels in
  [ ("blur/cpu", (fun () -> let f, _, _ = K.Image.blur () in f), fun f -> K.Schedules.cpu_blur f);
    ("cvtColor/cpu", (fun () -> fst (K.Image.cvt_color ())), K.Schedules.cpu_cvt_color);
    ("conv2D/cpu", (fun () -> let f, _, _ = K.Image.conv2d () in f), K.Schedules.cpu_conv2d);
    ("warpAffine/cpu", (fun () -> fst (K.Image.warp_affine ())), K.Schedules.cpu_warp_affine);
    ("gaussian/cpu", (fun () -> let f, _, _ = K.Image.gaussian () in f), K.Schedules.cpu_gaussian);
    ("nb/cpu", (fun () -> let f, _, _, _, _ = K.Image.nb () in f), K.Schedules.cpu_nb ~fuse:true);
    ( "nb/cpu-unfused",
      (fun () -> let f, _, _, _, _ = K.Image.nb () in f),
      K.Schedules.cpu_nb ~fuse:false );
    ( "edgeDetector/cpu",
      (fun () -> let f, _, _ = K.Image.edge_detector () in f),
      K.Schedules.cpu_edge_detector );
    ("ticket2373/cpu", (fun () -> fst (K.Image.ticket2373 ())), K.Schedules.cpu_ticket2373);
    ("sgemm/tuned", (fun () -> let f, _, _ = K.Linalg.sgemm () in f), fun f -> K.Linalg.sgemm_tuned f);
    ("hpcg/cpu", (fun () -> fst (K.Linalg.hpcg ())), K.Linalg.hpcg_schedule);
    ("baryon/cpu", (fun () -> let f, _, _ = K.Linalg.baryon () in f), K.Linalg.baryon_schedule) ]

(* Same trials, same verdicts, same widened dims; the user's tags come back. *)
let check_widening ~label fn =
  let tags_of () =
    List.concat_map
      (fun (c : Ir.computation) -> List.map (fun (d : Ir.dim) -> d.Ir.d_tag) c.Ir.sched.Ir.dims)
      fn.Ir.comps
  in
  let before = tags_of () in
  let want, trials = reference_widen ~label fn in
  let got, spent, undo = D.widen_parallel fn in
  undo ();
  Alcotest.(check bool) (label ^ ": every trial within its budget") false spent;
  Alcotest.(check (list (pair string string))) (label ^ ": widened dims") want got;
  Alcotest.(check bool) (label ^ ": tags restored") true (tags_of () = before);
  trials

let equivalence_tests =
  [
    Alcotest.test_case "level profile = per-level queries on every CLI kernel" `Quick (fun () ->
        let trials =
          List.fold_left
            (fun acc (label, build, sched) ->
              let f = build () in
              sched f;
              acc + check_widening ~label f - 1)
            0 cli_kernels
        in
        Alcotest.(check bool) "the widening tried some tag assignment" true (trials > 0));
    Alcotest.test_case "level profile = per-level queries on fuzz seeds 1-300" `Quick (fun () ->
        let module Fz = Tiramisu_fuzz in
        let widening_trials = ref 0 in
        for s = 1 to 300 do
          let b = Fz.Case.build (Fz.Fuzz.gen_seed s) in
          let checks = check_widening ~label:(Printf.sprintf "fuzz seed %d" s) b.Fz.Case.fn in
          widening_trials := !widening_trials + checks - 1
        done;
        Alcotest.(check bool) "the widening tried some tag assignment" true (!widening_trials > 0));
    (* The dependences are analysed at the first widening trial: a
       function with no parallel band to grow runs none and analyses
       nothing, and one with a band analyses once, however many trials. *)
    Alcotest.test_case "no parallel band, no dependence analysis" `Quick (fun () ->
        let analyses fn =
          let before = D.flow_deps_calls () in
          let _, _, undo = D.widen_parallel fn in
          undo ();
          D.flow_deps_calls () - before
        in
        let banded_kernels = ref 0 in
        List.iter
          (fun (label, build, sched) ->
            let f = build () in
            Alcotest.(check int) (label ^ " unscheduled") 0 (analyses f);
            sched f;
            let banded =
              List.exists
                (fun (c : Ir.computation) ->
                  List.exists (fun (d : Ir.dim) -> d.Ir.d_tag = LT.Parallel) c.Ir.sched.Ir.dims)
                f.Ir.comps
            in
            if banded then incr banded_kernels;
            Alcotest.(check int) label (if banded then 1 else 0) (analyses f))
          cli_kernels;
        Alcotest.(check bool) "some schedule has a band" true (!banded_kernels > 0));
  ]

(* ---------- flow dependences inside memory dependences ----------

   On a lowered program every computation stores into a buffer, so a value
   a consumer reads from its producer is also a read of the element the
   producer wrote: each pair's flow dependences lie inside the union of its
   memory flow dependences.  The two are equal when the consumer's reads of
   the producer are affine and the producer is alone in its buffer; a
   clamped read or a shared buffer (sgemm's [c_init]/[c_upd]) only widens
   the memory side.  Both come from one constructor, so a witness of every
   flow piece is also checked against the read indices themselves. *)

(* Does the source/sink pair [point] (over [params; s@src; d@dst]) read
   the source instance one access of [src] by [dst] names: the index
   itself when affine, inside its range when clamped? *)
let reads_some_access fn (d : D.dep) point =
  let params = fn.Ir.params and src = d.D.src and dst = d.D.dst in
  let value =
    List.combine (params @ List.map sren src.Ir.iters @ List.map dren dst.Ir.iters)
      (Array.to_list point)
  in
  let at_sink e = Aff.eval e (fun n -> List.assoc (if List.mem n params then n else dren n) value) in
  List.exists
    (fun (name, idx) ->
      name = src.Ir.comp_name
      && List.for_all2
           (fun it e ->
             let s = List.assoc (sren it) value in
             match Expr.to_aff ~iters:dst.Ir.iters ~params e with
             | Some e -> s = at_sink e
             | None -> (
                 match Expr.index_range ~iters:dst.Ir.iters ~params e with
                 | Some (lo, hi) -> at_sink lo <= s && s <= at_sink hi
                 | None -> true))
           src.Ir.iters idx)
    (Expr.accesses (Lower.expand fn dst.Ir.expr))

(* Checks [fn] (lowered first, so every computation has its buffer) and
   returns how many pairs were exact and how many witnesses were read. *)
let check_flow_in_memory ~label ~at fn =
  ignore (Tiramisu_pipeline.Pipeline.lower fn);
  let params = fn.Ir.params in
  let flow = D.flow_deps fn and memory = D.memory_deps fn in
  let name (c : Ir.computation) = c.Ir.comp_name in
  let buffer (c : Ir.computation) = (Option.get c.Ir.access).Ir.acc_buf.Ir.buf_name in
  let pairs =
    List.sort_uniq compare (List.map (fun (d : D.dep) -> (name d.D.src, name d.D.dst)) flow)
  in
  List.fold_left
    (fun (exact, witnesses) (p, c) ->
      let of_pair kind deps =
        List.filter
          (fun (d : D.dep) -> d.D.kind = kind && name d.D.src = p && name d.D.dst = c)
          deps
      in
      let fdeps = of_pair D.Flow flow in
      let src = (List.hd fdeps).D.src and dst = (List.hd fdeps).D.dst in
      let space =
        Space.set_space ~params (List.map sren src.Ir.iters @ List.map dren dst.Ir.iters)
      in
      let union deps = Iset.of_polys space (List.concat_map (fun (d : D.dep) -> d.D.rel) deps) in
      let f = union fdeps and m = union (of_pair D.Flow memory) in
      let affine =
        List.for_all
          (fun (n, idx) ->
            n <> p
            || List.for_all (fun e -> Expr.to_aff ~iters:dst.Ir.iters ~params e <> None) idx)
          (Expr.accesses (Lower.expand fn dst.Ir.expr))
      in
      let alone =
        List.for_all
          (fun (w : Ir.computation) ->
            w == src || w.Ir.kind <> Ir.Regular || w.Ir.inlined || buffer w <> buffer src)
          fn.Ir.comps
      in
      let pair = Printf.sprintf "%s: %s -> %s" label p c in
      Alcotest.(check bool) (pair ^ " flow inside memory") true (Iset.subset f m);
      if affine && alone then
        Alcotest.(check bool) (pair ^ " flow = memory") true (Iset.subset m f);
      let witnesses =
        List.fold_left
          (fun n (d : D.dep) ->
            List.fold_left
              (fun n piece ->
                let piece =
                  List.fold_left
                    (fun q (i, v) -> Poly.fix_var q i (List.assoc v at))
                    piece
                    (List.mapi (fun i v -> (i, v)) params)
                in
                match Poly.sample piece with
                | None -> n
                | Some point ->
                    Alcotest.(check bool) (pair ^ " witness reads its index") true
                      (reads_some_access fn d point);
                    n + 1)
              n d.D.rel)
          witnesses fdeps
      in
      ((if affine && alone then exact + 1 else exact), witnesses))
    (0, 0) pairs

let memory_tests =
  [
    Alcotest.test_case "flow deps = memory flow deps on lowered programs" `Quick (fun () ->
        let totals (e, w) (e', w') = (e + e', w + w') in
        let f, _, _, _ = make_blur () in
        let blur = check_flow_in_memory ~label:"blur" ~at:[ ("N", 20); ("M", 16) ] f in
        let f, _ = make_skewed_stencil () in
        let stencil = check_flow_in_memory ~label:"stencil" ~at:[ ("N", 10) ] f in
        let exact, witnesses =
          List.fold_left
            (fun acc (k : Tiramisu_kernels.Catalog.kernel) ->
              List.fold_left
                (fun acc (sched, apply) ->
                  let f = k.build () in
                  apply f;
                  totals acc
                    (check_flow_in_memory ~label:(k.k_name ^ "/" ^ sched) ~at:k.params_small f))
                acc
                (k.schedules k.params_small))
            (totals blur stencil) Tiramisu_kernels.Catalog.kernels
        in
        Alcotest.(check bool) "some pair is exact" true (exact > 0);
        Alcotest.(check bool) "some witness was read" true (witnesses > 0));
  ]

(* The construction of a level profile's starting polyhedron by column
   name, the reference for [D.profile_pieces]'s rows: every schedule
   constraint renamed to [s@]/[d@] columns and resolved by name, the time
   columns linked to the schedule columns, each row added with
   [Poly.add_cstr]. *)
let named_profile_pieces (fn : Ir.fn) (d : D.dep) =
  let params = fn.Ir.params in
  let sren x = "s@" ^ x and dren x = "d@" ^ x in
  let rename f =
    Cstr.map (fun e ->
        Aff.subst e (fun n -> if List.mem n params then None else Some (Aff.var (f n))))
  in
  let src = d.D.src and dst = d.D.dst in
  let desc (c : Ir.computation) =
    List.map
      (fun (dm : Ir.dim) ->
        match dm.Ir.d_kind with Ir.Static v -> `Const (2 * v) | Ir.Dyn -> `Col dm.Ir.d_col)
      c.Ir.sched.Ir.dims
  in
  let t = max (List.length (desc src)) (List.length (desc dst)) in
  let pad l = l @ List.init (t - List.length l) (fun _ -> `Const 0) in
  let s_desc = pad (desc src) and d_desc = pad (desc dst) in
  let extra (c : Ir.computation) =
    c.Ir.sched.Ir.inter @ List.map (fun (dm : Ir.dim) -> dm.Ir.d_col) c.Ir.sched.Ir.dims
  in
  let ts = List.init t (fun k -> "ts$" ^ string_of_int k) in
  let td = List.init t (fun k -> "td$" ^ string_of_int k) in
  let cols =
    Array.of_list
      (params @ List.map sren src.Ir.iters @ List.map dren dst.Ir.iters
      @ List.map sren (extra src) @ List.map dren (extra dst) @ ts @ td)
  in
  let total = Array.length cols in
  let add = Poly.add_cstr ~cols in
  let base =
    List.fold_left add (Poly.universe total)
      (List.map (rename sren) src.Ir.sched.Ir.cstrs
      @ List.map (rename dren) dst.Ir.sched.Ir.cstrs)
  in
  let link base desc names f =
    List.fold_left2
      (fun acc slot name ->
        match slot with
        | `Const v -> add acc (Cstr.Eq (Aff.var name, Aff.const v))
        | `Col col -> add acc (Cstr.Eq (Aff.var name, Aff.var (f col))))
      base desc names
  in
  let base = link (link base s_desc ts sren) d_desc td dren in
  let at = List.length params + List.length src.Ir.iters + List.length dst.Ir.iters in
  List.map
    (fun rp -> Poly.intersect base (Poly.insert_vars rp ~at ~count:(total - at)))
    d.D.rel

(* Every flow dependence of [fn]: the positional pieces are the named
   ones, row for row. *)
let check_positional ~label fn =
  List.fold_left
    (fun n (d : D.dep) ->
      if D.profile_pieces fn d <> named_profile_pieces fn d then
        Alcotest.failf "%s: %s -> %s: the rows differ from the named construction" label
          d.D.src.Ir.comp_name d.D.dst.Ir.comp_name;
      n + 1)
    0 (D.flow_deps fn)

let profile_tests =
  [
    Alcotest.test_case "profile rows = named construction (kernels, seeds 1-200)" `Quick
      (fun () ->
        let n = ref 0 in
        List.iter
          (fun (k : Tiramisu_kernels.Catalog.kernel) ->
            List.iter
              (fun (sched, apply) ->
                let f = k.build () in
                apply f;
                n := !n + check_positional ~label:(k.k_name ^ "/" ^ sched) f)
              (k.schedules k.params_small))
          Tiramisu_kernels.Catalog.kernels;
        let kernel_deps = !n in
        let module Fz = Tiramisu_fuzz in
        for s = 1 to 200 do
          let b = Fz.Case.build (Fz.Fuzz.gen_seed s) in
          n := !n + check_positional ~label:(Printf.sprintf "fuzz seed %d" s) b.Fz.Case.fn
        done;
        Alcotest.(check bool) "kernel dependences compared" true (kernel_deps > 0);
        Alcotest.(check bool) "generator dependences compared" true (!n > kernel_deps));
  ]

(* One group: Alcotest sizes its name column by the longest group name,
   so a second, longer group would change how every name above prints. *)
let () = Alcotest.run "deps" [ ("deps", tests @ equivalence_tests @ memory_tests @ profile_tests) ]
