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

let rename_cstr ~params f c =
  let r e = Aff.subst e (fun n -> if List.mem n params then None else Some (Aff.var (f n))) in
  match c with
  | Cstr.Eq (x, y) -> Cstr.Eq (r x, r y)
  | Cstr.Le (x, y) -> Cstr.Le (r x, r y)
  | Cstr.Lt (x, y) -> Cstr.Lt (r x, r y)
  | Cstr.Ge (x, y) -> Cstr.Ge (r x, r y)
  | Cstr.Gt (x, y) -> Cstr.Gt (r x, r y)

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
  let add p c =
    match Cstr.to_row ~cols c with `Eq r -> Poly.add_eq p r | `Ineq r -> Poly.add_ineq p r
  in
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

let violation_key (v : D.violation) =
  (v.D.dep.D.src.Ir.comp_name, v.D.dep.D.dst.Ir.comp_name, v.D.level, v.D.carried)

let reference_check fn =
  let tags = D.effective_tags fn in
  List.concat_map
    (fun (d : D.dep) ->
      if d.D.src.Ir.computed_at <> None || d.D.dst.Ir.computed_at <> None then []
      else
        List.map
          (fun (level, carried) -> (d.D.src.Ir.comp_name, d.D.dst.Ir.comp_name, level, carried))
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
  let got, undo = D.widen_parallel fn in
  undo ();
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
  ]

(* One group: Alcotest sizes its name column by the longest group name,
   so a second, longer group would change how every name above prints. *)
let () = Alcotest.run "deps" [ ("deps", tests @ equivalence_tests) ]
