(* The automatic-scheduler baseline: correctness under its schedules, and
   the locality pathology the paper attributes to the Pluto objective on
   gaussian (§VI-B-a). *)

open Tiramisu_kernels
module A = Tiramisu_autosched.Autosched
module B = Tiramisu_backends
module S = Tiramisu_autosched.Search
module Sp = Tiramisu_autosched.Sched_space
module P = Tiramisu_pipeline.Pipeline
module L = Tiramisu_codegen.Loop_ir
module Tape_gen = Tiramisu_codegen.Tape_gen
module D = Tiramisu_deps.Deps

let n = 14
let m = 12

let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

let tests =
  [
    Alcotest.test_case "pluto-scheduled gaussian stays correct" `Quick
      (fun () ->
        let f, _, _ = Image.gaussian () in
        A.apply A.pencil_cpu f;
        let clampi v lo hi = max lo (min hi v) in
        let ref_gx i j c =
          List.fold_left ( +. ) 0.0
            (List.mapi
               (fun k w -> w *. img3 [| i; clampi (j + k - 2) 0 (m - 1); c |])
               Image.gaussian_weights)
        in
        let expect idx =
          let i = idx.(0) and j = idx.(1) and c = idx.(2) in
          List.fold_left ( +. ) 0.0
            (List.mapi
               (fun k w -> w *. ref_gx (clampi (i + k - 2) 0 (n - 1)) j c)
               Image.gaussian_weights)
        in
        match
          Runner.check ~fn:f
            ~params:[ ("N", n); ("M", m) ]
            ~inputs:[ ("img", img3) ]
            ~output:"gy" ~expect ()
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "pluto objective sinks the dependent dim (gaussian)"
      `Quick (fun () ->
        (* gy's i carries the stencil dependence: the objective moves it
           innermost, trading spatial locality — the mechanism behind
           PENCIL's 5.82x on gaussian. *)
        let f, _, _ = Image.gaussian () in
        A.apply A.pencil_cpu f;
        let gy = Tiramisu_core.Tiramisu.find_comp f "gy" in
        let dyn =
          List.map (fun d -> d.Tiramisu_core.Ir.d_name)
            (Tiramisu_core.Ir.dyn_dims gy.Tiramisu_core.Ir.sched)
        in
        (* after sinking + tiling, the innermost dynamic dim derives from i *)
        Alcotest.(check bool)
          (String.concat "," dyn)
          true
          (match List.rev dyn with
          | last :: _ -> String.length last > 0 && last.[0] = 'i'
          | [] -> false));
    Alcotest.test_case "pluto slower than expert schedule on warpAffine"
      `Quick (fun () ->
        let big = [ ("N", 512); ("M", 512) ] in
        let f1, _ = Image.warp_affine () in
        A.apply A.pencil_cpu f1;
        let pencil = (Runner.model ~fn:f1 ~params:big ()).B.Cost.time_ns in
        let f2, _ = Image.warp_affine () in
        Schedules.cpu_warp_affine f2;
        let expert = (Runner.model ~fn:f2 ~params:big ()).B.Cost.time_ns in
        Alcotest.(check bool)
          (Printf.sprintf "pencil %.3g > expert %.3g" pencil expert)
          true
          (pencil > 2.0 *. expert));
    Alcotest.test_case "sgemm: pluto profile correct" `Quick (fun () ->
        let f, _, _ = Linalg.sgemm () in
        A.apply A.pluto f;
        let s = 9 in
        let am (idx : int array) =
          float_of_int (((idx.(0) * 7) + (idx.(1) * 3)) mod 11) /. 4.0
        in
        let bm (idx : int array) =
          float_of_int (((idx.(0) * 5) + (idx.(1) * 13)) mod 9) /. 3.0
        in
        let cm (idx : int array) =
          float_of_int (((idx.(0) * 2) + idx.(1)) mod 7) /. 2.0
        in
        let expect idx =
          let i = idx.(0) and j = idx.(1) in
          let acc = ref (Linalg.beta *. cm [| i; j |]) in
          for k = 0 to s - 1 do
            acc := !acc +. (Linalg.alpha *. am [| i; k |] *. bm [| k; j |])
          done;
          !acc
        in
        match
          Runner.check ~fn:f ~params:[ ("S", s) ]
            ~inputs:[ ("A", am); ("B", bm); ("C0", cm) ]
            ~output:"C" ~expect ()
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "TC gpu profile runs conv correctly" `Quick (fun () ->
        let f, _, _ = Image.conv2d () in
        A.apply A.tc f;
        let kern3 (idx : int array) =
          [| 0.05; 0.1; 0.05; 0.1; 0.4; 0.1; 0.05; 0.1; 0.05 |].((idx.(0) * 3) + idx.(1))
        in
        let clampi v lo hi = max lo (min hi v) in
        let expect idx =
          let i = idx.(0) and j = idx.(1) and c = idx.(2) in
          let acc = ref 0.0 in
          for ki = 0 to 2 do
            for kj = 0 to 2 do
              acc :=
                !acc
                +. (img3 [| clampi (i + ki - 1) 0 (n - 1);
                            clampi (j + kj - 1) 0 (m - 1); c |]
                   *. kern3 [| ki; kj |])
            done
          done;
          !acc
        in
        match
          Runner.check ~fn:f
            ~params:[ ("N", n); ("M", m) ]
            ~inputs:[ ("img", img3); ("weights", kern3) ]
            ~output:"conv" ~expect ()
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

(* ---------- the beam-search autoscheduler (Search) ---------- *)

(* Predicted time of a scheduled pipeline under the tape-aware prior the
   search ranks with. *)
let predicted fn params =
  let lowered = P.lower fn in
  let stmt = P.prepare ~params lowered.Tiramisu_core.Lower.ast in
  (B.Cost.estimate ~tape:true ~params
     ~buffers:(P.extents_of_fn fn ~params)
     stmt)
    .B.Cost.time_ns

(* Measured sequential min-of-reps, through the same build path the
   search measures with.  Min, not median: timer noise is strictly
   additive, and a scheduler hiccup spanning most of one candidate's
   window would poison its median and scramble the rank comparison. *)
let measured fn params inputs =
  let knobs = { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () } in
  let art = P.build ~knobs ~fn ~params ~inputs () in
  B.Exec.run art.P.exec;
  let samples =
    Array.init 7 (fun _ ->
        let t0 = B.Clock.now_ms () in
        B.Exec.run art.P.exec;
        B.Clock.now_ms () -. t0)
  in
  Array.fold_left min samples.(0) samples

(* qcheck: on a dense elementwise kernel whose whole nest the tape claims,
   an evenly-dividing tile must not worsen the predicted cost — inside a
   claimed nest the model charges loop control at bytecode-cursor cost, so
   the extra loop levels tiling introduces are noise (< 5%), not a
   penalty.  This is the property that lets the prior rank tilings of a
   claimed nest by locality rather than by loop-control bookkeeping. *)
let prop_tile_claimed_nest =
  QCheck.Test.make ~count:40
    ~name:"legal tile never worsens predicted cost on a claimed nest"
    (QCheck.make
       QCheck.Gen.(
         let* t = oneofl [ 4; 8; 16 ] in
         let* kn = int_range 1 3 in
         let* km = int_range 1 3 in
         return (t, t * kn, t * km)))
    (fun (t, n, m) ->
      let params = [ ("N", n); ("M", m) ] in
      let base =
        let f, _ = Image.cvt_color () in
        predicted f params
      in
      let tiled =
        let f, _ = Image.cvt_color () in
        Sp.apply f (Sp.Tile ("gray", "i", "j", t, t));
        predicted f params
      in
      tiled <= base *. 1.05)

(* Rank correlation between the cost prior and measured medians on sgemm
   schedule candidates spanning a real locality range: tilings (which the
   model credits with footprint reuse) must land on the fast side, and
   the locality-destroying interchanges and the k-split (which break
   inner-loop line reuse) on the slow side, the same way the measurements
   order them.  Candidates stay inside one execution regime — no
   vectorize/unroll, which can push a nest off the tape's claimed path
   and flip the measured order for reasons the analytical model cannot
   see (DESIGN.md 12 pins that effect; the search handles it by
   measuring, not predicting).  S = 128 so locality dominates timer
   noise.  Spearman > 0 is deliberately weak — the prior only has to
   sort the beam, not predict milliseconds. *)
let spearman xs ys =
  let rank vs =
    let idx = Array.init (Array.length vs) (fun i -> i) in
    Array.sort (fun a b -> compare vs.(a) vs.(b)) idx;
    let r = Array.make (Array.length vs) 0.0 in
    Array.iteri (fun pos i -> r.(i) <- float_of_int pos) idx;
    r
  in
  let rx = rank xs and ry = rank ys in
  let n = float_of_int (Array.length xs) in
  let d2 =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i x -> (x -. ry.(i)) ** 2.0) rx)
  in
  1.0 -. (6.0 *. d2 /. (n *. ((n *. n) -. 1.0)))

let sgemm_inputs =
  [ ("A", fun i -> float_of_int (((i.(0) * 7) + (i.(1) * 3)) mod 11));
    ("B", fun i -> float_of_int (((i.(0) * 5) + i.(1)) mod 9));
    ("C0", fun i -> float_of_int ((i.(0) + i.(1)) mod 7)) ]

let rank_correlation_test () =
  let s = 128 in
  let params = [ ("S", s) ] in
  let candidates =
    [
      [];
      [ Sp.Tile ("c_upd", "i", "j", 8, 8) ];
      [ Sp.Tile ("c_upd", "i", "j", 16, 16) ];
      [ Sp.Interchange ("c_upd", "j", "k") ];
      [ Sp.Interchange ("c_upd", "i", "j") ];
      [ Sp.Interchange ("c_upd", "i", "k");
        Sp.Interchange ("c_upd", "j", "k") ];
      [ Sp.Split ("c_upd", "k", 8) ];
    ]
  in
  let scored =
    List.map
      (fun acts ->
        let build () =
          let f, _, _ = Linalg.sgemm () in
          f
        in
        let f = build () in
        List.iter (Sp.apply f) acts;
        (match Tiramisu_deps.Deps.legal_under_schedule f with
        | Ok () -> ()
        | Error e -> Alcotest.failf "candidate unexpectedly illegal: %s" e);
        let cost = predicted f params in
        let f2 = build () in
        List.iter (Sp.apply f2) acts;
        let ms = measured f2 params sgemm_inputs in
        Printf.eprintf "cand %-24s prior %12.0f measured %8.4f ms\n%!"
          (String.concat ";"
             (List.map
                (function
                  | Sp.Tile (_, _, _, a, b) -> Printf.sprintf "tile%dx%d" a b
                  | Sp.Interchange (_, a, b) -> Printf.sprintf "ix:%s,%s" a b
                  | Sp.Split (_, v, k) -> Printf.sprintf "split:%s/%d" v k
                  | _ -> "other")
                acts))
        cost ms;
        (cost, ms))
      candidates
  in
  let xs = Array.of_list (List.map fst scored)
  and ys = Array.of_list (List.map snd scored) in
  let rho = spearman xs ys in
  if rho <= 0.0 then
    Alcotest.failf "prior vs measurement rank correlation %.2f <= 0" rho

(* The search itself, end to end on a tiny budget: the incumbent starts
   at the measured default schedule, so the result can never regress it;
   the winner must replay bit-exactly; the trajectory is monotone. *)
let search_smoke_test () =
  let config =
    {
      S.default_config with
      S.beam_width = 2;
      measure_top = 2;
      rounds = 1;
      reps = 2;
      budget_ms = 20_000.0;
      max_frontier = 30;
      menu =
        { Sp.tile_sizes = [ 8 ]; split_factors = [ 8 ]; vec_widths = [ 4 ];
          unroll_factors = [ 2 ]; lane_widths = [ 1; 4 ] };
    }
  in
  let problem =
    {
      S.name = "nb-test";
      build =
        (fun () ->
          let f, _, _, _, _ = Image.nb () in
          f);
      params = [ ("N", 24); ("M", 24) ];
      inputs = [ ("img", img3) ];
      outputs = [ "negative"; "brightened" ];
    }
  in
  let r = S.run ~config problem in
  if r.S.r_best_ms > r.S.r_default_ms then
    Alcotest.failf "searched %.4f ms regressed default %.4f ms" r.S.r_best_ms
      r.S.r_default_ms;
  if not r.S.r_verified then
    Alcotest.fail "winner failed bit-exact interpreter replay";
  if r.S.r_measured < 2 then Alcotest.fail "search measured nothing";
  let rec monotone = function
    | (a : S.trajectory_point) :: (b :: _ as rest) ->
        a.S.tp_best_ms >= b.S.tp_best_ms && monotone rest
    | _ -> true
  in
  if not (monotone r.S.r_trajectory) then
    Alcotest.fail "trajectory best-so-far is not monotone"

(* Satellite: why blur's tape win is weak (1.13x vs 1.9-2.8x elsewhere).
   The bench schedule computes bx at by's tile column, so the outer
   parallel nest carries an Alloc + two computations — Tape_gen refuses
   it by design (the tape models one perfect rectangular nest over one
   store), and only the depth-1/2 inner nests are claimed.  Pinned here
   so a future Tape_gen generalization flips this test rather than
   silently changing the bench's character.  See DESIGN.md §12. *)
let blur_tape_claim_test () =
  let f, _, _ = Image.blur () in
  let open Tiramisu_core.Tiramisu in
  let bx = find_comp f "bx" and by = find_comp f "by" in
  tile by "i" "j" 8 8 "i0" "j0" "i1" "j1";
  parallelize by "j0";
  compute_at bx by "j0";
  vectorize by "j1" 8;
  let params = [ ("N", 32); ("M", 32) ] in
  let lowered = P.lower f in
  let stmt = P.prepare ~params lowered.Tiramisu_core.Lower.ast in
  (* the schedule's parallel loop is not claimable... *)
  let rec first_par = function
    | L.For { tag = L.Parallel; _ } as s -> Some s
    | L.For { body; _ } | L.Alloc { body; _ } -> first_par body
    | L.Block ss -> List.find_map first_par ss
    | L.If (_, a, b) -> (
        match first_par a with
        | Some s -> Some s
        | None -> Option.bind b first_par)
    | _ -> None
  in
  (match first_par stmt with
  | None -> Alcotest.fail "no parallel loop in the lowered blur schedule"
  | Some par ->
      if Tape_gen.claimable par then
        Alcotest.fail
          "blur's compute_at parallel nest became tape-claimable — \
           revisit DESIGN.md §12 and the exec-bench expectations");
  (* ...but the tape still claims the inner rectangular nests. *)
  if (Tape_gen.claims stmt).Tape_gen.cs_nests = [] then
    Alcotest.fail "tape claimed nothing in the blur schedule"

(* The search proposes [compute_at] only for pairs that [compute_at]
   accepts: the consumer reads the producer (after inlining). *)
let consumes_test () =
  let f, _, _ = Image.blur () in
  let comp name = Tiramisu_core.Tiramisu.find_comp f name in
  let consumes c p =
    Tiramisu_core.Lower.consumes ~consumer:(comp c) ~producer:(comp p)
  in
  Alcotest.(check bool) "by reads bx" true (consumes "by" "bx");
  Alcotest.(check bool) "bx does not read by" false (consumes "bx" "by")

(* The tape-aware prior discounts a lane-safe nest by [min lanes
   vec_width], so widening the tape's default batch past the machine's
   vector width (8) must leave every estimate exactly where an 8-wide
   request puts it: search ranking and the paper figures do not move. *)
let cost_default_width_test () =
  List.iter
    (fun (k : Catalog.kernel) ->
      let params = k.params_small in
      List.iter
        (fun (sched, apply) ->
          let f = k.build () in
          apply f;
          let stmt = P.prepare ~params (P.lower f).Tiramisu_core.Lower.ast in
          let est ?lanes () =
            B.Cost.estimate ~tape:true ?lanes ~params
              ~buffers:(P.extents_of_fn f ~params) stmt
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: default width prices like lanes 8"
               k.k_name sched)
            true
            (est () = est ~lanes:8 ()))
        (k.schedules params))
    Catalog.kernels

(* The candidates the [vet] tests check: every first-round candidate of
   blur, nb and sgemm over a one-size menu. *)
let vet_config =
  { S.default_config with
    S.menu =
      { Sp.tile_sizes = [ 8 ]; split_factors = [ 8 ]; vec_widths = [ 4 ];
        unroll_factors = [ 2 ]; lane_widths = [ 1; 4 ] } }

let vet_knobs =
  { P.default_knobs with P.target = vet_config.S.target; tape = true }

let vet_problems =
  let problem name build params inputs =
    { S.name; build; params; inputs; outputs = [] }
  in
  [ problem "blur" (fun () -> let f, _, _ = Image.blur () in f)
      [ ("N", 16); ("M", 16) ] [ ("img", img3) ];
    problem "nb" (fun () -> let f, _, _, _, _ = Image.nb () in f)
      [ ("N", 16); ("M", 16) ] [ ("img", img3) ];
    problem "sgemm" (fun () -> let f, _, _ = Linalg.sgemm () in f)
      [ ("S", 8) ] sgemm_inputs ]

(* [p]'s schedule [acts] on a fresh function, built with no memo *)
let fresh_build ?tracer (p : S.problem) acts =
  let fn = p.S.build () in
  List.iter (Sp.apply fn) acts;
  P.build ?tracer ~knobs:vet_knobs ~fn ~params:p.S.params ~inputs:p.S.inputs
    ()

(* The cost prior scores the statement the build compiles: for every
   first-round candidate of blur, nb and sgemm that [vet] passes, the
   statement it hands the prior has the structural hash of the prepared
   statement [Pipeline.build] caches for the same schedule (the last
   statement pass's output on a cache miss). *)
let vet_scores_built_test () =
  List.iter
    (fun (p : S.problem) ->
      let vetted = ref 0 in
      List.iter
        (fun acts ->
          match S.vet vet_config p acts with
          | `Illegal _ | `Err _ -> ()
          | `Ok (_, _, scored) ->
              incr vetted;
              P.clear_cache ();
              let built = ref None in
              let tracer =
                P.make_tracer ~on_after:(fun _ s -> built := Some s) ()
              in
              ignore (fresh_build ~tracer p acts);
              match !built with
              | None -> Alcotest.failf "%s: the build ran no pass" p.S.name
              | Some b ->
                  if L.structural_hash b <> L.structural_hash scored then
                    Alcotest.failf "%s %s: vet scored another statement"
                      p.S.name (S.literal acts))
        (S.first_round vet_config p);
      if !vetted = 0 then Alcotest.failf "%s: nothing vetted" p.S.name)
    vet_problems

(* A vetted candidate is measured by [Pipeline.build] through the memo
   [vet] returns: that build lowers nothing, and it compiles the statement
   a fresh build of the same schedule compiles. *)
let measured_builds_vetted_test () =
  List.iter
    (fun (p : S.problem) ->
      List.iter
        (fun acts ->
          match S.vet vet_config p acts with
          | `Illegal _ | `Err _ -> ()
          | `Ok (fn, lowerings, _) ->
              let name = p.S.name ^ " " ^ S.literal acts in
              let calls = P.lower_calls () in
              let measured =
                P.build ~lowerings ~knobs:vet_knobs ~fn ~params:p.S.params
                  ~inputs:p.S.inputs ()
              in
              Alcotest.(check int) (name ^ ": no lowering") calls
                (P.lower_calls ());
              Alcotest.(check int) (name ^ ": key hash")
                (fresh_build p acts).P.key_hash measured.P.key_hash)
        (S.first_round vet_config p))
    vet_problems

(* Identical code never displaces the incumbent on timing noise.  nb's
   [Fuse ("negative", "t1", "root")] builds the very statement of the
   empty schedule; the search times each built statement and knob
   setting once, so a winner other than the empty schedule builds
   another statement or runs under other knobs.  ([Compute_at ("t1",
   "negative", "i")], whose timing ties with the empty schedule's, is not
   such a case: it fuses [t1] into [negative]'s loop.) *)
let identical_code_test () =
  let p = List.nth vet_problems 1 in
  let p = { p with S.outputs = [ "negative"; "brightened" ] } in
  let key ?(tape = true) ?(lanes = P.default_knobs.P.lanes) acts =
    let fn = p.S.build () in
    List.iter (Sp.apply fn) acts;
    (P.build ~knobs:{ vet_knobs with P.tape; lanes } ~fn ~params:p.S.params
       ~inputs:p.S.inputs ())
      .P.key_hash
  in
  Alcotest.(check int) "a root fuse builds the empty schedule's statement"
    (key []) (key [ Sp.Fuse ("negative", "t1", "root") ]);
  (* one round that measures every vetted candidate, the three root
     fuses of nb among them *)
  let config =
    { vet_config with S.beam_width = 1000; measure_top = 1000; rounds = 1;
      reps = 2; budget_ms = 20_000.0; max_frontier = 1000 }
  in
  for _ = 1 to 10 do
    let r = S.run ~config p in
    if
      r.S.r_best <> []
      && key ~tape:r.S.r_best_tape ~lanes:r.S.r_best_lanes r.S.r_best
         = key ~tape:true []
      && r.S.r_best_tape
      && r.S.r_best_lanes = P.default_knobs.P.lanes
    then
      Alcotest.failf "%s replaced the empty schedule with identical code"
        (S.literal r.S.r_best)
  done

(* The dependence memo changes no verdict: every first-round candidate
   of blur, nb and sgemm gets, through one memo per problem, the result
   and the message it gets without one. *)
let memo_verdicts_test () =
  List.iter
    (fun (p : S.problem) ->
      let memo = D.memo (p.S.build ()) in
      let illegal = ref 0 in
      List.iter
        (fun acts ->
          match
            let fn = p.S.build () in
            List.iter (Sp.apply fn) acts;
            fn
          with
          | exception _ -> ()
          | fn ->
              let plain = D.legal_under_schedule fn in
              if Result.is_error plain then incr illegal;
              Alcotest.(check (result unit string))
                (p.S.name ^ " " ^ S.literal acts)
                plain
                (D.legal_under_schedule ~memo fn))
        (S.first_round vet_config p);
      Alcotest.(check bool) (p.S.name ^ ": some profile found in the memo") true
        (D.memo_hits memo > 0);
      if p.S.name <> "blur" then
        Alcotest.(check bool) (p.S.name ^ ": some candidate illegal") true (!illegal > 0))
    vet_problems

(* A search analyses its problem's dependences once, and proposes no
   [Compute_at] that lowering rejects; a memo checks only functions of
   its own algorithm. *)
let search_memo_test () =
  let config =
    { vet_config with S.beam_width = 2; measure_top = 1; rounds = 2; reps = 1;
      budget_ms = 60_000.0 }
  in
  List.iter
    (fun (p : S.problem) ->
      let calls = D.flow_deps_calls () in
      let r = S.run ~config p in
      Alcotest.(check int) (p.S.name ^ ": flow dependences computed once") 1
        (D.flow_deps_calls () - calls);
      Alcotest.(check int) (p.S.name ^ ": nothing errored") 0 r.S.r_errored;
      Alcotest.(check bool) (p.S.name ^ ": profiles reused") true
        (r.S.r_profile_hits > 0 && r.S.r_profile_misses > 0))
    vet_problems;
  let blur = List.nth vet_problems 0 and nb = List.nth vet_problems 1 in
  let memo = D.memo (blur.S.build ()) in
  Alcotest.(check bool) "the memo's own algorithm" true
    (D.legal_under_schedule ~memo (blur.S.build ()) = Ok ());
  Alcotest.check_raises "another algorithm"
    (Invalid_argument "Deps: a dependence memo of another algorithm than nb")
    (fun () -> ignore (D.check_legality ~memo (nb.S.build ())));
  let inlined = blur.S.build () in
  Tiramisu_core.Tiramisu.inline (Tiramisu_core.Tiramisu.find_comp inlined "bx");
  Alcotest.(check bool) "inlining makes another algorithm" true
    (match D.legal_under_schedule ~memo inlined with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* blur at 64x64 under two round-2 candidates whose guarded pieces carry
   several environment-only conjuncts, which the claim must fold into
   one bound term: a bound rebuilt per conjunct doubles each time, to
   seconds ([Compute_at] at [i]) and gigabytes ([j]).  Both build and
   match the interpreter on the unscheduled program bit for bit. *)
let env_guard_claims_test () =
  let blur () = let f, _, _ = Image.blur () in f in
  let params = [ ("N", 64); ("M", 64) ] and inputs = [ ("img", img3) ] in
  let reference = Runner.run ~fn:(blur ()) ~params ~inputs in
  List.iter
    (fun at ->
      let fn = blur () in
      List.iter (Sp.apply fn)
        [ Sp.Tile ("bx", "i", "j", 32, 32); Sp.Parallelize ("bx", "i0");
          Sp.Vectorize ("bx", "j1", 8); Sp.Compute_at ("bx", "by", at) ];
      let art = P.build ~knobs:vet_knobs ~fn ~params ~inputs () in
      B.Exec.run art.P.exec;
      Alcotest.(check bool) ("compute_at " ^ at ^ ": by bit-exact") true
        (B.Buffers.bits_equal
           (B.Interp.buffer reference "by")
           (List.find (fun b -> b.B.Buffers.name = "by") art.P.buffers)))
    [ "i"; "j" ]

(* The CLI's blur search at the default configuration (3 rounds, a
   200-candidate frontier) finishes with nothing errored and a verified
   winner. *)
let blur_default_search_test () =
  let k = List.find (fun k -> k.Catalog.k_name = "blur") Catalog.kernels in
  let r =
    Runner.autoschedule ~config:S.default_config ~name:"blur"
      ~build:k.Catalog.build ~params:k.Catalog.params_small
      ~inputs:k.Catalog.inputs ()
  in
  Alcotest.(check int) "no candidate errored" 0 r.S.r_errored;
  Alcotest.(check bool) "winner verified" true r.S.r_verified

let search_tests =
  [
    Alcotest.test_case "compute_at pairs are producer/consumer" `Quick
      consumes_test;
    QCheck_alcotest.to_alcotest prop_tile_claimed_nest;
    Alcotest.test_case "cost prior rank-correlates with measured medians"
      `Quick rank_correlation_test;
    Alcotest.test_case "beam search: incumbent, verify, trajectory" `Quick
      search_smoke_test;
    Alcotest.test_case "blur compute_at nest stays tape-unclaimed (pinned)"
      `Quick blur_tape_claim_test;
    Alcotest.test_case "cost prior at the default width = lanes 8" `Quick
      cost_default_width_test;
    Alcotest.test_case "vet scores the statement the build compiles" `Quick
      vet_scores_built_test;
    Alcotest.test_case "identical code never replaces the incumbent" `Quick
      identical_code_test;
    Alcotest.test_case "measured candidates build the vetted lowering" `Quick
      measured_builds_vetted_test;
    Alcotest.test_case "the dependence memo changes no verdict" `Quick
      memo_verdicts_test;
    Alcotest.test_case "one dependence analysis per search, no errors" `Quick
      search_memo_test;
    Alcotest.test_case "environment-guarded pieces claim quickly, bit-exact"
      `Quick env_guard_claims_test;
    Alcotest.test_case "blur at the default search config, nothing errored"
      `Quick blur_default_search_test;
  ]

let () =
  Alcotest.run "autosched"
    [ ("autosched", tests); ("search", search_tests) ]
