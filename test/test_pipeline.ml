(* The compilation pipeline: structural hashing, the compile cache, and
   the typed pass errors.

   The hash must be alpha-invariant (loop variables are bound names; the
   de Bruijn numbering makes their spelling irrelevant) but sensitive to
   any real rewrite: a narrow or simplify transformation that changes the
   statement must change the hash, otherwise the compile cache would serve
   stale artifacts across optimization levels.  The cache itself must hand
   back bit-identical buffers on a hit and miss on any knob change. *)

open Tiramisu_codegen
module L = Loop_ir
module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline

(* ---------- alpha-renaming ---------- *)

(* Rename every loop variable by suffixing [sfx]; bound occurrences are
   rewritten through [Passes.subst_var], so the result is alpha-equivalent
   to the input (generated nests use distinct variable names). *)
let rec rename_loops sfx (s : L.stmt) : L.stmt =
  match s with
  | L.For { var; lo; hi; tag; body } ->
      let body = rename_loops sfx body in
      let v' = var ^ sfx in
      L.For
        { var = v'; lo; hi; tag; body = Passes.subst_var var (L.Var v') body }
  | L.Block l -> L.Block (List.map (rename_loops sfx) l)
  | L.If (c, a, b) ->
      L.If (c, rename_loops sfx a, Option.map (rename_loops sfx) b)
  | L.Alloc { buf; dtype; dims; mem; body } ->
      L.Alloc { buf; dtype; dims; mem; body = rename_loops sfx body }
  | s -> s

(* ---------- random loop nests ---------- *)

(* Two-to-three-deep nests with parameter-dependent bounds, so narrow has
   something to rewrite, plus arithmetic rich enough for simplify. *)
let nest_gen =
  QCheck.Gen.(
    let* hi1 = int_range 3 7 in
    let* d2_param = bool in
    let* hi2 = int_range 2 5 in
    let* tag = oneofl [ L.Seq; L.Parallel; L.Unrolled ] in
    let* deep = bool in
    let hi2e = if d2_param then L.Var "N" else L.Int hi2 in
    let store =
      L.Store
        ( "out",
          [ L.Var "i"; L.Var "j" ],
          L.(
            Bin
              ( Add,
                Bin (Mul, Var "i", Int 1),
                Bin (Add, Var "j", Bin (Mul, Int 0, Var "N")) )) )
    in
    let inner =
      if deep then
        L.For
          { var = "k"; lo = L.Int 0; hi = L.Bin (L.MinOp, L.Var "N", L.Int 3);
            tag = L.Seq; body = store }
      else store
    in
    return
      (L.For
         {
           var = "i"; lo = L.Int 0; hi = L.Int hi1; tag = L.Seq;
           body = L.For { var = "j"; lo = L.Int 0; hi = hi2e; tag; body = inner };
         }))

let params = [ ("N", 6) ]

let prop_alpha_hash =
  QCheck.Test.make ~count:300
    ~name:"alpha-equivalent loop renames hash equal"
    (QCheck.make nest_gen)
    (fun nest ->
      L.structural_hash nest = L.structural_hash (rename_loops "_r" nest))

let prop_rename_is_not_identity =
  QCheck.Test.make ~count:100
    ~name:"renamed nests are structurally different (hash is not name-blind)"
    (QCheck.make nest_gen)
    (fun nest ->
      (* sanity: the equal hashes above are not because rename was a no-op *)
      rename_loops "_r" nest <> nest)

let prop_narrow_hash =
  QCheck.Test.make ~count:300
    ~name:"a narrow rewrite changes the hash"
    (QCheck.make nest_gen)
    (fun nest ->
      let narrowed = Passes.narrow ~params nest in
      narrowed = nest || L.structural_hash narrowed <> L.structural_hash nest)

let prop_simplify_hash =
  QCheck.Test.make ~count:300
    ~name:"a simplify rewrite changes the hash"
    (QCheck.make nest_gen)
    (fun nest ->
      let simplified = L.simplify_stmt nest in
      simplified = nest
      || L.structural_hash simplified <> L.structural_hash nest)

(* The simplify pass substitutes a one-point [Seq] loop away, in its
   body and in inner bounds; other tags keep their loop. *)
let simplify_drops_unit_loops () =
  let body tag =
    L.For
      { var = "c"; lo = L.Int 2; hi = L.Int 2; tag;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Var "c"; tag = L.Seq;
              body =
                L.Store
                  ( "out",
                    [ L.Var "c"; L.Var "j" ],
                    L.Load ("a", [ L.(Bin (Add, Var "c", Int 1)); L.Var "j" ])
                  ) } }
  in
  Alcotest.(check string)
    "seq loop substituted" "for (j in 0..2)\n  out[2][j] = a[3][j]"
    (L.to_string (Passes.simplify (body L.Seq)));
  Alcotest.(check bool)
    "parallel loop kept" true
    (match Passes.simplify (body L.Parallel) with L.For _ -> true | _ -> false)

(* Free names (parameters, buffers) are hashed by spelling: renaming a
   *free* variable must change the hash, unlike renaming a bound one. *)
let free_name_sensitivity () =
  let nest var =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Var var; tag = L.Seq;
        body = L.Store ("out", [ L.Var "i" ], L.Var "i") }
  in
  Alcotest.(check bool)
    "free N vs M" false
    (L.structural_hash (nest "N") = L.structural_hash (nest "M"))

(* ---------- the compile cache ---------- *)

let blur_fn () =
  let f, _, _ = Tiramisu_kernels.Image.blur () in
  Tiramisu_kernels.Schedules.cpu_blur f;
  f

let img3 (idx : int array) =
  float_of_int (((idx.(0) * 13) + (idx.(1) * 7) + (idx.(2) * 3)) mod 31) /. 7.0

let blur_params = [ ("N", 16); ("M", 12) ]
let blur_inputs = [ ("img", img3) ]

let build ?knobs () =
  Tiramisu_kernels.Runner.build_native
    ?tracer:None ~fn:(blur_fn ()) ~params:blur_params ~inputs:blur_inputs
    ?target:(Option.map (fun k -> k.P.target) knobs)
    ()

let cache_hit_bit_identical () =
  P.clear_cache ();
  let a = build () in
  Alcotest.(check bool) "cold is a miss" true (a.P.cache = P.Miss);
  B.Exec.run a.P.exec;
  let out_cold =
    Array.copy (B.Exec.buffer a.P.exec "by").B.Buffers.data
  in
  let b = build () in
  Alcotest.(check bool) "rebuild is a hit" true (b.P.cache = P.Hit);
  Alcotest.(check bool) "same hash" true (a.P.key_hash = b.P.key_hash);
  (* the hit restored the input buffers to their filled state... *)
  let img = B.Exec.buffer b.P.exec "img" in
  Alcotest.(check bool) "input restored" true
    (Array.for_all
       (fun ok -> ok)
       (Array.mapi
          (fun flat v ->
            let dims = img.B.Buffers.dims in
            let k = flat mod dims.(2) in
            let j = flat / dims.(2) mod dims.(1) in
            let i = flat / (dims.(2) * dims.(1)) in
            Int64.bits_of_float v = Int64.bits_of_float (img3 [| i; j; k |]))
          img.B.Buffers.data));
  (* ...so re-running computes bit-identical outputs. *)
  B.Exec.run b.P.exec;
  let out_warm = (B.Exec.buffer b.P.exec "by").B.Buffers.data in
  Alcotest.(check bool) "outputs bit-identical" true
    (Array.length out_cold = Array.length out_warm
    && Array.for_all
         (fun ok -> ok)
         (Array.mapi
            (fun i v ->
              Int64.bits_of_float v = Int64.bits_of_float out_warm.(i))
            out_cold))

let knob_change_misses () =
  P.clear_cache ();
  let fn = blur_fn () in
  let lowered = P.lower fn in
  let extents = P.extents_of_fn fn ~params:blur_params in
  let build knobs =
    P.build_stmt ~knobs ~params:blur_params ~extents ~inputs:blur_inputs
      lowered.Tiramisu_core.Lower.ast
  in
  let a = build P.default_knobs in
  Alcotest.(check bool) "cold miss" true (a.P.cache = P.Miss);
  Alcotest.(check bool) "same knobs hit" true
    ((build P.default_knobs).P.cache = P.Hit);
  Alcotest.(check bool) "lanes knob misses" true
    ((build { P.default_knobs with P.lanes = 1 }).P.cache = P.Miss);
  Alcotest.(check bool) "target change misses" true
    ((build
        { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () })
       .P.cache = P.Miss);
  (* every variant is now cached independently *)
  Alcotest.(check bool) "variant hits after warmup" true
    ((build { P.default_knobs with P.lanes = 1 }).P.cache = P.Hit);
  let params_changed =
    P.build_stmt ~knobs:P.default_knobs
      ~params:[ ("N", 16); ("M", 14) ]
      ~extents ~inputs:blur_inputs lowered.Tiramisu_core.Lower.ast
  in
  Alcotest.(check bool) "param change misses" true
    (params_changed.P.cache = P.Miss)

(* ---------- eviction policy ---------- *)

(* A family of tiny distinct statements: each [c] lowers, hashes and
   caches independently. *)
let storm_stmt c =
  L.For
    { var = "i"; lo = L.Int 0; hi = L.Int 7; tag = L.Seq;
      body =
        L.Store ("out", [ L.Var "i" ], L.Bin (L.Add, L.Var "i", L.Int c)) }

let storm_extents = [ ("out", [| 8 |], L.Host) ]

let storm_build c =
  P.build_stmt
    ~knobs:
      { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () }
    ~params:[] ~extents:storm_extents ~inputs:[] (storm_stmt c)

(* An insert storm past [cache_cap] must evict exactly one entry per
   insert — LRU by generation — and never wipe the table: entries stay at
   the cap, [resets] stays untouched, and an entry kept warm by hits
   survives the whole storm. *)
let eviction_storm () =
  P.clear_cache ();
  let base = P.cache_stats () in
  let old_cap = P.cache_cap () in
  P.set_cache_cap 16;
  Fun.protect ~finally:(fun () -> P.set_cache_cap old_cap) @@ fun () ->
  ignore (storm_build 0);
  for c = 1 to 48 do
    ignore (storm_build c);
    ignore (storm_build 0);  (* keep entry 0 the most recently used *)
    let s = P.cache_stats () in
    Alcotest.(check bool) "entries never exceed the cap" true
      (s.P.entries <= 16);
    Alcotest.(check bool) "entries never collapse to zero" true
      (s.P.entries > 0)
  done;
  let s = P.cache_stats () in
  Alcotest.(check bool) "evicted one-at-a-time past the cap" true
    (s.P.evictions >= 49 - 16);
  Alcotest.(check int) "no full reset during the storm" base.P.resets
    s.P.resets;
  Alcotest.(check bool) "warm entry survived the storm" true
    ((storm_build 0).P.cache = P.Hit)

(* ---------- per-domain caches ---------- *)

(* Two domains building the same configuration must never be handed the
   same mutable buffers.  Before each domain had a cache of its own, a
   hit from any domain returned the one buffer list the entry owned; on
   that code the spawned builds hit, and this test fails. *)
let concurrent_hits_do_not_alias () =
  P.clear_cache ();
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 63; tag = L.Seq;
        body =
          L.Store ("out", [ L.Var "i" ], L.Bin (L.Mul, L.Var "i", L.Int 3)) }
  in
  let knobs =
    { P.default_knobs with P.target = B.Target.cpu ~parallel:`Seq () }
  in
  let build () =
    P.build_stmt ~knobs ~params:[]
      ~extents:[ ("out", [| 64 |], L.Host) ]
      ~inputs:[] stmt
  in
  let out_data art = (B.Exec.buffer art.P.exec "out").B.Buffers.data in
  let a0 = build () in
  let job () =
    let art = build () in
    Alcotest.(check bool) "a spawned domain's first build misses" true
      (art.P.cache = P.Miss);
    B.Exec.run art.P.exec;
    (art, Array.copy (out_data art))
  in
  let d1 = Domain.spawn job and d2 = Domain.spawn job in
  let a1, out1 = Domain.join d1 and a2, out2 = Domain.join d2 in
  Alcotest.(check bool) "the three builds got distinct buffers" true
    (out_data a1 != out_data a2
    && out_data a0 != out_data a1
    && out_data a0 != out_data a2);
  let check_out out =
    Alcotest.(check int) "output length" 64 (Array.length out);
    Array.iteri
      (fun i v ->
        Alcotest.(check (float 0.0)) "output element" (float_of_int (3 * i)) v)
      out
  in
  check_out out1;
  check_out out2;
  Alcotest.(check bool) "the main domain still hits" true
    ((build ()).P.cache = P.Hit)

(* [set_cache_cap] is one cap for every domain: a spawned domain filling
   its own cache past it evicts one entry per insert. *)
let cap_holds_across_domains () =
  let old_cap = P.cache_cap () in
  P.set_cache_cap 4;
  Fun.protect ~finally:(fun () -> P.set_cache_cap old_cap) @@ fun () ->
  let s =
    Domain.join
      (Domain.spawn (fun () ->
           for c = 0 to 5 do
             ignore (storm_build c)
           done;
           P.cache_stats ()))
  in
  Alcotest.(check int) "entries at the cap" 4 s.P.entries;
  Alcotest.(check int) "one eviction per insert past the cap" 2
    s.P.evictions;
  Alcotest.(check int) "no reset" 0 s.P.resets

(* ---------- typed pass errors ---------- *)

let error_names_stage () =
  (* scoped Alloc is the executor's documented unsupported construct *)
  let s =
    L.Alloc
      { buf = "tmp"; dtype = L.F32; dims = [ L.Int 4 ]; mem = L.Host;
        body = L.Store ("tmp", [ L.Int 0 ], L.Int 1) }
  in
  match
    P.build_stmt ~params:[] ~extents:[ ("tmp", [| 4 |], L.Host) ] ~inputs:[] s
  with
  | _ -> Alcotest.fail "expected Pipeline.Error"
  | exception P.Error e ->
      Alcotest.(check string) "failing stage" "compile" e.P.err_stage;
      Alcotest.(check bool) "message mentions Alloc" true
        (Astring.String.is_infix ~affix:"Alloc" e.P.err_msg)

let verify_catches_broken_pass () =
  (* A differential probe must flag a pass that changes semantics: feed a
     "pass" that rewrites the stored value and watch the tracer object. *)
  let s =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 3; tag = L.Seq;
        body = L.Store ("out", [ L.Var "i" ], L.Var "i") }
  in
  let probe =
    { P.probe_params = []; P.probe_extents = [ ("out", [| 4 |], L.Host) ];
      P.probe_fills = []; P.probe_outputs = [ "out" ] }
  in
  let tracer = P.make_tracer ~probe () in
  let broken _ =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 3; tag = L.Seq;
        body = L.Store ("out", [ L.Var "i" ], L.Int 7) }
  in
  (match
     P.stmt_pass ~tracer ~name:"broken" ~context:"test" ~verifiable:true
       broken s
   with
  | _ -> Alcotest.fail "expected a verify mismatch"
  | exception P.Error e ->
      Alcotest.(check string) "stage" "broken" e.P.err_stage);
  (* and a semantics-preserving pass verifies cleanly *)
  let ok =
    P.stmt_pass ~tracer ~name:"id" ~context:"test" ~verifiable:true
      (fun s -> s) s
  in
  Alcotest.(check bool) "identity verified" true (ok = s);
  let t = P.trace_of tracer in
  Alcotest.(check bool) "trace recorded both passes" true
    (List.length t.P.t_passes = 2);
  Alcotest.(check bool) "identity pass verdict" true
    (match (List.nth t.P.t_passes 1).P.p_verify with
    | P.Verified -> true
    | _ -> false)

(* ---------- the oracle path ---------- *)

let bits_equal_is_bitwise () =
  let buf data = B.Buffers.of_array "b" [| Array.length data |] data in
  let eq a b = B.Buffers.bits_equal (buf a) (buf b) in
  let nan1 = Int64.float_of_bits 0x7FF8_0000_0000_0001L
  and nan2 = Int64.float_of_bits 0x7FF8_0000_0000_0002L in
  Alcotest.(check bool) "0.0 vs -0.0 differ" false (eq [| 0.0 |] [| -0.0 |]);
  Alcotest.(check bool) "same NaN bits are equal" true
    (eq [| nan1; 1.0 |] [| nan1; 1.0 |]);
  Alcotest.(check bool) "different NaN payloads differ" false
    (eq [| nan1 |] [| nan2 |]);
  Alcotest.(check bool) "length mismatch" false (eq [| 1.0 |] [| 1.0; 2.0 |]);
  Alcotest.(check string) "first_diff names the first differing index"
    "[2]: 3 vs 4"
    (B.Buffers.first_diff (buf [| 1.0; 2.0; 3.0; 5.0 |])
       (buf [| 1.0; 2.0; 4.0; 6.0 |]));
  Alcotest.(check string) "first_diff on a length mismatch" "(sizes 1 vs 2)"
    (B.Buffers.first_diff (buf [| 1.0 |]) (buf [| 1.0; 2.0 |]))

(* An input naming no buffer is one error on every path that stands a
   program up: [Invalid_argument "unknown input buffer <name>"], typed as
   a [Pipeline.Error] on the buffer-setup stage when the pipeline builds
   (test_service checks [Service.instantiate]). *)
let unknown_input_one_error () =
  let bad = ("nope", fun _ -> 1.0) in
  let msg = "unknown input buffer nope" in
  let expect_stage stage f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Pipeline.Error" stage
    | exception P.Error e ->
        Alcotest.(check string) "stage" stage e.P.err_stage;
        Alcotest.(check string) "message" msg e.P.err_msg
  in
  P.clear_cache ();
  let build inputs () =
    P.build ~fn:(blur_fn ()) ~params:blur_params ~inputs ()
  in
  expect_stage "buffers" (build (bad :: blur_inputs));
  (* on a hit, the restore re-fills the entry's buffer set *)
  ignore (build blur_inputs ());
  expect_stage "cache" (build (blur_inputs @ [ bad ]));
  Alcotest.check_raises "Runner.run" (Invalid_argument msg) (fun () ->
      ignore
        (Tiramisu_kernels.Runner.run ~fn:(blur_fn ()) ~params:blur_params
           ~inputs:(bad :: blur_inputs)));
  let fn = blur_fn () in
  let ast = (P.lower fn).Tiramisu_core.Lower.ast in
  Alcotest.check_raises "Interp.reference" (Invalid_argument msg) (fun () ->
      ignore
        (B.Interp.reference ~params:blur_params
           ~extents:(P.extents_of_fn fn ~params:blur_params)
           ~inputs:(bad :: blur_inputs) ast))

let () =
  Alcotest.run "pipeline"
    [
      ( "structural-hash",
        List.map QCheck_alcotest.to_alcotest
          [ prop_alpha_hash; prop_rename_is_not_identity; prop_narrow_hash;
            prop_simplify_hash ]
        @ [ Alcotest.test_case "free names hash by spelling" `Quick
              free_name_sensitivity ] );
      ( "passes",
        [ Alcotest.test_case "simplify drops one-point seq loops" `Quick
            simplify_drops_unit_loops ] );
      ( "compile-cache",
        [
          Alcotest.test_case "hit returns bit-identical buffers" `Quick
            cache_hit_bit_identical;
          Alcotest.test_case "knob or param change misses" `Quick
            knob_change_misses;
          Alcotest.test_case "insert storm evicts one-at-a-time, never wipes"
            `Quick eviction_storm;
          Alcotest.test_case "concurrent hits never alias buffers" `Quick
            concurrent_hits_do_not_alias;
          Alcotest.test_case "cap holds across domains" `Quick
            cap_holds_across_domains;
        ] );
      ( "pass-manager",
        [
          Alcotest.test_case "typed error names the failing stage" `Quick
            error_names_stage;
          Alcotest.test_case "differential verify flags a broken pass" `Quick
            verify_catches_broken_pass;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "bits_equal is bitwise" `Quick
            bits_equal_is_bitwise;
          Alcotest.test_case "unknown input is one error on every path" `Quick
            unknown_input_one_error;
        ] );
    ]
