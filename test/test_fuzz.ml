(* Differential fuzzing harness: replay corpus, legality-oracle checks,
   and directed regressions for the backend fixes that rode along with it
   (floored div/mod, pool exception propagation, pragma placement,
   per-compile counters).

   Corpus entries are Case.t literals — shrunk outputs of the fuzzer in
   the very format `bin/fuzz.exe` prints on failure — so a future
   divergence lands here as a one-paste regression. *)

open Tiramisu_fuzz
open Case
module L = Tiramisu_codegen.Loop_ir
module B = Tiramisu_backends

let outcome = Alcotest.testable (Fmt.of_to_string Differential.outcome_str) ( = )

let check_pass name case =
  Alcotest.check outcome name Differential.Pass (Differential.run_case case)

let check_rejected name case =
  match Differential.run_case case with
  | Differential.Rejected _ -> ()
  | o ->
      Alcotest.failf "%s: expected the oracle to reject, got %s" name
        (Differential.outcome_str o)

(* ---------- replay corpus ---------- *)

(* Split + skew + negative shift drive floord/emod through negative
   operands in the backward schedule substitution (the div/mod semantics
   fix); shrunk from a fuzzer find against a truncating-division mutant. *)
let corpus_neg_floord =
  { extents = [ Lit 5 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Add, In ("a0", [ (0, -2) ]), In ("a0", [ (0, 1) ])) } ];
    steps = [ Split ("c0", "i", 4);
      Skew ("c0", "i1", "i0", 2);
      Shift ("c0", "i1", -3) ] }

(* Interchanged split halves of a single-iteration loop: the inner loop
   bound depends on floord of a negative numerator (shrunk fuzzer find). *)
let corpus_split_one =
  { extents = [ Lit 1 ];
    n_value = 0;
    inputs = [];
    comps = [ { rc_name = "c0"; rc_rank = 1; rc_red = None; rc_expr = Const 1 } ];
    steps = [ Split ("c0", "i", 3); Interchange ("c0", "i0", "i1") ] }

(* Size-0 dimension: empty lane blocks must not touch memory. *)
let corpus_zero_extent =
  { extents = [ Lit 0; Lit 3 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = In ("a0", [ (0, 0); (1, -1) ]) } ];
    steps = [ Vectorize ("c0", "j", 4) ] }

(* One iteration under unroll-by-4: remainder-only driver. *)
let corpus_one_unroll =
  { extents = [ Lit 1 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = In ("a0", [ (0, 2) ]) } ];
    steps = [ Unroll ("c0", "i", 4) ] }

(* Remainder 0: the unrolled driver must not run a stray epilogue. *)
let corpus_exact_unroll =
  { extents = [ Lit 8 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Mul, In ("a0", [ (0, 0) ]), Const 3) } ];
    steps = [ Unroll ("c0", "i", 4) ] }

(* 17 = 4 lane blocks + a 1-iteration scalar epilogue, parallelized. *)
let corpus_vector_epilogue =
  { extents = [ Lit 17 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Sub, In ("a0", [ (0, 1) ]), In ("a0", [ (0, -1) ])) } ];
    steps = [ Split ("c0", "i", 8);
      Parallelize ("c0", "i0");
      Vectorize ("c0", "i1", 4) ] }

(* Reduction (sgemm idiom) consumed downstream, with the free dim
   parallelized and the reduction dim unrolled. *)
let corpus_reduction =
  { extents = [ Lit 3; Lit 4 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 3;
          rc_expr = In ("a0", [ (0, 0); (2, -1) ]) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None; rc_expr = Prod "c0" } ];
    steps = [ Parallelize ("c0_upd", "i"); Unroll ("c0_upd", "r", 2) ] }

(* Doubly-parallel rectangular nest: the parallel planner coalesces the
   two [Parallel] dims into one fused loop, so the differential configs
   (plan auto / forced, tape on / off) diverge on any bug in the div/mod
   index recovery or the fused trip count.  Extents 5 x 7 are coprime so a
   stride mix-up cannot alias back to the right cell.  The forced plan runs
   the fused loop on the static pool schedule. *)
let corpus_coalesce =
  { extents = [ Lit 5; Lit 7 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Add, In ("a0", [ (0, 1); (1, -2) ]), Const 3) } ];
    steps = [ Parallelize ("c0", "i"); Parallelize ("c0", "j") ] }

(* Fuzz generator seed 222: the parallel loop is l0, the tile loop of the
   extent-3 dim tiled by 2, so its last tile is partial (2 iterations at
   l0 = 0, 1 at l0 = 1) and the shape rule gives it the dynamic pool
   schedule — the counterpart of [corpus_coalesce] for the other pool
   driver under the forced plan. *)
let corpus_dynamic =
  { extents = [ Lit 8; NParam; Lit 3 ];
    n_value = 8;
    inputs = [ ("a0", 2); ("a1", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 3; rc_red = None;
          rc_expr = In ("a1", [ (2, 2) ]) } ];
    steps = [ Tile ("c0", "j", "l", 2, 2);
      Tile ("c0", "i", "j0", 2, 2);
      Parallelize ("c0", "l0");
      Interchange ("c0", "j01", "i1") ] }

(* Fuzz generator seed 42: a parallel producer tiled after a reversed
   consumer was fused into it.  On every pool row [Pipeline.build]'s
   widen-parallel pass proves more dims of c0 safe to run in parallel
   than the schedule tagged, so the fuzzer's production path diffs a
   widened schedule, not the user's. *)
let corpus_widen =
  { extents = [ Lit 5; Lit 5 ];
    n_value = 8;
    inputs = [ ("a0", 2); ("a1", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Min, Bin (Mul, Const 6, In ("a0", [ (0, 1); (0, -1) ])),
                 Bin (Min, Const 7, In ("a1", [ (0, -2) ]))) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Min, In ("a1", [ (1, 2) ]), Const 2) } ];
    steps = [ Reverse ("c1", "i");
      Parallelize ("c0", "i");
      Fuse ("c1", "c0", "j");
      Tile ("c0", "i", "j", 3, 2) ] }

(* Doubly-parallel rectangular stencil, extents coprime: with the tape
   knob on the planner keeps the nest intact (Keep_tape) and the executor
   runs it as bytecode, so the differential configs now split three ways —
   closure loops (tape off), fused-coalesced closures, and the tape — and
   any cursor-addressing bug diverges bit-exactly.  Pinned as a corpus
   seed so `make fuzz` replays it against all of them. *)
let corpus_tape_stencil =
  { extents = [ Lit 6; Lit 9 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, -1); (1, 1) ]),
                 Bin (Mul, In ("a0", [ (0, 1); (1, 0) ]), Const 2)) } ];
    steps = [ Parallelize ("c0", "i"); Parallelize ("c0", "j") ] }

(* Reduction with an offset input access: the tape's register-resident
   accumulator (init/writeback outside the hot loop) against the
   interpreter's per-iteration stores.  The consumer reads the final
   accumulator, so a dropped writeback is visible downstream. *)
let corpus_tape_reduction =
  { extents = [ Lit 5; Lit 4 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 6;
          rc_expr = In ("a0", [ (0, 1); (2, -2) ]) };
        { rc_name = "c1"; rc_rank = 2; rc_red = None; rc_expr = Prod "c0" } ];
    steps = [ Parallelize ("c0_upd", "i") ] }

(* The vector tape's epilogue: a lane-safe stencil whose inner extent
   (37) is not a multiple of 8 or 3, so at lanes 8 every row runs 4 full
   batches plus a 5-wide tail batch, and the config matrix's 3-wide row
   12 full batches plus a single scalar leftover (the default width fits
   the row whole).  The matrix diffs it against the forced-scalar tape
   and the interpreter bit-exactly; shrunk by hand from the
   width-boundary family. *)
let corpus_vector_tape_epilogue =
  { extents = [ Lit 5; Lit 37 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, 0); (1, -1) ]),
                 Bin (Mul, In ("a0", [ (0, 1); (1, 1) ]), Const 3)) } ];
    steps = [ Parallelize ("c0", "i") ] }

(* Inner extents below the lane width (0, 1 and 3 against lanes=8): a
   3-long segment is one narrow batch, a 1-long one the single scalar
   leftover, and the zero-extent row must not touch memory at all. *)
let corpus_vector_tape_short j =
  { extents = [ Lit 3; Lit j ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Sub, In ("a0", [ (0, 0); (1, 0) ]), Const 2) } ];
    steps = [] }

(* Symbolic extent N: tiling a parametric loop exercises Passes.narrow's
   symbolic min/max bounds, at N = 5 and at the N = 0 boundary. *)
let corpus_nparam n =
  { extents = [ NParam; Lit 2 ];
    n_value = n;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr = Bin (Add, In ("a0", [ (0, -2); (1, 2) ]), Const 4) } ];
    steps = [ Tile ("c0", "i", "j", 2, 2); Parallelize ("c0", "i0") ] }

(* Clamped stencils, the conv2D/gaussian border idiom: [narrow] splits
   every clamped loop into border and steady pieces.  1-D vectorized over
   a symbolic extent (0, 1, 2, 3 and a steady piece at 13); 2-D with the
   outer loop parallel and the inner one unrolled, where a clamp reads
   the transposed input; and a vectorized 2-D stencil next to a
   reduction whose clamp runs over the unrolled reduction dim. *)
let corpus_clamped_1d n =
  { extents = [ NParam ];
    n_value = n;
    inputs = [ ("a0", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
          rc_expr =
            Bin (Add, Clamped ("a0", [ (0, -1) ]),
                 Bin (Mul, Clamped ("a0", [ (0, 2) ]), Const 2)) } ];
    steps = [ Vectorize ("c0", "i", 4) ] }

let corpus_clamped_2d ext =
  { extents = [ Lit ext; Lit 7 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Sub, Clamped ("a0", [ (0, -1); (1, 1) ]),
                 Bin (Add, Clamped ("a0", [ (1, -2); (0, 1) ]),
                      In ("a0", [ (0, 0); (1, 0) ]))) } ];
    steps = [ Parallelize ("c0", "i"); Unroll ("c0", "j", 3) ] }

let corpus_clamped_reduction =
  { extents = [ Lit 9; NParam ];
    n_value = 11;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Max, Clamped ("a0", [ (0, 1); (1, -1) ]),
                 Clamped ("a0", [ (0, -2); (1, 2) ])) };
        { rc_name = "c1"; rc_rank = 1; rc_red = Some 3;
          rc_expr = Bin (Mul, Clamped ("a0", [ (0, -1); (1, 1) ]), Const 3) } ];
    steps =
      [ Parallelize ("c0", "i"); Vectorize ("c0", "j", 4);
        Unroll ("c1_upd", "r", 3) ] }

(* Register-blocked reductions: [Vectorize] on the free dimension
   directly above the reduction and [Unroll] on the reduction, so the
   tape batches lanes along the vectorized level (an [Outer] binding)
   with the unrolled stores folded into one lane accumulator.  1-D over
   19 points (4-lane runs plus a 3-point scalar piece), and a 2-D
   product with a parallel outer dim and a symbolic inner extent.  The
   unroll factors divide the reduction extents: a remainder would leave
   the unrolled loop with bounds in the reduction variable, which the
   tape does not claim as one nest. *)
let corpus_outer_lanes_1d =
  { extents = [ Lit 19 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 8;
          rc_expr = Bin (Mul, In ("a0", [ (0, 0); (1, -1) ]), Const 3) } ];
    steps = [ Vectorize ("c0_upd", "i", 4); Unroll ("c0_upd", "r", 2) ] }

let corpus_outer_lanes_2d =
  { extents = [ Lit 6; NParam ];
    n_value = 13;
    inputs = [ ("a0", 2); ("a1", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 9;
          rc_expr =
            Bin (Add, Bin (Mul, In ("a0", [ (0, 0); (2, 0) ]),
                           In ("a1", [ (2, 0); (1, 0) ])),
                 In ("a0", [ (1, 1); (2, -1) ])) } ];
    steps =
      [ Parallelize ("c0_upd", "i"); Vectorize ("c0_upd", "j", 4);
        Unroll ("c0_upd", "r", 3) ] }

(* A 2-D accumulator block: a rank-3 reduction with a parallel [i], [l]
   vectorized by 4 above the unrolled reduction and [j] between them.
   [l x l_v] merge into one 8-wide run, and c0's row stride along [j]
   (8) clears it, so at the default lanes the update nest batches all 5
   rows of [j] at once ([outer j_1 x5 × l_v_ln x8]); the pool rows split
   the parallel [i] above the block. *)
let corpus_outer_lanes_block =
  { extents = [ Lit 3; Lit 5; Lit 8 ];
    n_value = 0;
    inputs = [ ("a0", 3); ("a1", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 3; rc_red = Some 6;
          rc_expr =
            Bin (Add, Bin (Mul, In ("a0", [ (0, 0); (1, 0); (3, 0) ]),
                           In ("a1", [ (3, 0); (2, 0) ])),
                 In ("a0", [ (2, 1); (1, -1); (3, -1) ])) } ];
    steps =
      [ Parallelize ("c0_upd", "i"); Vectorize ("c0_upd", "l", 4);
        Unroll ("c0_upd", "r", 2) ] }

(* A strided load folded into a multiply-add: [a0[j][i]] steps a whole
   input row per [j], and it feeds the product of an [x + y*3] whose
   addend lands in a temp, so the vector tape binds [vfma r <- a0@s41,
   r:scalar] — the load read straight from memory.  37 columns leave an
   unroll remainder at every width: one lane of the 37-wide batch at the
   default lanes, every lane of the seq,lanes3 row's 3-lane batches. *)
let corpus_folded_fma =
  { extents = [ Lit 5; Lit 37 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, 0); (1, 1) ]),
                 Bin (Mul, In ("a0", [ (1, 0); (0, 0) ]), Const 3)) } ];
    steps = [ Parallelize ("c0", "i") ] }

(* A partial tile under a vectorized level, blur_large's shape: 21
   columns in tiles of 8 split into 4-lane vectors, so the last tile is
   5 wide and the vector loop's bound [min(20 - 8*j0 - 4*j1, 3)] reads
   the nest variable [j1].  [narrow] cuts [j0] where that bound folds,
   and the full tiles run as one claim deeper than [j1_v]. *)
let corpus_partial_tile =
  { extents = [ Lit 6; Lit 21 ];
    n_value = 0;
    inputs = [ ("a0", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = None;
          rc_expr =
            Bin (Add, In ("a0", [ (0, -1); (1, 1) ]),
                 In ("a0", [ (0, 1); (1, -2) ])) } ];
    steps = [ Tile ("c0", "i", "j", 3, 8); Vectorize ("c0", "j1", 4) ] }

(* Three stacked tiles, none dividing its extent, under a 2-lane vector
   loop: nearly every level carries a partial-tile bound, so the cuts
   nest deeply and [max_split_size] is what stops them. *)
let corpus_stacked_tiles =
  { corpus_partial_tile with
    extents = [ Lit 23; Lit 37 ];
    steps =
      [ Tile ("c0", "i", "j", 7, 9);
        Tile ("c0", "i1", "j1", 3, 4);
        Tile ("c0", "i11", "j11", 2, 3);
        Vectorize ("c0", "j111", 2) ] }

(* Fuzz generator seed 81793: c0_upd's parallel loop on [i] is fused with
   c1_init, whose inner dim is unrolled and shares the loop of c0_upd's
   [r].  The schedule as given lowers; widen-parallel used to grow c0_upd's
   parallel band onto [r], and lowering then rejected the loop tagged both
   parallel and unrolled.  Widening now refuses a tag that does not join
   the other tags of the loop it lands on. *)
let corpus_tag_join =
  { extents = [ NParam ];
    n_value = 1;
    inputs = [ ("a0", 1); ("a1", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 1;
          rc_expr =
            Bin (Min, Bin (Mul, In ("a1", [ (1, -1) ]), In ("a1", [ (0, -2) ])),
                 Bin (Add, In ("a0", [ (1, 0) ]), In ("a0", [ (1, 2) ]))) };
        { rc_name = "c1"; rc_rank = 1; rc_red = Some 4; rc_expr = Prod "c0" };
        { rc_name = "c2"; rc_rank = 1; rc_red = None;
          rc_expr =
            Bin (Sub, In ("a1", [ (0, 1) ]),
                 Bin (Add, In ("a1", [ (0, 0) ]), In ("a0", [ (0, -1) ]))) } ];
    steps = [ Split ("c0_init", "i", 2);
      Parallelize ("c0_upd", "i");
      Unroll ("c1_init", "i", 3);
      Fuse ("c1_init", "c0_init", "root") ] }

(* Fuzz generator seeds 45486 and 72408: tiny programs whose stacked
   split/unroll div/mod pairs fill a widening trial's Omega queries with
   copies of a dozen rows.  Fourier–Motzkin steps keep one row per
   coefficient vector, so every trial of either seed takes under 600 units
   of work; keeping the copies, the first shadow asked for 28 million. *)
let corpus_seed_45486 =
  { extents = [ Lit 3 ];
    n_value = 1;
    inputs = [ ("a0", 1); ("a1", 1) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 4;
          rc_expr = Bin (Max, In ("a0", [ (1, 2) ]), In ("a1", [ (1, -2) ])) };
        { rc_name = "c1"; rc_rank = 1; rc_red = None;
          rc_expr = Bin (Mul, In ("a0", [ (0, 0) ]), Prod "c0") } ];
    steps = [ Tile ("c0_upd", "i", "r", 4, 2);
      Shift ("c0_upd", "i0", 1);
      Parallelize ("c0_upd", "i0");
      Unroll ("c0_upd", "r1", 4) ] }

let corpus_seed_72408 =
  { extents = [ Lit 1; NParam ];
    n_value = 2;
    inputs = [ ("a0", 1); ("a1", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 3;
          rc_expr = In ("a0", [ (0, -1) ]) } ];
    steps = [ Unroll ("c0_upd", "r", 2);
      Unroll ("c0_upd", "r_u", 4);
      Interchange ("c0_upd", "r", "i");
      Parallelize ("c0_upd", "j") ] }

(* The same conflict written by the schedule itself. *)
let corpus_tag_conflict =
  { corpus_tag_join with steps = corpus_tag_join.steps @ [ Parallelize ("c0_upd", "r") ] }

(* Negation and every unary intrinsic the tape has, over values that
   include both zeros ([0 * a0] is -0 where a0 < 0) and that make ±inf
   ([log 0], [exp 1000]) and NaN ([sqrt] of negatives, [sin inf]).
   The generator never draws [Un], so this case is what puts the scalar
   tape's unary arms ([lanes = 1]) under the differential check; the
   parallel step adds the pool rows. *)
let corpus_unary =
  let a0 = In ("a0", [ (0, 0) ]) in
  let zero = Bin (Mul, a0, Const 0) and big = Bin (Mul, a0, Const 1000) in
  let comp i e = { rc_name = Printf.sprintf "c%d" i; rc_rank = 1; rc_red = None; rc_expr = e } in
  { extents = [ Lit 9 ];
    n_value = 0;
    inputs = [ ("a0", 1) ];
    comps =
      List.mapi comp
        [ Un (Neg, zero);
          Un (Abs, Un (Neg, a0));
          Un (Sqrt, Bin (Add, a0, zero));
          Un (Exp, big);
          Un (Log, zero);
          Un (Sin, Un (Exp, big));
          Un (Cos, a0);
          Un (Floor, Un (Neg, zero)) ];
    steps = [ Parallelize ("c3", "i") ] }

(* The replay corpus's passing cases, by name. *)
let replay_cases =
  [ ("neg floord/emod", corpus_neg_floord);
    ("split of 1 iteration", corpus_split_one);
    ("zero extent", corpus_zero_extent);
    ("one iteration unrolled", corpus_one_unroll);
    ("exact unroll remainder 0", corpus_exact_unroll);
    ("vector epilogue", corpus_vector_epilogue);
    ("reduction", corpus_reduction);
    ("coalesced parallel nest", corpus_coalesce);
    ("dynamic pool schedule", corpus_dynamic);
    ("tape stencil", corpus_tape_stencil);
    ("tape reduction", corpus_tape_reduction);
    ("vector tape epilogue", corpus_vector_tape_epilogue);
    ("vector tape zero extent", corpus_vector_tape_short 0);
    ("vector tape one-trip", corpus_vector_tape_short 1);
    ("vector tape sub-lane extent", corpus_vector_tape_short 3);
    ("symbolic N = 5", corpus_nparam 5);
    ("symbolic N = 0", corpus_nparam 0) ]
  @ List.map
      (fun n -> (Printf.sprintf "clamped 1-D, N = %d" n, corpus_clamped_1d n))
      [ 0; 1; 2; 3; 13 ]
  @ List.map
      (fun n -> (Printf.sprintf "clamped 2-D, %d rows" n, corpus_clamped_2d n))
      [ 0; 1; 2; 3; 10 ]
  @ [ ("clamped stencil and reduction", corpus_clamped_reduction);
      ("partial tile under a vectorized level", corpus_partial_tile);
      ("three stacked non-dividing tiles", corpus_stacked_tiles);
      ("outer lanes, 1-D reduction", corpus_outer_lanes_1d);
      ("outer lanes, 2-D reduction", corpus_outer_lanes_2d);
      ("outer lanes, 2-D accumulator block", corpus_outer_lanes_block);
      ("strided load folded into an fma", corpus_folded_fma);
      ("seed 81793: widening stops at an unrolled loop", corpus_tag_join);
      ("unary ops over ±0, ±inf and NaN", corpus_unary);
      ("seed 45486: stacked tile and unroll", corpus_seed_45486);
      ("seed 72408: stacked unrolls", corpus_seed_72408) ]

let replay_corpus () =
  List.iter (fun (name, case) -> check_pass name case) replay_cases;
  check_rejected "parallel and unrolled on one loop" corpus_tag_conflict

(* The tape seeds must actually reach the tape: compile each through the
   pipeline and check the per-compile counters, with the tape-off control
   at zero.  Guards the corpus against rotting into closure-only paths. *)
let tape_corpus_reaches_tape () =
  List.iter
    (fun (name, case) ->
      let b = Case.build case in
      let exec_of tape =
        (Tiramisu_kernels.Runner.build_native ~tape ~fn:b.Case.fn
           ~params:b.Case.params ~inputs:b.Case.fills ())
          .Tiramisu_pipeline.Pipeline.exec
      in
      let on = exec_of true and off = exec_of false in
      Alcotest.(check bool)
        (name ^ ": tape claims at least one nest")
        true
        (B.Exec.tape_count on >= 1);
      Alcotest.(check int)
        (name ^ ": no runtime fallbacks")
        0
        (B.Exec.tape_fallbacks on);
      Alcotest.(check int)
        (name ^ ": tape-off control compiles zero tapes")
        0 (B.Exec.tape_count off))
    [ ("stencil", corpus_tape_stencil); ("reduction", corpus_tape_reduction) ]

(* The unary seed must reach what it pins: its outputs hold +0, -0, +inf,
   -inf and NaN, and on a [lanes = 1] build the tape claims every
   computation's nest, so the scalar tape runs each unary arm. *)
let unary_corpus_reaches_scalar_tape () =
  let b = Case.build corpus_unary in
  let values =
    let ast = (Tiramisu_pipeline.Pipeline.lower b.Case.fn).Tiramisu_core.Lower.ast in
    let it = Differential.interp_of b ast in
    List.concat_map
      (fun o -> Array.to_list (B.Interp.buffer it o).B.Buffers.data)
      b.Case.outputs
  in
  List.iter
    (fun (what, p) -> Alcotest.(check bool) ("an output is " ^ what) true (List.exists p values))
    [ ("+0", fun x -> Int64.bits_of_float x = 0L);
      ("-0", fun x -> Int64.bits_of_float x = Int64.min_int);
      ("+inf", fun x -> x = Float.infinity);
      ("-inf", fun x -> x = Float.neg_infinity);
      ("NaN", Float.is_nan) ];
  let art =
    Tiramisu_kernels.Runner.build_native ~lanes:1 ~fn:b.Case.fn
      ~params:b.Case.params ~inputs:b.Case.fills ()
  in
  Alcotest.(check int) "the tape claims every nest"
    (List.length corpus_unary.comps) (B.Exec.tape_count art.Tiramisu_pipeline.Pipeline.exec);
  Alcotest.(check int) "no runtime fallbacks" 0
    (B.Exec.tape_fallbacks art.Tiramisu_pipeline.Pipeline.exec)

(* The clamped seeds must reach what they pin: on the sequential row the
   narrow pass splits a clamped loop and the tape claims a nest. *)
let clamped_corpus_splits () =
  let module P = Tiramisu_pipeline.Pipeline in
  (* a cache hit would skip the passes whose note this test reads *)
  P.clear_cache ();
  List.iter
    (fun (name, case) ->
      let b = Case.build case in
      let row = List.hd (Differential.exec_configs case) in
      let art, trace = Differential.run_row b row in
      let note =
        match
          List.find_opt (fun p -> p.P.p_name = "narrow") trace.P.t_passes
        with
        | Some p -> p.P.p_note
        | None -> ""
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: narrow split a loop (%s)" name note)
        true
        (Astring.String.is_prefix ~affix:"split " note);
      Alcotest.(check bool)
        (name ^ ": tape claims a nest")
        true
        (B.Exec.tape_count art.P.exec >= 1))
    [ ("1-D", corpus_clamped_1d 13);
      ("2-D", corpus_clamped_2d 10);
      ("stencil and reduction", corpus_clamped_reduction) ]

(* The partial-tile seed must reach what it pins: on the sequential row
   [narrow] cuts a loop at the vector loop's bound, and the tape claims a
   nest deeper than the vector loop and its parent.  The stacked-tiles
   seed's narrowed statement stays within the split size limit. *)
let partial_tile_corpus_cuts () =
  let module P = Tiramisu_pipeline.Pipeline in
  P.clear_cache ();
  let b = Case.build corpus_partial_tile in
  let row = List.hd (Differential.exec_configs corpus_partial_tile) in
  let art, trace = Differential.run_row b row in
  let note =
    match List.find_opt (fun p -> p.P.p_name = "narrow") trace.P.t_passes with
    | Some p -> p.P.p_note
    | None -> ""
  in
  Alcotest.(check bool)
    (Printf.sprintf "narrow cut at the vector loop's bound (%s)" note)
    true
    (Astring.String.is_infix ~affix:"(bound j1_v" note);
  let nests = List.map fst (B.Exec.lane_modes art.P.exec) in
  Alcotest.(check bool)
    (Printf.sprintf "a claimed nest 3+ levels deep (%s)"
       (String.concat "; " nests))
    true
    (List.exists
       (fun n -> List.length (String.split_on_char '.' n) >= 3)
       nests);
  let narrowed = ref None in
  let tracer =
    P.make_tracer
      ~on_after:(fun pass s -> if pass = "narrow" then narrowed := Some s)
      ~name:"stacked" ()
  in
  let b = Case.build corpus_stacked_tiles in
  ignore
    (P.build ~tracer ~knobs:P.default_knobs ~fn:b.Case.fn
       ~params:b.Case.params ~inputs:b.Case.fills ());
  match !narrowed with
  | None -> Alcotest.fail "stacked tiles: no narrow pass ran"
  | Some s ->
      let size = Tiramisu_codegen.Passes.stmt_size s in
      Alcotest.(check bool)
        (Printf.sprintf "stacked tiles: narrowed size %d <= %d" size
           Tiramisu_codegen.Passes.max_split_size)
        true
        (size <= Tiramisu_codegen.Passes.max_split_size)

(* The two pool-schedule seeds must keep reaching their driver under the
   forced plan: the coalesced nest runs static, seed 222's kept loop runs
   dynamically (kept, yet not static). *)
let pool_corpus_reaches_both_schedules () =
  List.iter
    (fun (name, case, static) ->
      let b = Case.build case in
      let a =
        Tiramisu_pipeline.Pipeline.build
          ~knobs:
            { Tiramisu_pipeline.Pipeline.default_knobs with
              Tiramisu_pipeline.Pipeline.plan = `Force }
          ~fn:b.Case.fn ~params:b.Case.params ~inputs:b.Case.fills ()
      in
      Alcotest.(check int)
        (name ^ ": forced plan serializes nothing")
        0 a.Tiramisu_pipeline.Pipeline.plan_report
            .Tiramisu_codegen.Parallel_plan.r_serialized;
      Alcotest.(check int)
        (name ^ ": pool loops on the static schedule")
        static
        (B.Exec.static_count a.Tiramisu_pipeline.Pipeline.exec))
    [ ("coalesce", corpus_coalesce, 1); ("dynamic", corpus_dynamic, 0) ]

(* A case's pool rows and their widen-parallel passes, built the way
   [Differential.run_case] builds them: through the case's lowering memo,
   one lowering per class of rows. *)
let pool_row_widenings case =
  let module P = Tiramisu_pipeline.Pipeline in
  let b = Case.build case in
  let lowerings = P.lowerings b.Case.fn in
  List.filter_map
    (fun ((tag, k) as row) ->
      if not (B.Target.pool_schedulable k.P.target) then None
      else
        let _, trace = Differential.run_row ~lowerings b row in
        match
          List.find_opt (fun p -> p.P.p_name = "widen-parallel") trace.P.t_passes
        with
        | None -> Alcotest.failf "%s: no widen-parallel pass in the trace" tag
        | Some p -> Some (tag, p, trace))
    (Differential.exec_configs case)

(* The fuzz rows are built the way [Pipeline.build] builds them, so they
   run the passes users get: on seed 42 every pool row's trace must show
   widen-parallel widening at least one dim, and the case must still pass
   bit-exactly.  The five pool rows fall in two lowering classes (tape on
   and off), so widen-parallel ran twice and each row shows its class's
   run. *)
let pool_rows_run_widen_parallel () =
  let module P = Tiramisu_pipeline.Pipeline in
  let rows = pool_row_widenings corpus_widen in
  Alcotest.(check int) "five pool rows" 5 (List.length rows);
  List.iter
    (fun (tag, p, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: widen-parallel widened a dim (%s)" tag p.P.p_note)
        true
        (p.P.p_note <> "no dim widened"))
    rows;
  let runs =
    List.fold_left
      (fun acc (_, p, _) -> if List.memq p acc then acc else p :: acc)
      [] rows
  in
  Alcotest.(check int) "one widening per lowering class" 2 (List.length runs);
  check_pass "seed 42 bit-exact on every row" corpus_widen

(* Rows built through a case's lowering memo compile what fresh builds
   compile: for the replay corpus and generator seeds 1-200, every row
   built the way [Differential.run_case] builds it (the scheduled
   reference lowered through the memo first) has the key hash and the pass
   names of a [Pipeline.build] of a freshly built case, both from a
   cleared compile cache. *)
let memo_rows_match_fresh_builds () =
  let module P = Tiramisu_pipeline.Pipeline in
  let names (t : P.trace) = List.map (fun p -> p.P.p_name) t.P.t_passes in
  let check name case =
    let b = Case.build case in
    let lowerings = P.lowerings b.Case.fn in
    ignore (P.lower ~lowerings b.Case.fn : Tiramisu_core.Lower.t);
    List.iter
      (fun ((tag, knobs) as row) ->
        P.clear_cache ();
        let art, trace = Differential.run_row ~lowerings b row in
        P.clear_cache ();
        let b' = Case.build case in
        let tracer = P.make_tracer () in
        let fresh =
          P.build ~tracer ~knobs ~fn:b'.Case.fn ~params:b'.Case.params
            ~inputs:b'.Case.fills ()
        in
        let what = Printf.sprintf "%s %s" name tag in
        Alcotest.(check int) (what ^ ": key hash") fresh.P.key_hash
          art.P.key_hash;
        Alcotest.(check (list string)) (what ^ ": passes")
          (names (P.trace_of tracer)) (names trace))
      (Differential.exec_configs case)
  in
  List.iter (fun (name, case) -> check name case) replay_cases;
  for s = 1 to 200 do
    check (Printf.sprintf "seed %d" s) (Fuzz.gen_seed s)
  done

(* A memo belongs to one function value: passing it with another, even
   one built the same way, is refused before anything is lowered. *)
let memo_of_another_function () =
  let module P = Tiramisu_pipeline.Pipeline in
  let b = Case.build corpus_widen and other = Case.build corpus_widen in
  let lowerings = P.lowerings b.Case.fn in
  let refused what f =
    let calls = P.lower_calls () in
    (match f () with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.failf "%s: another function's memo was accepted" what);
    Alcotest.(check int) (what ^ ": nothing lowered") calls (P.lower_calls ())
  in
  refused "lower" (fun () -> ignore (P.lower ~lowerings other.Case.fn));
  refused "build" (fun () ->
      ignore
        (P.build ~lowerings ~fn:other.Case.fn ~params:other.Case.params
           ~inputs:other.Case.fills ()))

(* A case lowers once per lowering class: the unscheduled reference, then
   the scheduled function for the sequential rows with the tape on and
   off (the second is the scheduled reference), and, when it parallelizes,
   for the pool rows with the tape on and off.  So 3 lowerings per
   sequential replay case and 5 per parallel one. *)
let case_lowers_once_per_class () =
  let module P = Tiramisu_pipeline.Pipeline in
  List.iter
    (fun (name, case) ->
      let calls = P.lower_calls () in
      check_pass name case;
      Alcotest.(check int) (name ^ ": lowerings")
        (if Case.has_parallel case then 5 else 3)
        (P.lower_calls () - calls))
    replay_cases

(* Each case's pool rows note the widening they ran, as pinned, and the
   verdict is the work budget's, not a clock's: two runs from a cleared
   compile cache give the same traces, timings aside. *)
let check_widening_notes cases =
  let module P = Tiramisu_pipeline.Pipeline in
  let untimed rows =
    List.map
      (fun (tag, _, trace) ->
        ( tag,
          List.map
            (fun p -> (p.P.p_name, p.P.p_note, p.P.p_verify, p.P.p_before, p.P.p_after))
            trace.P.t_passes ))
      rows
  in
  let cold case =
    P.clear_cache ();
    pool_row_widenings case
  in
  List.iter
    (fun (name, case, note) ->
      let rows = cold case in
      Alcotest.(check bool) (name ^ ": has pool rows") true (rows <> []);
      List.iter
        (fun (tag, p, _) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s: widen-parallel note" name tag)
            note p.P.p_note)
        rows;
      Alcotest.(check bool) (name ^ ": two runs, the same traces") true
        (untimed rows = untimed (cold case));
      check_pass name case)
    cases

(* Seeds 45486 and 72408: every pool row's widening finishes within its
   work budget. *)
let seeds_widen_within_budget () =
  check_widening_notes
    [ ("seed 45486", corpus_seed_45486, "no dim widened");
      ("seed 72408", corpus_seed_72408, "c0_upd/i, c0_upd/r_u") ]

(* One reduction whose [j] and [r] are tiled three times over, with the
   split of an inner tile in between, and a tile loop of [r] run in
   parallel.  Widening proves seven dims parallel; the eighth trial asks
   one Fourier–Motzkin step for about 2.1 million pairs of bounds, more
   than [Deps.trial_fuel], and the budget refuses it before any is built,
   so the trial over budget costs next to nothing. *)
let corpus_tile_stack =
  { extents = [ Lit 5; NParam ];
    n_value = 3;
    inputs = [ ("a0", 1); ("a1", 2) ];
    comps =
      [ { rc_name = "c0"; rc_rank = 2; rc_red = Some 3;
          rc_expr = In ("a1", [ (0, 0); (1, 1) ]) } ];
    steps = [ Tile ("c0_upd", "j", "r", 3, 2);
      Split ("c0_upd", "r1", 7);
      Interchange ("c0_upd", "r10", "r0");
      Tile ("c0_upd", "r0", "r11", 5, 5);
      Tile ("c0_upd", "r110", "r01", 5, 2);
      Tile ("c0_upd", "j0", "r10", 3, 3);
      Parallelize ("c0_upd", "r1100") ] }

(* The stacked tiles' pool rows each note the seven dims widened and the
   widening given up after them. *)
let over_budget_widening_noted () =
  check_widening_notes
    [ ("stacked tiles", corpus_tile_stack,
       "c0_upd/r00, c0_upd/j1, c0_upd/r101, c0_upd/j01, c0_upd/r100, \
        c0_upd/j00, c0_upd/i, " ^ Tiramisu_pipeline.Pipeline.widen_spent_note) ]

(* A trial over budget hands its tag back: after widen-parallel gives up,
   every dim it did not widen carries the user's tag, and the undo closure
   restores the whole schedule. *)
let spent_trial_restores_tags () =
  let module D = Tiramisu_deps.Deps in
  let module Ir = Tiramisu_core.Ir in
  let b = Case.build corpus_tile_stack in
  let tags () =
    List.concat_map
      (fun (c : Ir.computation) ->
        List.map
          (fun (d : Ir.dim) -> ((c.Ir.comp_name, d.Ir.d_name), d.Ir.d_tag))
          c.Ir.sched.Ir.dims)
      b.fn.Ir.comps
  in
  let before = tags () in
  let widened, spent, undo = D.widen_parallel b.fn in
  Alcotest.(check bool) "the trial ran over its budget" true spent;
  List.iter
    (fun (key, tag) ->
      if not (List.mem key widened) then
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s keeps its tag" (fst key) (snd key))
          true
          (List.assoc key before = tag))
    (tags ());
  undo ();
  Alcotest.(check bool) "undo restores every tag" true (tags () = before)

(* And the lane seeds must actually reach the vector tier (the scalar
   control at lanes=1 must not), or the epilogue corpus is testing
   nothing. *)
let vector_corpus_reaches_vector () =
  List.iter
    (fun (name, case) ->
      let b = Case.build case in
      let exec_of lanes =
        (Tiramisu_kernels.Runner.build_native ~lanes ~fn:b.Case.fn
           ~params:b.Case.params ~inputs:b.Case.fills ())
          .Tiramisu_pipeline.Pipeline.exec
      in
      let vec = exec_of 8 and scalar = exec_of 1 in
      Alcotest.(check bool)
        (name ^ ": vector tier binds at least one nest")
        true
        (B.Exec.tape_vec_count vec >= 1);
      Alcotest.(check int)
        (name ^ ": lanes=1 control binds none")
        0
        (B.Exec.tape_vec_count scalar))
    [ ("epilogue", corpus_vector_tape_epilogue);
      ("sub-lane", corpus_vector_tape_short 3) ]

(* The folded-fma seed must reach what it pins: at the default lanes and
   at 3 (the seq,lanes3 row), a bound vector tape multiply-adds a strided
   operand read straight from memory. *)
let folded_fma_corpus_folds () =
  let b = Case.build corpus_folded_fma in
  List.iter
    (fun lanes ->
      let exec =
        (Tiramisu_kernels.Runner.build_native ~lanes ~fn:b.Case.fn
           ~params:b.Case.params ~inputs:b.Case.fills ())
          .Tiramisu_pipeline.Pipeline.exec
      in
      let lines =
        List.concat_map
          (fun (_, bt) -> String.split_on_char '\n' (B.Tape.listing bt))
          (B.Exec.bound_tapes exec)
      in
      Alcotest.(check bool)
        (Printf.sprintf "lanes %d: vfma reads a strided operand (%s)" lanes
           (String.concat " | " lines))
        true
        (List.exists
           (fun l ->
             Astring.String.is_infix ~affix:"vfma" l
             && Astring.String.is_infix ~affix:"a0@s" l)
           lines))
    [ B.Tape.default_lanes; 3 ]

(* The register-blocked reduction seeds must bind an accumulator nest
   with lanes along the vectorized level at lanes=8, and the lanes=1
   control must bind no nest with lanes. *)
let outer_lane_corpus_reaches_vector () =
  List.iter
    (fun (name, case) ->
      let b = Case.build case in
      let exec_of lanes =
        (Tiramisu_kernels.Runner.build_native ~lanes ~fn:b.Case.fn
           ~params:b.Case.params ~inputs:b.Case.fills ())
          .Tiramisu_pipeline.Pipeline.exec
      in
      let vec = exec_of 8 and scalar = exec_of 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: an accumulator binds lanes along an outer level (%s)"
           name
           (String.concat "; "
              (List.map
                 (fun (n, m) -> n ^ ": " ^ B.Tape.mode_to_string m)
                 (B.Exec.lane_modes vec))))
        true
        (List.exists
           (fun (_, m) ->
             match m with
             | B.Tape.Outer { rows = None; width = 8; _ } -> true
             | _ -> false)
           (B.Exec.lane_modes vec));
      Alcotest.(check int)
        (name ^ ": lanes=1 control binds none")
        0
        (B.Exec.tape_vec_count scalar))
    [ ("outer 1-D", corpus_outer_lanes_1d);
      ("outer 2-D", corpus_outer_lanes_2d) ]

(* The block seed binds its update nest as a 5 x 8 block at the default
   lanes, and as a 1-D run when the lanes fit a single row. *)
let outer_block_corpus_binds_block () =
  let b = Case.build corpus_outer_lanes_block in
  let modes ?lanes () =
    let art =
      Tiramisu_kernels.Runner.build_native ?lanes ~fn:b.Case.fn
        ~params:b.Case.params ~inputs:b.Case.fills ()
    in
    List.filter_map
      (fun (_, m) ->
        match m with
        | B.Tape.Outer _ -> Some (B.Tape.mode_to_string m)
        | _ -> None)
      (B.Exec.lane_modes art.Tiramisu_pipeline.Pipeline.exec)
  in
  Alcotest.(check (list string)) "default lanes: a 5 x 8 block"
    [ "outer j_1 x5 × l_v_ln x8" ] (modes ());
  Alcotest.(check (list string)) "8 lanes: one row"
    [ "outer l_v_ln x8" ] (modes ~lanes:8 ())

(* ---------- legality oracle ---------- *)

(* Ordering a producer after its consumer must be rejected. *)
let oracle_rejects_inverted_order () =
  check_rejected "consumer before producer"
    { extents = [ Lit 4 ];
      n_value = 0;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = None;
            rc_expr = In ("a0", [ (0, 0) ]) };
          { rc_name = "c1"; rc_rank = 1; rc_red = None; rc_expr = Prod "c0" } ];
      steps = [ Fuse ("c0", "c1", "root") ] }

(* Reversing the reduction dim inverts the in-place accumulation's
   self-dependence. *)
let oracle_rejects_reversed_reduction () =
  check_rejected "reversed reduction dim"
    { extents = [ Lit 3 ];
      n_value = 0;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 3;
            rc_expr = In ("a0", [ (1, 0) ]) } ];
      steps = [ Reverse ("c0_upd", "r") ] }

(* The same reduction under legal steps passes, so the rejection above is
   the schedule's fault, not the program's. *)
let oracle_accepts_legal_reduction () =
  check_pass "legal reduction schedule"
    { extents = [ Lit 3 ];
      n_value = 0;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = Some 3;
            rc_expr = In ("a0", [ (1, 0) ]) } ];
      steps = [ Unroll ("c0_upd", "r", 2); Shift ("c0_upd", "i", 1) ] }

(* Fuzzer-found races (shrunk from sweep seeds 3320 and 1188): the
   time-space mapping orders these dependences correctly, but the shared
   fused loop is parallelized — by a *third* computation's tag in the
   first case — while vectorize's separation makes the producer write all
   its points at fused iteration 0, so the consumer at iteration i > 0
   reads across iterations of a parallel loop.  Sequential backends and
   the planner-serialized pool masked it; a per-entry domain-spawning
   executor lost the race.  The oracle must reject the tag, not just the
   mapping. *)
let oracle_rejects_parallel_carried () =
  let racy =
    { extents = [ Lit 2 ];
      n_value = 3;
      inputs = [ ("a0", 1) ];
      comps =
        [ { rc_name = "c0"; rc_rank = 1; rc_red = None; rc_expr = Const 6 };
          { rc_name = "c1"; rc_rank = 1; rc_red = None; rc_expr = Prod "c0" };
          { rc_name = "c2"; rc_rank = 1; rc_red = None; rc_expr = Const 1 } ];
      steps =
        [ Fuse ("c1", "c0", "i");
          Vectorize ("c0", "i", 4);
          Parallelize ("c2", "i");
          Fuse ("c2", "c1", "i") ] }
  in
  check_rejected "dep carried by a third comp's parallel tag" racy;
  (* Same fusion without the parallel tag is ordered by the mapping. *)
  check_pass "same fusion untagged"
    { racy with
      steps =
        [ Fuse ("c1", "c0", "i");
          Vectorize ("c0", "i", 4);
          Fuse ("c2", "c1", "i") ] };
  check_rejected "dep carried under split + parallel fusion"
    { extents = [ Lit 1; Lit 1; Lit 2 ];
      n_value = 5;
      inputs = [];
      comps =
        [ { rc_name = "c0"; rc_rank = 3; rc_red = None; rc_expr = Const 1 };
          { rc_name = "c1"; rc_rank = 3; rc_red = None; rc_expr = Prod "c0" } ];
      steps =
        [ Fuse ("c1", "c0", "l");
          Parallelize ("c0", "j");
          Split ("c0", "i", 4) ] }

(* ---------- directed: floored div/mod (loop-IR level) ---------- *)

(* Interp vs every Exec configuration on a hand-built loop IR stmt: the
   tape on and off, crossed with the statement compiled verbatim and after
   the pipeline's statement passes ([Pipeline.prepare]). *)
let differential_stmt ?(strategies = [ `Seq ]) ~shapes ~fills stmt outs =
  let mk () =
    List.map
      (fun (name, dims) ->
        let b = B.Buffers.create name (Array.of_list dims) in
        (match List.assoc_opt name fills with
        | Some f -> B.Buffers.fill b f
        | None -> ());
        b)
      shapes
  in
  let t = B.Interp.create ~params:[] ~buffers:(mk ()) () in
  B.Interp.run t stmt;
  List.iter
    (fun strategy ->
      List.iter
        (fun (tape, prepared) ->
          let s =
            if prepared then
              Tiramisu_pipeline.Pipeline.prepare ~params:[] stmt
            else stmt
          in
          let c =
            B.Exec.compile
              ~target:(B.Target.cpu ~parallel:strategy ())
              ?claims:
                (if tape then None
                 else Some Tiramisu_codegen.Tape_gen.no_claims)
              ~params:[] ~buffers:(mk ()) s
          in
          B.Exec.run c;
          List.iter
            (fun o ->
              Alcotest.(check bool)
                (Printf.sprintf "%s bit-identical (tape=%b prepared=%b)" o
                   tape prepared)
                true
                (B.Buffers.bits_equal (B.Interp.buffer t o)
                   (B.Exec.buffer c o)))
            outs)
        [ (true, true); (false, true); (true, false); (false, false) ])
    strategies

(* i - 5 over i in [0, 9] gives negative numerators for both / and mod:
   floored semantics must agree between the interpreter and the executor
   (and differ from C's truncation, which the emod/floord helpers paper
   over in the C emitter). *)
let floored_div_mod_negative () =
  let num = L.(Bin (Sub, Var "i", Int 5)) in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 9; tag = L.Seq;
        body =
          L.Block
            [
              L.Store ("q", [ L.Var "i" ], L.(Bin (FloorDiv, num, Int 3)));
              L.Store ("m", [ L.Var "i" ], L.(Bin (Mod, num, Int 3)));
              L.Store ("qn", [ L.Var "i" ], L.(Bin (FloorDiv, num, Int (-3))));
              L.Store ("mn", [ L.Var "i" ], L.(Bin (Mod, num, Int (-3))));
            ] }
  in
  differential_stmt stmt
    [ "q"; "m"; "qn"; "mn" ]
    ~shapes:[ ("q", [ 10 ]); ("m", [ 10 ]); ("qn", [ 10 ]); ("mn", [ 10 ]) ]
    ~fills:[];
  (* Pin the convention itself: floored, result takes the divisor's sign. *)
  let module I = Tiramisu_support.Ints in
  Alcotest.(check int) "fdiv (-5) 3" (-2) (I.fdiv (-5) 3);
  Alcotest.(check int) "emod (-5) 3" 1 (I.emod (-5) 3);
  Alcotest.(check int) "fdiv 5 (-3)" (-2) (I.fdiv 5 (-3));
  Alcotest.(check int) "emod 5 (-3)" (-1) (I.emod 5 (-3))

(* The C emitter must route % through the emod helper (and define it). *)
let c_emits_emod () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int (-4); hi = L.Int 4; tag = L.Seq;
        body =
          L.Store
            ( "out",
              [ L.Var "i" ],
              L.(Bin (Add, Bin (Mod, Var "i", Int 3),
                      Bin (FloorDiv, Var "i", Int 3))) ) }
  in
  let src =
    Tiramisu_codegen.C_emit.emit_function ~name:"k" ~params:[]
      ~buffers:[ ("out", [| 9 |]) ] stmt
  in
  let contains s sub = Astring.String.is_infix ~affix:sub s in
  Alcotest.(check bool) "emod helper defined" true
    (contains src "static inline int emod");
  Alcotest.(check bool) "mod emitted as emod call" true
    (contains src "emod(i, 3)");
  Alcotest.(check bool) "floordiv emitted as floord call" true
    (contains src "floord(i, 3)");
  Alcotest.(check bool) "no raw %% emitted in the body" false
    (contains src "i % 3")

(* ---------- directed: pragma placement ---------- *)

(* Every #pragma line must be immediately followed by its for-line — never
   separated by a guard if, a comment, or another statement. *)
let pragma_adjacency () =
  let inner tag =
    L.For
      { var = "j"; lo = L.Int 0; hi = L.Var "m"; tag;
        body = L.Store ("out", [ L.Var "j" ], L.Float 1.0) }
  in
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 7; tag = L.Parallel;
        body =
          L.Block
            [
              L.Comment "guarded vector loop";
              L.If
                ( L.Cmp (L.GeOp, L.Var "m", L.Int 0),
                  L.Block [ inner (L.Vectorized 4); inner L.Unrolled ],
                  None );
            ] }
  in
  let src =
    Tiramisu_codegen.C_emit.emit_function ~name:"k" ~params:[ "m" ]
      ~buffers:[ ("out", [| 64 |]) ] stmt
  in
  let lines =
    List.map String.trim (String.split_on_char '\n' src)
  in
  let rec check = function
    | p :: next :: rest ->
        if Astring.String.is_prefix ~affix:"#pragma" p then
          Alcotest.(check bool)
            (Printf.sprintf "pragma %S binds to a for-line (got %S)" p next)
            true
            (Astring.String.is_prefix ~affix:"for (" next);
        check (next :: rest)
    | _ -> ()
  in
  check lines;
  Alcotest.(check int) "all three pragmas emitted" 3
    (List.length
       (List.filter (Astring.String.is_prefix ~affix:"#pragma") lines))

(* ---------- directed: pool exception propagation ---------- *)

let pool_exception_propagates () =
  B.Pool.set_num_workers 4;
  (match
     B.Pool.parallel_for 0 10_000 ~body:(fun lo _hi ->
         if lo >= 0 then failwith "boom")
   with
  | () -> Alcotest.fail "expected the worker failure to surface"
  | exception Failure m ->
      Alcotest.(check string) "original exception surfaces" "boom" m);
  (* The pool survives the failed job: later loops run normally. *)
  let sum = Atomic.make 0 in
  B.Pool.parallel_for 1 100 ~body:(fun lo hi ->
      let s = ref 0 in
      for i = lo to hi do
        s := !s + i
      done;
      ignore (Atomic.fetch_and_add sum !s));
  Alcotest.(check int) "pool usable after a failure" 5050 (Atomic.get sum)

(* An out-of-bounds store inside a Parallel loop must surface as the
   original Invalid_argument through both runtime strategies. *)
let exec_parallel_exceptions () =
  B.Pool.set_num_workers 4;
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 999; tag = L.Parallel;
        body = L.Store ("out", [ L.Var "i" ], L.Float 1.0) }
  in
  List.iter
    (fun (name, strategy) ->
      let out = B.Buffers.create "out" [| 10 |] in
      let c =
        B.Exec.compile
          ~target:(B.Target.cpu ~parallel:strategy ())
          ~params:[] ~buffers:[ out ] stmt
      in
      match B.Exec.run c with
      | () -> Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument _ -> ())
    [ ("pool", `Pool); ("seq", `Seq) ]

(* ---------- directed: per-compile counters ---------- *)

let counters_per_compile () =
  let stmt =
    L.For
      { var = "i"; lo = L.Int 0; hi = L.Int 3; tag = L.Parallel;
        body =
          L.For
            { var = "j"; lo = L.Int 0; hi = L.Int 63; tag = L.Unrolled;
              body =
                L.Store
                  ( "out",
                    [ L.Var "i"; L.Var "j" ],
                    L.(Bin (Mul, Load ("a", [ Var "i"; Var "j" ]), Float 2.0))
                  ) } }
  in
  let mk () =
    [ B.Buffers.create "a" [| 4; 64 |]; B.Buffers.create "out" [| 4; 64 |] ]
  in
  let compile strategy =
    B.Exec.compile
      ~target:(B.Target.cpu ~parallel:strategy ())
      ~params:[] ~buffers:(mk ()) stmt
  in
  let c1 = compile `Pool and c2 = compile `Pool in
  Alcotest.(check int) "tape_count identical across recompiles"
    (B.Exec.tape_count c1) (B.Exec.tape_count c2);
  Alcotest.(check int) "static_count identical across recompiles"
    (B.Exec.static_count c1) (B.Exec.static_count c2);
  Alcotest.(check int) "no pool loops under Seq" 0
    (B.Exec.static_count (compile `Seq))

(* The oracle and widen-parallel see a shared loop's tags as lowering
   joins them: a conflict is a typed violation, and the widening that
   would create one is refused. *)
let oracle_rejects_tag_conflict () =
  let module D = Tiramisu_deps.Deps in
  let conflicts fn =
    List.filter_map
      (function D.Tag_conflict { comps; level; tags } -> Some (comps, level, tags) | D.Order _ -> None)
      (D.check_legality fn)
  in
  let b = Case.build corpus_tag_conflict in
  Alcotest.(check (list (triple (list string) int (list string))))
    "one conflict, on c0_upd's r"
    [ ([ "c0_upd"; "c1_init" ], 3, [ "parallel for"; "unrolled for" ]) ]
    (List.map (fun (c, l, t) -> (c, l, List.map L.tag_name t)) (conflicts b.fn));
  let b = Case.build corpus_tag_join in
  let widened, _, undo = D.widen_parallel b.fn in
  Alcotest.(check bool) "c0_upd's r not widened" false (List.mem ("c0_upd", "r") widened);
  Alcotest.(check int) "widened schedule has no conflict" 0 (List.length (conflicts b.fn));
  undo ()

(* ---------- property: random seeds all pass ---------- *)

let prop_random_seeds =
  QCheck.Test.make ~count:40 ~name:"fuzz seeds pass differentially"
    (QCheck.make QCheck.Gen.(int_range 10_000 99_999))
    (fun seed ->
      match Fuzz.run_seed seed with
      | _, Differential.Pass -> true
      | _, o ->
          QCheck.Test.fail_reportf "seed %d: %s" seed
            (Differential.outcome_str o))

(* ---------- property: clamp splitting is exact ----------

   Random 1-/2-D stencils over clamped input accesses, from a generator
   local to this test (the fuzzer's own draws stay as they are).  Extents
   run 0..20 and favour the small ones, where the steady piece of a split
   is empty or a single point.  Each case builds through the pipeline on
   the sequential and pool targets with the tape on and off, and every
   output must equal, bit for bit, the interpreter's on the unscheduled
   (unsplit) program. *)

let gen_clamped_case =
  QCheck.Gen.(
    let ext = frequency [ (2, int_range 0 4); (1, int_range 5 20) ] in
    let* rank = int_range 1 2 in
    let* extents = list_repeat rank ext in
    let access =
      let* offs = list_repeat rank (int_range (-2) 2) in
      let* transpose = bool in
      let dims = List.mapi (fun d o -> (d, o)) offs in
      return
        (Clamped ("a0", if transpose && rank = 2 then List.rev dims else dims))
    in
    let* first = access in
    let* rest = list_size (int_range 0 2) access in
    let* ops = list_repeat (List.length rest) (oneofl [ Add; Sub; Max ]) in
    let expr =
      List.fold_left2 (fun e op a -> Bin (op, e, a)) first ops rest
    in
    let inner = if rank = 2 then "j" else "i" in
    let* steps =
      oneofl
        [ [];
          [ Parallelize ("c0", "i") ];
          [ Vectorize ("c0", inner, 4) ];
          [ Unroll ("c0", inner, 3) ];
          [ Parallelize ("c0", "i"); Vectorize ("c0", inner, 8) ] ]
    in
    return
      { extents = List.map (fun n -> Lit n) extents;
        n_value = 0;
        inputs = [ ("a0", rank) ];
        comps =
          [ { rc_name = "c0"; rc_rank = rank; rc_red = None; rc_expr = expr } ];
        steps })

let clamped_case_exact case =
  let module P = Tiramisu_pipeline.Pipeline in
  let b0 = Case.build ~with_steps:false case in
  let reference =
    Differential.interp_of b0 (P.lower b0.Case.fn).Tiramisu_core.Lower.ast
  in
  let b = Case.build case in
  List.for_all
    (fun (par, tape) ->
      let knobs =
        { P.default_knobs with P.target = B.Target.cpu ~parallel:par (); tape }
      in
      let art, _ = Differential.run_row b ("clamped", knobs) in
      List.for_all
        (fun out ->
          let x = List.find (fun b -> b.B.Buffers.name = out) art.P.buffers in
          B.Buffers.bits_equal (B.Interp.buffer reference out) x
          || QCheck.Test.fail_reportf "%s differs (%s, tape %b):\n%s" out
               (match par with `Seq -> "seq" | `Pool -> "pool") tape
               (Case.to_literal case))
        b.Case.outputs)
    [ (`Seq, true); (`Seq, false); (`Pool, true); (`Pool, false) ]

let prop_clamped_split_exact =
  QCheck.Test.make ~count:60 ~name:"clamp splitting is bit-exact"
    (QCheck.make ~print:Case.to_literal gen_clamped_case)
    clamped_case_exact

(* ---------- property: partial-tile bound cuts are exact ----------

   Random 2-D stencils, tiled 2..9 and vectorized 2, 4 or 8 wide (or
   only vectorized), over extents 0..40: partial tiles and vector
   remainders shorter than the width.  [narrow] cuts loops at the
   partial tiles' bounds; each case builds on the sequential and pool
   targets, tape on and off, lanes 8 and 1, and every output must equal,
   bit for bit, the interpreter's on the unscheduled program.  A local
   generator, so the fuzzer's own draws stay as they are. *)

let gen_partial_tile_case =
  QCheck.Gen.(
    let ext = frequency [ (2, int_range 0 12); (1, int_range 13 40) ] in
    let* ei = ext in
    let* ej = ext in
    let access =
      let* oi = int_range (-2) 2 in
      let* oj = int_range (-2) 2 in
      return (In ("a0", [ (0, oi); (1, oj) ]))
    in
    let* first = access in
    let* rest = list_size (int_range 0 2) access in
    let* ops = list_repeat (List.length rest) (oneofl [ Add; Sub; Max ]) in
    let expr = List.fold_left2 (fun e op a -> Bin (op, e, a)) first ops rest in
    let* ti = int_range 2 9 in
    let* tj = int_range 2 9 in
    let* w = oneofl [ 2; 4; 8 ] in
    let tile = Tile ("c0", "i", "j", ti, tj) in
    let* steps =
      oneofl
        [ [ tile; Vectorize ("c0", "j1", w) ];
          [ tile; Parallelize ("c0", "i0"); Vectorize ("c0", "j1", w) ];
          [ tile; Parallelize ("c0", "j0"); Vectorize ("c0", "j1", w) ];
          [ Parallelize ("c0", "i"); Vectorize ("c0", "j", w) ] ]
    in
    return
      { extents = [ Lit ei; Lit ej ];
        n_value = 0;
        inputs = [ ("a0", 2) ];
        comps =
          [ { rc_name = "c0"; rc_rank = 2; rc_red = None; rc_expr = expr } ];
        steps })

let partial_tile_case_exact case =
  let module P = Tiramisu_pipeline.Pipeline in
  let b0 = Case.build ~with_steps:false case in
  let reference =
    Differential.interp_of b0 (P.lower b0.Case.fn).Tiramisu_core.Lower.ast
  in
  let b = Case.build case in
  List.for_all
    (fun (par, tape, lanes) ->
      let knobs =
        { P.default_knobs with
          P.target = B.Target.cpu ~parallel:par (); tape; lanes }
      in
      let art, _ = Differential.run_row b ("partial-tile", knobs) in
      List.for_all
        (fun out ->
          let x = List.find (fun b -> b.B.Buffers.name = out) art.P.buffers in
          B.Buffers.bits_equal (B.Interp.buffer reference out) x
          || QCheck.Test.fail_reportf "%s differs (%s, tape %b, lanes %d):\n%s"
               out
               (match par with `Seq -> "seq" | `Pool -> "pool")
               tape lanes (Case.to_literal case))
        b.Case.outputs)
    (List.concat_map
       (fun par ->
         List.concat_map
           (fun tape -> [ (par, tape, 8); (par, tape, 1) ])
           [ true; false ])
       [ `Seq; `Pool ])

let prop_partial_tile_split_exact =
  QCheck.Test.make ~count:60 ~name:"partial-tile bound cuts are bit-exact"
    (QCheck.make ~print:Case.to_literal gen_partial_tile_case)
    partial_tile_case_exact

(* ---------- work budgets ----------

   The fuzzer's guards budget work, not time, so a seed generates and
   judges the same case on an idle, a busy, a slow and a fast machine;
   and a [Timeout] or [Budget_exceeded] that lands in a pass's
   differential-verify probe propagates to the guard instead of being
   judged as "probe skipped" or "pass broke the program". *)

let fuel_ignores_waiting () =
  let module Lm = Tiramisu_support.Limits in
  Alcotest.(check (option int)) "asleep on a budget of 1" (Some 7)
    (Lm.with_fuel 1 (fun () -> Unix.sleepf 0.05; 7));
  let spin () =
    while true do Lm.charge ~stage:"spin" 1 done
  in
  Alcotest.(check (option unit)) "a charging loop is stopped" None
    (Lm.with_fuel 1000 spin)

let probe_timeout_propagates () =
  let module P = Tiramisu_pipeline.Pipeline in
  let module Lm = Tiramisu_support.Limits in
  let b = Case.build corpus_widen in
  List.iter
    (fun (name, exn) ->
      let probe =
        Differential.probe_of b.fn ~params:b.params
          ~fills:(List.map (fun (n, _) -> (n, fun _ -> raise exn)) b.fills)
          ~outputs:b.outputs
      in
      let tracer = P.make_tracer ~probe ~name () in
      match P.lower ~tracer b.fn with
      | exception e when e = exn -> ()
      | exception e -> Alcotest.failf "%s: lower raised %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "the probe's %s was swallowed" name)
    [ ("Timeout", Lm.Timeout); ("Budget_exceeded", Lm.Budget_exceeded "probe") ]

let tests =
  [
    Alcotest.test_case "replay corpus" `Quick replay_corpus;
    Alcotest.test_case "oracle rejects inverted order" `Quick
      oracle_rejects_inverted_order;
    Alcotest.test_case "oracle rejects reversed reduction" `Quick
      oracle_rejects_reversed_reduction;
    Alcotest.test_case "oracle accepts legal reduction schedule" `Quick
      oracle_accepts_legal_reduction;
    Alcotest.test_case "oracle rejects parallel-carried dependences" `Quick
      oracle_rejects_parallel_carried;
    Alcotest.test_case "oracle rejects conflicting loop tags" `Quick
      oracle_rejects_tag_conflict;
    Alcotest.test_case "floored div/mod on negative operands" `Quick
      floored_div_mod_negative;
    Alcotest.test_case "C emitter uses emod/floord helpers" `Quick c_emits_emod;
    Alcotest.test_case "pragmas bind to their for-line" `Quick pragma_adjacency;
    Alcotest.test_case "pool propagates worker exceptions" `Quick
      pool_exception_propagates;
    Alcotest.test_case "exec surfaces exceptions from parallel loops" `Quick
      exec_parallel_exceptions;
    Alcotest.test_case "counters are per-compile" `Quick counters_per_compile;
    Alcotest.test_case "tape corpus reaches the tape" `Quick
      tape_corpus_reaches_tape;
    Alcotest.test_case "outer-lane corpus binds lanes along an outer level"
      `Quick outer_lane_corpus_reaches_vector;
    Alcotest.test_case "the block seed binds a 2-D accumulator block" `Quick
      outer_block_corpus_binds_block;
    Alcotest.test_case "vector corpus reaches the vector tier" `Quick
      vector_corpus_reaches_vector;
    Alcotest.test_case "clamped corpus splits and reaches the tape" `Quick
      clamped_corpus_splits;
    Alcotest.test_case "unary seed hits scalar tape" `Quick
      unary_corpus_reaches_scalar_tape;
    Alcotest.test_case "pool corpus reaches both pool schedules" `Quick
      pool_corpus_reaches_both_schedules;
    Alcotest.test_case "pool rows run widen-parallel" `Quick
      pool_rows_run_widen_parallel;
    Alcotest.test_case "over-budget widening is noted, deterministically"
      `Quick over_budget_widening_noted;
    Alcotest.test_case "seeds 45486 and 72408 widen within budget"
      `Quick seeds_widen_within_budget;
    Alcotest.test_case "memo rows compile what fresh builds compile" `Quick
      memo_rows_match_fresh_builds;
    Alcotest.test_case "a lowering memo refuses another function" `Quick
      memo_of_another_function;
    Alcotest.test_case "a case lowers once per lowering class" `Quick
      case_lowers_once_per_class;
    Alcotest.test_case "a spent widening trial hands back every tag" `Quick
      spent_trial_restores_tags;
    QCheck_alcotest.to_alcotest prop_random_seeds;
    QCheck_alcotest.to_alcotest prop_clamped_split_exact;
    Alcotest.test_case "partial-tile corpus cuts and claims deeper" `Quick
      partial_tile_corpus_cuts;
    QCheck_alcotest.to_alcotest prop_partial_tile_split_exact;
    Alcotest.test_case "fuzz budgets count work, not waiting" `Quick
      fuel_ignores_waiting;
    Alcotest.test_case "a Timeout in a verify probe propagates" `Quick
      probe_timeout_propagates;
    Alcotest.test_case "folded-fma seed folds a strided load" `Quick
      folded_fma_corpus_folds;
  ]

let () =
  B.Pool.set_num_workers 4;
  Alcotest.run "fuzz" [ ("differential-fuzz", tests) ]
