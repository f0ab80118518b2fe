(* A fuzz case is a *description* of a Tiramisu pipeline plus a schedule —
   not an opaque seed.  Keeping the description first-class is what makes
   shrinking possible (drop a computation, strip a step, shrink an extent
   and re-build) and lets failing cases be replayed from an OCaml literal
   checked into the regression corpus (test/test_fuzz.ml).

   Generated programs are arranged so that bit-exact comparison across
   backends and schedules is sound: inputs are filled with small integers,
   expressions use only Add/Sub/Mul/Min/Max with generator-side magnitude
   tracking, so every intermediate value is an exactly-representable
   integer-valued float.  Any dependence-preserving reorder then computes
   bit-identical results. *)

open Tiramisu_presburger
open Tiramisu_core
open Tiramisu
module E = Expr

type ext = Lit of int | NParam
(** Per-dimension extent: a literal, or the shared symbolic parameter [N]
    (whose runtime value is [n_value]) — the latter exercises the
    [Passes.narrow] symbolic-bound paths. *)

type binop = Add | Sub | Mul | Min | Max

type unop = Neg | Abs | Sqrt | Exp | Log | Sin | Cos | Floor
(** Negation and the unary intrinsics the tape executes. *)

type cexpr =
  | Const of int
  | In of string * (int * int) list
      (** Input access: per input dimension, [(consumer dim index, offset)].
          Consumer dim indices cover the free dims and, for reduction
          computations, the reduction dim (index = rank).  Offsets stay in
          [-pad, pad]; input domains are padded accordingly. *)
  | Clamped of string * (int * int) list
      (** Clamped input access: like [In], but each index is
          [clamp(dim + offset, 0, extent - 1)] over the consumer dim's
          extent — the border handling of conv2D and gaussian.  The
          generator never draws it; pinned cases use it. *)
  | Prod of string
      (** Identity access to an earlier computation (offset 0 on every dim).
          For a reduction producer this reads the final accumulator
          (the update computation at r = extent - 1). *)
  | Bin of binop * cexpr * cexpr
  | Un of unop * cexpr
      (** A unary float operation.  Its values leave the exact small
          integers (±0, ±inf, NaN and fractions), so the generator never
          draws it; pinned cases use it. *)

type rcomp = {
  rc_name : string;
  rc_rank : int;  (** number of free dims (1..3), shared extents *)
  rc_red : int option;
      (** [Some k]: accumulate [rc_expr] over a reduction dim r in [0, k) *)
  rc_expr : cexpr;
}

(* The schedule-step vocabulary is shared with the beam search
   (lib/autosched/sched_space.ml); re-exporting the constructors keeps the
   pinned corpus literals in test/test_fuzz.ml source-compatible. *)
type step = Tiramisu_autosched.Sched_space.action =
  | Split of string * string * int
      (** comp, dyn name v, factor — derived names [v0], [v1] *)
  | Tile of string * string * string * int * int
      (** comp, i, j (adjacent), factors — derived [i0 j0 i1 j1] *)
  | Interchange of string * string * string
  | Shift of string * string * int
  | Skew of string * string * string * int
  | Reverse of string * string
  | Parallelize of string * string
  | Vectorize of string * string * int  (** derived inner name [v_v] *)
  | Unroll of string * string * int  (** derived inner name [v_u] *)
  | Fuse of string * string * string  (** [after c b lvl], lvl = "root" or a loop of b *)
  | Compute_at of string * string * string
      (** [compute_at producer consumer lvl]; search-only *)

type t = {
  extents : ext list;  (** one per dimension; length = dimensionality *)
  n_value : int;  (** runtime value of [N] when any extent is [NParam] *)
  inputs : (string * int) list;  (** name, rank *)
  comps : rcomp list;  (** in declaration (= dependence) order *)
  steps : step list;  (** schedule pipeline, applied in order *)
}

let pad = 2
let dim_name d = [| "i"; "j"; "l" |].(d)
let concrete t = function Lit n -> n | NParam -> t.n_value

(* Inputs are sized to the *maximum* extent in the case (plus padding on
   both sides), so that any mapping of input dims to consumer dims — at any
   offset in [-pad, pad] — is in bounds.  Inputs are read-only, so the
   oversizing cannot change semantics. *)
let max_extent t =
  let m = List.fold_left (fun m e -> max m (concrete t e)) 1 t.extents in
  List.fold_left
    (fun m rc -> match rc.rc_red with Some k -> max m k | None -> m)
    m t.comps

(* Deterministic integer-valued fill in a small range, keyed by the buffer
   name so distinct inputs hold distinct data. *)
let fill_for name =
  let h = Hashtbl.hash name land 0xffff in
  fun idx ->
    let a = ref (h + 17) in
    Array.iter (fun i -> a := (!a * 131) + (i * 7) + (i * i)) idx;
    float_of_int (((!a land 0x3fffffff) mod 17) - 8)

type built = {
  fn : Ir.fn;
  params : (string * int) list;
  fills : (string * (int array -> float)) list;
      (** input buffer name -> fill function *)
  outputs : string list;  (** buffer names whose contents to compare *)
}

let apply_step = Tiramisu_autosched.Sched_space.apply

let unop_name = function
  | Neg -> "Neg" | Abs -> "Abs" | Sqrt -> "Sqrt" | Exp -> "Exp"
  | Log -> "Log" | Sin -> "Sin" | Cos -> "Cos" | Floor -> "Floor"

let unop_intrinsic op = String.lowercase_ascii (unop_name op)

let build ?(with_steps = true) (t : t) : built =
  let has_n = List.exists (fun e -> e = NParam) t.extents in
  let fn = create ~params:(if has_n then [ "N" ] else []) "fuzz" in
  let ext_aff d =
    match List.nth t.extents d with
    | Lit n -> Aff.const n
    | NParam -> Aff.var "N"
  in
  let mx = max_extent t in
  let producers = Hashtbl.create 8 in
  List.iter
    (fun (name, rank) ->
      let vars =
        List.init rank (fun d ->
            var (dim_name d) (Aff.const (-pad)) (Aff.const (mx + pad)))
      in
      let c = input fn name vars in
      ignore (buffer_of c);
      Hashtbl.replace producers name (`Input c))
    t.inputs;
  (* [all_vars]: the consumer's full iterator list (free dims then the
     reduction dim, when present); [fvars]: free dims only. *)
  let free_hi d =
    match List.nth t.extents d with
    | Lit n -> E.int (n - 1)
    | NParam -> E.(param "N" -: int 1)
  in
  (* [hi cd]: the last index of consumer dim [cd] (clamped accesses) *)
  let conv ~hi all_vars fvars e =
    let rec go = function
      | Const n -> E.float (float_of_int n)
      | Bin (op, u, v) -> (
          let fu = go u and fv = go v in
          match op with
          | Add -> E.(fu +: fv)
          | Sub -> E.(fu -: fv)
          | Mul -> E.(fu *: fv)
          | Min -> E.min_ fu fv
          | Max -> E.max_ fu fv)
      | Un (Neg, u) -> E.neg (go u)
      | Un (op, u) -> E.call (unop_intrinsic op) [ go u ]
      | In (name, dims) -> (
          match Hashtbl.find_opt producers name with
          | Some (`Input c) ->
              c
              $ List.map
                  (fun (cd, off) ->
                    let v = List.nth all_vars cd in
                    if off = 0 then x v else E.(x v +: int off))
                  dims
          | _ -> failwith ("fuzz case: unknown input " ^ name))
      | Clamped (name, dims) -> (
          match Hashtbl.find_opt producers name with
          | Some (`Input c) ->
              c
              $ List.map
                  (fun (cd, off) ->
                    let v = List.nth all_vars cd in
                    E.clamp E.(x v +: int off) (E.int 0) (hi cd))
                  dims
          | _ -> failwith ("fuzz case: unknown input " ^ name))
      | Prod p -> (
          match Hashtbl.find_opt producers p with
          | Some (`Plain (c, rank)) ->
              c $ List.init rank (fun d -> x (List.nth fvars d))
          | Some (`Red (upd, rank, kx)) ->
              upd
              $ (List.init rank (fun d -> x (List.nth fvars d))
                @ [ E.int (kx - 1) ])
          | _ -> failwith ("fuzz case: unknown producer " ^ p))
    in
    go e
  in
  let outputs = ref [] in
  List.iter
    (fun rc ->
      let fvars =
        List.init rc.rc_rank (fun d ->
            var (dim_name d) (Aff.const 0) (ext_aff d))
      in
      match rc.rc_red with
      | None ->
          let c =
            comp fn rc.rc_name fvars (conv ~hi:free_hi fvars fvars rc.rc_expr)
          in
          ignore (buffer_of c);
          Hashtbl.replace producers rc.rc_name (`Plain (c, rc.rc_rank));
          outputs := rc.rc_name :: !outputs
      | Some kx ->
          (* The sgemm idiom (lib/kernels/linalg.ml): an init computation
             and an update computation accumulating in place over r, both
             stored to the init's buffer with the r dim contracted away. *)
          let rvar = var "r" (Aff.const 0) (Aff.const kx) in
          let init = comp fn (rc.rc_name ^ "_init") fvars (E.float 0.) in
          let upd = comp fn (rc.rc_name ^ "_upd") (fvars @ [ rvar ]) (E.int 0) in
          let hi d = if d = rc.rc_rank then E.int (kx - 1) else free_hi d in
          let term = conv ~hi (fvars @ [ rvar ]) fvars rc.rc_expr in
          let prev =
            Ir.Access_e
              (rc.rc_name ^ "_upd", List.map x fvars @ [ E.(x rvar -: int 1) ])
          in
          upd.Ir.expr <-
            E.(select (x rvar =: int 0) (init $ List.map x fvars) prev +: term);
          let buf = buffer_of init in
          store_in upd buf (List.init rc.rc_rank (fun d -> Aff.var (dim_name d)));
          Hashtbl.replace producers rc.rc_name (`Red (upd, rc.rc_rank, kx));
          outputs := (rc.rc_name ^ "_init") :: !outputs)
    t.comps;
  if with_steps then List.iter (apply_step fn) t.steps;
  {
    fn;
    params = (if has_n then [ ("N", t.n_value) ] else []);
    fills = List.map (fun (n, _) -> (n, fill_for n)) t.inputs;
    outputs = List.rev !outputs;
  }

let has_parallel t =
  List.exists (function Parallelize _ -> true | _ -> false) t.steps

(* ---------- OCaml-literal printing (for the replay corpus) ---------- *)

let op_name = function
  | Add -> "Add"
  | Sub -> "Sub"
  | Mul -> "Mul"
  | Min -> "Min"
  | Max -> "Max"

let dims_lit l =
  String.concat "; " (List.map (fun (d, o) -> Printf.sprintf "(%d, %d)" d o) l)

let rec expr_lit = function
  | Const n -> Printf.sprintf "Const (%d)" n
  | In (s, l) -> Printf.sprintf "In (%S, [ %s ])" s (dims_lit l)
  | Clamped (s, l) -> Printf.sprintf "Clamped (%S, [ %s ])" s (dims_lit l)
  | Prod s -> Printf.sprintf "Prod %S" s
  | Bin (op, a, b) ->
      Printf.sprintf "Bin (%s, %s, %s)" (op_name op) (expr_lit a) (expr_lit b)
  | Un (op, a) -> Printf.sprintf "Un (%s, %s)" (unop_name op) (expr_lit a)

let step_lit = Tiramisu_autosched.Sched_space.to_literal

let ext_lit = function Lit n -> Printf.sprintf "Lit %d" n | NParam -> "NParam"

let rcomp_lit rc =
  Printf.sprintf "{ rc_name = %S; rc_rank = %d; rc_red = %s; rc_expr = %s }"
    rc.rc_name rc.rc_rank
    (match rc.rc_red with
    | None -> "None"
    | Some k -> Printf.sprintf "Some %d" k)
    (expr_lit rc.rc_expr)

let to_literal t =
  Printf.sprintf
    "{ extents = [ %s ];\n  n_value = %d;\n  inputs = [ %s ];\n  comps =\n    [ %s ];\n  steps = [ %s ] }"
    (String.concat "; " (List.map ext_lit t.extents))
    t.n_value
    (String.concat "; "
       (List.map (fun (n, r) -> Printf.sprintf "(%S, %d)" n r) t.inputs))
    (String.concat ";\n      " (List.map rcomp_lit t.comps))
    (String.concat ";\n    " (List.map step_lit t.steps))
