(* The imperative loop IR that polyhedral AST generation targets.

   This plays the role LLVM IR (via Halide) plays in the paper's §V-A: the
   common lowering target of the CPU, GPU and distributed backends.  Unlike
   a textual IR it is directly executable by the backends (interpreter,
   closure compiler, simulators) and printable as C-like source. *)

type dtype = F32 | F64 | I32 | U8

let dtype_name = function F32 -> "float" | F64 -> "double" | I32 -> "int32_t" | U8 -> "uint8_t"

(* Where a buffer lives; mirrors Table II's tag_gpu_* commands and the
   distributed local buffers. *)
type mem_space =
  | Host
  | Gpu_global
  | Gpu_shared
  | Gpu_local
  | Gpu_constant

let mem_space_name = function
  | Host -> "host"
  | Gpu_global -> "global"
  | Gpu_shared -> "shared"
  | Gpu_local -> "local"
  | Gpu_constant -> "constant"

type binop = Add | Sub | Mul | Div | FloorDiv | Mod | MinOp | MaxOp

type cmpop = EqOp | NeOp | LtOp | LeOp | GtOp | GeOp

type expr =
  | Int of int
  | Float of float
  | Var of string                     (* loop iterator or parameter *)
  | Load of string * expr list        (* buffer, indices *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Cast of dtype * expr
  | Select of cond * expr * expr
  | Call of string * expr list        (* pure math intrinsics: abs, sqrt, ... *)

and cond =
  | True
  | Cmp of cmpop * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

(* How a loop dimension is mapped to hardware (Layer II space tags). *)
type loop_tag =
  | Seq
  | Parallel                          (* cpu tag: shared-memory parallel *)
  | Vectorized of int                 (* vec(s) *)
  | Unrolled                          (* unroll *)
  | Gpu_block of int                  (* gpuB, grid axis 0/1/2 *)
  | Gpu_thread of int                 (* gpuT, thread axis 0/1/2 *)
  | Distributed                       (* node tag: MPI rank dimension *)

let tag_name = function
  | Seq -> "for"
  | Parallel -> "parallel for"
  | Vectorized s -> Printf.sprintf "vectorized(%d) for" s
  | Unrolled -> "unrolled for"
  | Gpu_block a -> Printf.sprintf "GPUBlock.%c for" "xyz".[a]
  | Gpu_thread a -> Printf.sprintf "GPUThread.%c for" "xyz".[a]
  | Distributed -> "distributed for"

(* The tag of one generated loop that statements tagged [a] and [b] share:
   [Seq] defers to the other tag and equal tags agree; any other pair
   conflicts ([None]) — one loop cannot be, say, both parallel and
   unrolled. *)
let join_tags a b =
  match (a, b) with
  | Seq, t | t, Seq -> Some t
  | a, b when a = b -> Some a
  | _ -> None

type comm_props = { async : bool }

type stmt =
  | Block of stmt list
  | For of { var : string; lo : expr; hi : expr; tag : loop_tag; body : stmt }
    (* iterates var = lo .. hi inclusive *)
  | If of cond * stmt * stmt option
  | Store of string * expr list * expr
  | Alloc of { buf : string; dtype : dtype; dims : expr list; mem : mem_space; body : stmt }
    (* scoped allocation: freed when body exits — paper's allocate_at *)
  | Barrier                            (* barrier_at: GPU block / node barrier *)
  | Send of { dst : expr; buf : string; offset : expr list; count : expr; props : comm_props }
  | Recv of { src : expr; buf : string; offset : expr list; count : expr; props : comm_props }
  | Memcpy of { dst : string; src : string; direction : string }
    (* whole-buffer host_to_device / device_to_host copies *)
  | Comment of string

(* ---------- constructors / helpers ---------- *)

let block = function [ s ] -> s | l -> Block l
let ( +! ) a b = Bin (Add, a, b)
let ( -! ) a b = Bin (Sub, a, b)
let ( *! ) a b = Bin (Mul, a, b)
let int n = Int n

let rec fold_min = function
  | [] -> invalid_arg "fold_min: empty"
  | [ e ] -> e
  | e :: rest -> Bin (MinOp, e, fold_min rest)

let rec fold_max = function
  | [] -> invalid_arg "fold_max: empty"
  | [ e ] -> e
  | e :: rest -> Bin (MaxOp, e, fold_max rest)

let conj = function
  | [] -> True
  | c :: rest -> List.fold_left (fun a b -> And (a, b)) c rest

(* The body of a perfect-nest level: exactly one [For], comments allowed
   around it.  The parallel planner and the tape claim walk nests by it. *)
let single_for s =
  match s with
  | For _ -> Some s
  | Block l -> (
      match List.filter (function Comment _ -> false | _ -> true) l with
      | [ (For _ as f) ] -> Some f
      | _ -> None)
  | _ -> None

(* Constant folding & algebraic simplification, so emitted code (and golden
   pseudocode tests) stay readable. *)
let rec simplify_expr e =
  match e with
  | Int _ | Float _ | Var _ -> e
  | Load (b, idx) -> Load (b, List.map simplify_expr idx)
  | Neg a -> (
      match simplify_expr a with
      | Int n -> Int (-n)
      | a' -> Neg a')
  | Cast (t, a) -> Cast (t, simplify_expr a)
  | Call (f, args) -> Call (f, List.map simplify_expr args)
  | Select (c, a, b) -> (
      match (simplify_cond c, simplify_expr a, simplify_expr b) with
      | True, a', _ -> a'
      | _, a', b' when a' = b' -> a' (* conditions are pure *)
      | c', a', b' -> Select (c', a', b'))
  | Bin (op, a, b) -> (
      let a = simplify_expr a and b = simplify_expr b in
      match (op, a, b) with
      | Add, Int x, Int y -> Int (x + y)
      | Sub, Int x, Int y -> Int (x - y)
      | Mul, Int x, Int y -> Int (x * y)
      | FloorDiv, Int x, Int y when y <> 0 -> Int (Tiramisu_support.Ints.fdiv x y)
      | Mod, Int x, Int y when y <> 0 -> Int (Tiramisu_support.Ints.emod x y)
      | MinOp, Int x, Int y -> Int (Int.min x y)
      | MaxOp, Int x, Int y -> Int (Int.max x y)
      | Add, Int 0, e | Add, e, Int 0 -> e
      | Sub, e, Int 0 -> e
      | Mul, Int 1, e | Mul, e, Int 1 -> e
      | Mul, Int 0, _ | Mul, _, Int 0 -> Int 0
      | FloorDiv, e, Int 1 -> e
      | MinOp, x, y when x = y -> x
      | MaxOp, x, y when x = y -> x
      | _ -> Bin (op, a, b))

and simplify_cond c =
  match c with
  | True -> True
  | Cmp (op, a, b) -> (
      let a = simplify_expr a and b = simplify_expr b in
      match (a, b) with
      | Int x, Int y ->
          let r =
            match op with
            | EqOp -> x = y | NeOp -> x <> y | LtOp -> x < y
            | LeOp -> x <= y | GtOp -> x > y | GeOp -> x >= y
          in
          if r then True else Cmp (op, a, b)
      | _ -> Cmp (op, a, b))
  | And (_, _) ->
      (* flatten, simplify and deduplicate the conjuncts *)
      let rec conjuncts c =
        match c with And (a, b) -> conjuncts a @ conjuncts b | c -> [ c ]
      in
      let parts =
        List.filter (fun c -> c <> True)
          (List.map simplify_cond (conjuncts c))
      in
      let parts =
        List.fold_left
          (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
          [] parts
      in
      (match parts with
      | [] -> True
      | c :: rest -> List.fold_left (fun a b -> And (a, b)) c rest)
  | Or (a, b) -> (
      match (simplify_cond a, simplify_cond b) with
      | True, _ | _, True -> True
      | a, b -> Or (a, b))
  | Not a -> ( match simplify_cond a with Not b -> b | a -> Not a)

let rec simplify_stmt s =
  match s with
  | Block l -> (
      match List.filter (fun s -> s <> Block []) (List.map simplify_stmt l) with
      | [ s ] -> s
      | l -> Block l)
  | For f -> (
      let lo = simplify_expr f.lo and hi = simplify_expr f.hi in
      match (lo, hi) with
      | Int a, Int b when b < a ->
          (* statically empty range, e.g. the elided epilogue of a vector
             loop whose extent divides the width *)
          Block []
      | _ -> For { f with lo; hi; body = simplify_stmt f.body })
  | If (c, t, e) -> (
      let t = simplify_stmt t and e = Option.map simplify_stmt e in
      match simplify_cond c with
      | True -> t
      | c -> If (c, t, e))
  | Store (b, idx, v) -> Store (b, List.map simplify_expr idx, simplify_expr v)
  | Alloc a ->
      Alloc { a with dims = List.map simplify_expr a.dims;
              body = simplify_stmt a.body }
  | Barrier | Comment _ | Memcpy _ -> s
  | Send s' -> Send { s' with dst = simplify_expr s'.dst;
                      offset = List.map simplify_expr s'.offset;
                      count = simplify_expr s'.count }
  | Recv r -> Recv { r with src = simplify_expr r.src;
                     offset = List.map simplify_expr r.offset;
                     count = simplify_expr r.count }

(* ---------- affine index analysis ---------- *)

(* Σ coeff·var + const view of an index expression; None if not affine.
   Shared by the compiled backend's addressing (stride folding), the
   tape generator and the cost model. *)
let affine_terms (e : expr) : ((string * int) list * int) option =
  let merge t1 t2 =
    List.fold_left
      (fun acc (v, c) ->
        match List.assoc_opt v acc with
        | Some c0 -> (v, c0 + c) :: List.remove_assoc v acc
        | None -> (v, c) :: acc)
      t1 t2
  in
  let neg ts = List.map (fun (v, k) -> (v, -k)) ts in
  let rec go e =
    match e with
    | Int n -> Some ([], n)
    | Var v -> Some ([ (v, 1) ], 0)
    | Neg a -> Option.map (fun (ts, c) -> (neg ts, -c)) (go a)
    | Bin (Add, a, b) -> (
        match (go a, go b) with
        | Some (t1, c1), Some (t2, c2) -> Some (merge t1 t2, c1 + c2)
        | _ -> None)
    | Bin (Sub, a, b) -> (
        match (go a, go b) with
        | Some (t1, c1), Some (t2, c2) -> Some (merge t1 (neg t2), c1 - c2)
        | _ -> None)
    | Bin (Mul, a, b) -> (
        match (go a, go b) with
        | Some ([], k), Some (ts, c) | Some (ts, c), Some ([], k) ->
            Some (List.map (fun (v, q) -> (v, q * k)) ts, c * k)
        | _ -> None)
    | _ -> None
  in
  Option.map
    (fun (ts, c) -> (List.filter (fun (_, k) -> k <> 0) ts, c))
    (go e)

let affine e = affine_terms e <> None

(* ---------- tape-claimable leaf classifier (structural part) ---------- *)

(* The flat tape ({!Tape_gen}) claims rectangular nests whose leaf is a
   comment-free sequence of [Store]s of arithmetic expressions over affine
   [Load]s: addressing is strength-reduced to incremental flat-offset bumps,
   loop-invariant loads are promoted to registers, and the innermost level
   may be lane-batched.  These predicates are the *structural* half of the
   leaf contract (the tape additionally requires a perfect rectangular
   chain above the leaf, buffers that exist with matching rank, and entry
   corner checks that pass); they are shared with {!Tape_gen} and the
   cost model. *)

(* [Some stores] when [s] is a straight-line sequence of stores (comments
   skipped); [None] when it contains control flow, nested loops, or
   communication. *)
let rec spec_stores (s : stmt) : (string * expr list * expr) list option =
  match s with
  | Store (b, idx, v) -> Some [ (b, idx, v) ]
  | Comment _ -> Some []
  | Block l ->
      List.fold_left
        (fun acc s ->
          match (acc, spec_stores s) with
          | Some a, Some b -> Some (a @ b)
          | _ -> None)
        (Some []) l
  | _ -> None

(* Value grammar the tape replicates bit-for-bit: float
   arithmetic, casts, known intrinsics and affine loads.  [Select] is
   excluded (its integer condition would reintroduce per-iteration affine
   evaluation). *)
let rec spec_value_ok (e : expr) : bool =
  match e with
  | Int _ | Float _ | Var _ -> true
  | Load (_, idx) -> List.for_all affine idx
  | Neg a | Cast (_, a) -> spec_value_ok a
  | Bin (_, a, b) -> spec_value_ok a && spec_value_ok b
  | Call
      ( ("abs" | "sqrt" | "exp" | "log" | "sin" | "cos" | "floor" | "pow"
        | "fmin" | "fmax" | "clamp"),
        args ) ->
      List.for_all spec_value_ok args
  | Call _ | Select _ -> false

let spec_candidate (s : stmt) : bool =
  match s with
  | For { tag = Seq | Unrolled | Vectorized _; body; _ } -> (
      match spec_stores body with
      | Some (_ :: _ as stores) ->
          List.for_all
            (fun (_, idx, v) -> List.for_all affine idx && spec_value_ok v)
            stores
      | _ -> false)
  | _ -> false

(* ---------- structural hashing ---------- *)

(* Deterministic structural hash of a statement; the compile cache keys on
   it (together with parameter values and backend knobs).  Loop variables
   are numbered de-Bruijn-style at their binder, so alpha-equivalent
   renamings of loop variables hash equal, while any structural rewrite —
   bound narrowing, simplification, unroll expansion — changes the mixed
   constructor sequence and therefore the hash (modulo 62-bit collisions;
   the cache additionally compares statements structurally before reusing
   an artifact).  Free names (parameters, buffers, intrinsics) hash by
   spelling.  No [Hashtbl.hash] involvement: the value is stable across
   processes and OCaml versions, so it can appear in persisted traces. *)

let structural_hash (s0 : stmt) : int =
  let h = ref 0x2545f4914f6cdd1d in
  let mix v = h := ((!h * 0x100000001b3) lxor v) land max_int in
  let mix_str s =
    mix (String.length s);
    String.iter (fun c -> mix (Char.code c)) s
  in
  let mix_float f =
    let b = Int64.bits_of_float f in
    mix (Int64.to_int b land max_int);
    mix (Int64.to_int (Int64.shift_right_logical b 62))
  in
  let mix_var env v =
    match List.assoc_opt v env with
    | Some level -> mix 2; mix level          (* bound loop variable *)
    | None -> mix 3; mix_str v                (* parameter / free name *)
  in
  let mix_dtype = function F32 -> mix 4 | F64 -> mix 5 | I32 -> mix 6 | U8 -> mix 7 in
  let mix_mem = function
    | Host -> mix 8 | Gpu_global -> mix 9 | Gpu_shared -> mix 10
    | Gpu_local -> mix 11 | Gpu_constant -> mix 12
  in
  let mix_tag = function
    | Seq -> mix 13
    | Parallel -> mix 14
    | Vectorized w -> mix 15; mix w
    | Unrolled -> mix 16
    | Gpu_block a -> mix 17; mix a
    | Gpu_thread a -> mix 18; mix a
    | Distributed -> mix 19
  in
  let mix_binop = function
    | Add -> mix 20 | Sub -> mix 21 | Mul -> mix 22 | Div -> mix 23
    | FloorDiv -> mix 24 | Mod -> mix 25 | MinOp -> mix 26 | MaxOp -> mix 27
  in
  let mix_cmpop = function
    | EqOp -> mix 28 | NeOp -> mix 29 | LtOp -> mix 30
    | LeOp -> mix 31 | GtOp -> mix 32 | GeOp -> mix 33
  in
  let rec expr env (e : expr) =
    match e with
    | Int n -> mix 34; mix n
    | Float f -> mix 35; mix_float f
    | Var v -> mix_var env v
    | Load (b, idx) -> mix 36; mix_str b; List.iter (expr env) idx
    | Bin (op, a, b) -> mix_binop op; expr env a; expr env b
    | Neg a -> mix 37; expr env a
    | Cast (t, a) -> mix 38; mix_dtype t; expr env a
    | Select (c, a, b) -> mix 39; cond env c; expr env a; expr env b
    | Call (f, args) -> mix 40; mix_str f; List.iter (expr env) args
  and cond env (c : cond) =
    match c with
    | True -> mix 41
    | Cmp (op, a, b) -> mix_cmpop op; expr env a; expr env b
    | And (a, b) -> mix 42; cond env a; cond env b
    | Or (a, b) -> mix 43; cond env a; cond env b
    | Not a -> mix 44; cond env a
  in
  let rec stmt env (s : stmt) =
    match s with
    | Block l -> mix 45; mix (List.length l); List.iter (stmt env) l
    | For { var; lo; hi; tag; body } ->
        mix 46; mix_tag tag; expr env lo; expr env hi;
        stmt ((var, List.length env) :: env) body
    | If (c, t, e) ->
        mix 47; cond env c; stmt env t;
        (match e with None -> mix 48 | Some e -> mix 49; stmt env e)
    | Store (b, idx, v) -> mix 50; mix_str b; List.iter (expr env) idx; expr env v
    | Alloc { buf; dtype; dims; mem; body } ->
        mix 51; mix_str buf; mix_dtype dtype; mix_mem mem;
        List.iter (expr env) dims; stmt env body
    | Barrier -> mix 52
    | Send { dst; buf; offset; count; props } ->
        mix 53; mix_str buf; expr env dst; List.iter (expr env) offset;
        expr env count; mix (if props.async then 54 else 55)
    | Recv { src; buf; offset; count; props } ->
        mix 56; mix_str buf; expr env src; List.iter (expr env) offset;
        expr env count; mix (if props.async then 57 else 58)
    | Memcpy { dst; src; direction } ->
        mix 59; mix_str dst; mix_str src; mix_str direction
    | Comment c -> mix 60; mix_str c
  in
  stmt [] s0;
  !h

(* ---------- static loop metadata ---------- *)

(* Shape summary of a lowered loop nest, computed once per program.  The
   executing backends use it to plan the runtime (e.g. compile statically
   nested Parallel loops sequentially instead of oversubscribing the domain
   pool), and the benchmark harness records it next to its timings. *)
type loop_meta = {
  n_loops : int;
  n_parallel : int;          (* Parallel-tagged loops *)
  n_nested_parallel : int;   (* Parallel loops inside another Parallel loop *)
  max_depth : int;           (* deepest loop nesting *)
}

let analyze_loops stmt =
  let meta =
    ref { n_loops = 0; n_parallel = 0; n_nested_parallel = 0; max_depth = 0 }
  in
  let rec go depth in_par s =
    match s with
    | Block l -> List.iter (go depth in_par) l
    | For { tag; body; _ } ->
        let m = !meta in
        meta :=
          { n_loops = m.n_loops + 1;
            n_parallel = (m.n_parallel + if tag = Parallel then 1 else 0);
            n_nested_parallel =
              (m.n_nested_parallel
               + if tag = Parallel && in_par then 1 else 0);
            max_depth = max m.max_depth (depth + 1) };
        go (depth + 1) (in_par || tag = Parallel) body
    | If (_, t, e) ->
        go depth in_par t;
        Option.iter (go depth in_par) e
    | Alloc { body; _ } -> go depth in_par body
    | Store _ | Barrier | Comment _ | Send _ | Recv _ | Memcpy _ -> ()
  in
  go 0 false stmt;
  !meta

(* ---------- pretty printing (paper-style pseudocode) ---------- *)

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | FloorDiv -> "/" | Mod -> "%" | MinOp -> "min" | MaxOp -> "max"

let cmpop_str = function
  | EqOp -> "==" | NeOp -> "!=" | LtOp -> "<" | LeOp -> "<="
  | GtOp -> ">" | GeOp -> ">="

let rec pp_expr ppf e =
  match e with
  | Int n -> Format.fprintf ppf "%d" n
  | Float f -> Format.fprintf ppf "%g" f
  | Var v -> Format.fprintf ppf "%s" v
  | Load (b, idx) ->
      Format.fprintf ppf "%s%a" b pp_indices idx
  | Bin ((MinOp | MaxOp) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_str op) pp_expr a pp_expr b
  | Bin (FloorDiv, a, b) ->
      Format.fprintf ppf "floord(%a, %a)" pp_expr a pp_expr b
  | Bin (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Neg a -> Format.fprintf ppf "(-%a)" pp_expr a
  | Cast (t, a) -> Format.fprintf ppf "(%s)%a" (dtype_name t) pp_expr a
  | Select (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" pp_cond c pp_expr a pp_expr b
  | Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_expr)
        args

and pp_indices ppf idx =
  List.iter (fun e -> Format.fprintf ppf "[%a]" pp_expr e) idx

and pp_cond ppf c =
  match c with
  | True -> Format.fprintf ppf "true"
  | Cmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_expr a (cmpop_str op) pp_expr b
  | And (a, b) -> Format.fprintf ppf "%a && %a" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_cond a pp_cond b
  | Not a -> Format.fprintf ppf "!(%a)" pp_cond a

let rec pp_stmt ppf s =
  match s with
  | Block l ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf l
  | For { var; lo; hi; tag; body } ->
      Format.fprintf ppf "@[<v 2>%s (%s in %a..%a)@,%a@]" (tag_name tag) var
        pp_expr lo pp_expr hi pp_stmt body
  | If (c, t, None) ->
      Format.fprintf ppf "@[<v 2>if (%a)@,%a@]" pp_cond c pp_stmt t
  | If (c, t, Some e) ->
      Format.fprintf ppf "@[<v 2>if (%a)@,%a@]@,@[<v 2>else@,%a@]" pp_cond c
        pp_stmt t pp_stmt e
  | Store (b, idx, v) ->
      Format.fprintf ppf "%s%a = %a" b pp_indices idx pp_expr v
  | Alloc { buf; dtype; dims; mem; body } ->
      Format.fprintf ppf "@[<v 2>%s %s %s%a {@,%a@]@,}"
        (mem_space_name mem) (dtype_name dtype) buf
        (fun ppf -> List.iter (fun d -> Format.fprintf ppf "[%a]" pp_expr d))
        dims pp_stmt body
  | Barrier -> Format.fprintf ppf "barrier()"
  | Send { dst; buf; offset; count; props } ->
      Format.fprintf ppf "send(%s%a, %a, %a, {%s})" buf pp_indices offset
        pp_expr count pp_expr dst
        (if props.async then "ASYNC" else "SYNC")
  | Recv { src; buf; offset; count; props } ->
      Format.fprintf ppf "recv(%s%a, %a, %a, {%s})" buf pp_indices offset
        pp_expr count pp_expr src
        (if props.async then "ASYNC" else "SYNC")
  | Memcpy { dst; src; direction } ->
      Format.fprintf ppf "%s_copy(%s, %s)" direction src dst
  | Comment c -> Format.fprintf ppf "// %s" c

let to_string s = Format.asprintf "@[<v>%a@]" pp_stmt s
