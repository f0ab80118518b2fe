(* The reference interpreter: resolve, then walk.

   Each [run] first resolves its statement into a private tree in which
   every variable is an index into one [int array] and every buffer an
   index into one [Buffers.t array] (one slot per name: a [For] saves and
   restores its variable's slot, an [Alloc] its buffer's).  Scoping is
   decided during resolution, so an unbound variable or an unknown buffer
   becomes a node that raises the old error when, and only when, it is
   reached.  Expressions are resolved per context (integer or float), so
   casts, constants and intrinsic names are decided once; blocks become
   arrays; the [__trace] store prefix is tested once.  The walk itself is
   the plain recursive evaluator it always was — no closures, nothing
   shared with the executors it checks — and the resolved tree lives only
   as long as its run. *)

open Tiramisu_codegen
module L = Loop_ir
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type counters = {
  mutable flops : int;
  mutable loads : int;
  mutable stores : int;
  mutable iterations : int;
  mutable messages : int;
  mutable bytes_sent : int;
}

type t = {
  params : int SMap.t;
  bufs : (string, Buffers.t) Hashtbl.t;
  ctr : counters;
  mutable hooks : (string -> int array -> float -> unit) list;
  (* (src_rank, dst_rank) -> queued payloads *)
  channels : (int * int, float array Queue.t) Hashtbl.t;
  mutable rank : int;
}

let create ?(params = []) ?(buffers = []) () =
  let t =
    {
      (* a later binding of a name wins *)
      params =
        List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty params;
      bufs = Hashtbl.create 16;
      ctr =
        { flops = 0; loads = 0; stores = 0; iterations = 0; messages = 0;
          bytes_sent = 0 };
      hooks = [];
      channels = Hashtbl.create 16;
      rank = 0;
    }
  in
  List.iter (fun b -> Hashtbl.replace t.bufs b.Buffers.name b) buffers;
  t

exception
  Comm_error of { src : int; dst : int; channel : string; reason : string }

let () =
  Printexc.register_printer (function
    | Comm_error { src; dst; channel; reason } ->
        Some
          (Printf.sprintf "Comm_error(rank %d -> rank %d on %S: %s)" src dst
             channel reason)
    | _ -> None)

let check_slice (b : Buffers.t) ~src ~dst ~offset ~count =
  let size = Buffers.size b in
  if offset < 0 || count < 0 || offset + count > size then
    let reason =
      Printf.sprintf "slice of %d elements at offset %d out of range (%d)"
        count offset size
    in
    raise (Comm_error { src; dst; channel = b.Buffers.name; reason })

let add_buffer t b = Hashtbl.replace t.bufs b.Buffers.name b
let unknown_buffer name = "Interp: unknown buffer " ^ name

let buffer t name =
  match Hashtbl.find_opt t.bufs name with
  | Some b -> b
  | None -> failwith (unknown_buffer name)

let counters t = t.ctr
let on_store t f = t.hooks <- f :: t.hooks

(* ---------- the resolved tree ---------- *)

type un = Fabs | Sqrt | Exp | Log | Sin | Cos | Floor
type bin2 = Pow | Fmin | Fmax

(* Integer context. *)
type iexpr =
  | I_const of int
  | I_var of int  (* slot *)
  | I_fail of string  (* unbound variable, float in integer context *)
  | I_neg of iexpr
  | I_of_f of fexpr  (* int_of_float: an [I32] cast, or a load *)
  | I_select of cond * iexpr * iexpr
  | I_abs of iexpr
  | I_bad_call of string * iexpr array  (* arguments first, then the error *)
  | I_add_k of iexpr * int  (* either operand a constant *)
  | I_mul_k of iexpr * int
  | I_add of iexpr * iexpr
  | I_sub of iexpr * iexpr
  | I_mul of iexpr * iexpr
  | I_div of iexpr * iexpr
  | I_fdiv of iexpr * iexpr
  | I_mod of iexpr * iexpr
  | I_min of iexpr * iexpr
  | I_max of iexpr * iexpr

(* Float context. *)
and fexpr =
  | F_const of float
  | F_var of iexpr  (* float_of_int of a variable (or its unbound error) *)
  | F_neg of fexpr
  | F_trunc of fexpr  (* an [I32] cast *)
  | F_load of access
  | F_missing of string * iexpr array  (* load from an unknown buffer *)
  | F_select of cond * fexpr * fexpr
  | F_un of un * fexpr
  | F_bin2 of bin2 * fexpr * fexpr
  | F_clamp of fexpr * fexpr * fexpr
  | F_bad_call of string * fexpr array
  | F_bin of L.binop * fexpr * fexpr

and cond =
  | C_true
  | C_cmp of L.cmpop * iexpr * iexpr
  | C_and of cond * cond
  | C_or of cond * cond
  | C_not of cond

(* A buffer access: its indices are evaluated into the node's own scratch
   array, then checked by {!Buffers.flat_index}. *)
and access = { slot : int; idx : iexpr array; scratch : int array }

type stmt =
  | S_block of stmt array
  | S_nop
  | S_fail of string  (* a store, send, receive or copy naming no buffer *)
  | S_if of cond * stmt * stmt
  | S_trace of string * iexpr array * fexpr
  | S_store of string * access * fexpr
  | S_alloc of { slot : int; name : string; dims : iexpr array;
                 mem : L.mem_space; body : stmt }
  | S_for of { slot : int; lo : iexpr; hi : iexpr; dist : bool; body : stmt }
  | S_send of { b : int; dst : iexpr; offset : iexpr array; count : iexpr }
  | S_recv of { b : int; name : string; src : iexpr; offset : iexpr array;
                count : iexpr }
  | S_memcpy of { dst : int; src : int }

(* ---------- resolution ---------- *)

(* Per-name slots, numbered as names are met.  [scope] holds the loop
   variables and allocated buffers bound around the node being resolved;
   the interpreter's own parameters and buffers are in scope everywhere. *)
type resolver = {
  rt : t;
  mutable vslots : int SMap.t;
  mutable bslots : int SMap.t;
}

type scope = { vars : SSet.t; bufs : SSet.t }

let slot_of r ~buf name =
  let m = if buf then r.bslots else r.vslots in
  match SMap.find_opt name m with
  | Some s -> s
  | None ->
      let s = SMap.cardinal m in
      if buf then r.bslots <- SMap.add name s m
      else r.vslots <- SMap.add name s m;
      s

let var_bound r sc v = SSet.mem v sc.vars || SMap.mem v r.rt.params
let buf_bound r sc b = SSet.mem b sc.bufs || Hashtbl.mem r.rt.bufs b

let var_i r sc v =
  if var_bound r sc v then I_var (slot_of r ~buf:false v)
  else I_fail ("Interp: unbound variable " ^ v)

let rec res_i r sc (e : L.expr) : iexpr =
  match e with
  | L.Int n -> I_const n
  | L.Float _ -> I_fail "Interp: float in integer context"
  | L.Var v -> var_i r sc v
  | L.Neg a -> I_neg (res_i r sc a)
  | L.Cast (L.I32, a) -> I_of_f (res_f r sc a)
  | L.Cast (_, a) -> res_i r sc a
  | L.Load _ -> I_of_f (res_f r sc e)
  | L.Select (c, a, b) -> I_select (res_c r sc c, res_i r sc a, res_i r sc b)
  | L.Call ("abs", [ a ]) -> I_abs (res_i r sc a)
  | L.Call (f, args) ->
      I_bad_call
        ( "Interp: unknown int intrinsic " ^ f,
          Array.of_list (List.map (res_i r sc) args) )
  | L.Bin (op, a, b) -> (
      (* a constant operand evaluates to itself and raises nothing, so
         the order does not matter *)
      match (op, res_i r sc a, res_i r sc b) with
      | L.Add, I_const k, e | L.Add, e, I_const k -> I_add_k (e, k)
      | L.Mul, I_const k, e | L.Mul, e, I_const k -> I_mul_k (e, k)
      | L.Add, a, b -> I_add (a, b)
      | L.Sub, a, b -> I_sub (a, b)
      | L.Mul, a, b -> I_mul (a, b)
      | L.Div, a, b -> I_div (a, b)
      | L.FloorDiv, a, b -> I_fdiv (a, b)
      | L.Mod, a, b -> I_mod (a, b)
      | L.MinOp, a, b -> I_min (a, b)
      | L.MaxOp, a, b -> I_max (a, b))

and res_c r sc (c : L.cond) : cond =
  match c with
  | L.True -> C_true
  | L.And (a, b) -> C_and (res_c r sc a, res_c r sc b)
  | L.Or (a, b) -> C_or (res_c r sc a, res_c r sc b)
  | L.Not a -> C_not (res_c r sc a)
  | L.Cmp (op, a, b) -> C_cmp (op, res_i r sc a, res_i r sc b)

and res_idx r sc idx = Array.of_list (List.map (res_i r sc) idx)

and res_access r sc b idx =
  let idx = res_idx r sc idx in
  { slot = slot_of r ~buf:true b; idx;
    scratch = Array.make (Array.length idx) 0 }

and res_f r sc (e : L.expr) : fexpr =
  match e with
  | L.Int n -> F_const (float_of_int n)
  | L.Float f -> F_const f
  | L.Var v -> F_var (var_i r sc v)
  | L.Neg a -> F_neg (res_f r sc a)
  | L.Cast (L.I32, a) -> F_trunc (res_f r sc a)
  | L.Cast (_, a) -> res_f r sc a
  | L.Load (b, idx) ->
      if buf_bound r sc b then F_load (res_access r sc b idx)
      else F_missing (unknown_buffer b, res_idx r sc idx)
  | L.Select (c, a, b) -> F_select (res_c r sc c, res_f r sc a, res_f r sc b)
  | L.Call (f, args) -> (
      let un op a = F_un (op, res_f r sc a)
      and bin op a b = F_bin2 (op, res_f r sc a, res_f r sc b) in
      match (f, args) with
      | "abs", [ a ] -> un Fabs a
      | "sqrt", [ a ] -> un Sqrt a
      | "exp", [ a ] -> un Exp a
      | "log", [ a ] -> un Log a
      | "sin", [ a ] -> un Sin a
      | "cos", [ a ] -> un Cos a
      | "floor", [ a ] -> un Floor a
      | "pow", [ a; b ] -> bin Pow a b
      | "fmin", [ a; b ] -> bin Fmin a b
      | "fmax", [ a; b ] -> bin Fmax a b
      | "clamp", [ x; lo; hi ] ->
          F_clamp (res_f r sc x, res_f r sc lo, res_f r sc hi)
      | _ ->
          F_bad_call
            ( "Interp: unknown intrinsic " ^ f,
              Array.of_list (List.map (res_f r sc) args) ))
  | L.Bin (op, a, b) -> F_bin (op, res_f r sc a, res_f r sc b)

let is_trace b = String.starts_with ~prefix:"__trace" b

(* A statement naming an unknown buffer fails before it evaluates
   anything, as the buffer lookup came first. *)
let with_buf r sc b k =
  if buf_bound r sc b then k (slot_of r ~buf:true b)
  else S_fail (unknown_buffer b)

let rec res_s r sc (s : L.stmt) : stmt =
  match s with
  | L.Block l -> (
      match
        List.filter (function S_nop -> false | _ -> true)
          (List.map (res_s r sc) l)
      with
      | [] -> S_nop
      | [ s ] -> s
      | l -> S_block (Array.of_list l))
  | L.Comment _ | L.Barrier -> S_nop
  | L.If (c, th, el) ->
      let el = match el with Some e -> res_s r sc e | None -> S_nop in
      S_if (res_c r sc c, res_s r sc th, el)
  | L.Store (b, idx, v) when is_trace b ->
      (* Trace pseudo-stores: drive the hooks without touching memory; used
         by the AST-generation visit-order tests. *)
      S_trace (b, res_idx r sc idx, res_f r sc v)
  | L.Store (b, idx, v) ->
      with_buf r sc b (fun _ ->
          S_store (b, res_access r sc b idx, res_f r sc v))
  | L.Alloc { buf; dims; mem; body; _ } ->
      let dims = res_idx r sc dims in
      let body = res_s r { sc with bufs = SSet.add buf sc.bufs } body in
      S_alloc { slot = slot_of r ~buf:true buf; name = buf; dims; mem; body }
  | L.For { var; lo; hi; tag; body } ->
      let lo = res_i r sc lo and hi = res_i r sc hi in
      let body = res_s r { sc with vars = SSet.add var sc.vars } body in
      S_for { slot = slot_of r ~buf:false var; lo; hi;
              dist = tag = L.Distributed; body }
  | L.Send { dst; buf; offset; count; _ } ->
      with_buf r sc buf (fun b ->
          S_send { b; dst = res_i r sc dst; offset = res_idx r sc offset;
                   count = res_i r sc count })
  | L.Recv { src; buf; offset; count; _ } ->
      with_buf r sc buf (fun b ->
          S_recv { b; name = buf; src = res_i r sc src;
                   offset = res_idx r sc offset; count = res_i r sc count })
  | L.Memcpy { dst; src; _ } ->
      with_buf r sc src (fun src ->
          with_buf r sc dst (fun dst -> S_memcpy { dst; src }))

(* ---------- the walk ---------- *)

type ctx = { env : int array; bufs : Buffers.t array; ctr : counters; t : t }

(* The slot arrays of a resolved tree: parameters and the interpreter's
   buffers fill their slots; the rest are bound by the walk before use. *)
let context r =
  let env = Array.make (SMap.cardinal r.vslots) 0 in
  SMap.iter
    (fun v s ->
      Option.iter (fun x -> env.(s) <- x) (SMap.find_opt v r.rt.params))
    r.vslots;
  let bufs = Array.make (SMap.cardinal r.bslots) (Buffers.create "" [| 0 |]) in
  SMap.iter
    (fun b s ->
      Option.iter (fun x -> bufs.(s) <- x) (Hashtbl.find_opt r.rt.bufs b))
    r.bslots;
  { env; bufs; ctr = r.rt.ctr; t = r.rt }

let rec ev_i c (e : iexpr) : int =
  match e with
  | I_const n -> n
  | I_var s -> c.env.(s)
  | I_fail m -> failwith m
  | I_neg a -> -ev_i c a
  | I_of_f a -> int_of_float (ev_f c a)
  | I_select (k, a, b) -> if ev_c c k then ev_i c a else ev_i c b
  | I_abs a -> abs (ev_i c a)
  | I_bad_call (m, args) ->
      Array.iter (fun a -> ignore (ev_i c a)) args;
      failwith m
  | I_add_k (a, k) -> ev_i c a + k
  | I_mul_k (a, k) -> ev_i c a * k
  (* both operands, left first, then the operator *)
  | I_add (a, b) ->
      let x = ev_i c a in
      x + ev_i c b
  | I_sub (a, b) ->
      let x = ev_i c a in
      x - ev_i c b
  | I_mul (a, b) ->
      let x = ev_i c a in
      x * ev_i c b
  | I_div (a, b) ->
      let x = ev_i c a in
      x / ev_i c b
  | I_fdiv (a, b) ->
      let x = ev_i c a in
      Tiramisu_support.Ints.fdiv x (ev_i c b)
  | I_mod (a, b) ->
      let x = ev_i c a in
      Tiramisu_support.Ints.emod x (ev_i c b)
  | I_min (a, b) ->
      let x = ev_i c a in
      Int.min x (ev_i c b)
  | I_max (a, b) ->
      let x = ev_i c a in
      Int.max x (ev_i c b)

and ev_c c (k : cond) : bool =
  match k with
  | C_true -> true
  | C_and (a, b) -> ev_c c a && ev_c c b
  | C_or (a, b) -> ev_c c a || ev_c c b
  | C_not a -> not (ev_c c a)
  | C_cmp (op, a, b) -> (
      let x = ev_i c a in
      let y = ev_i c b in
      match op with
      | L.EqOp -> x = y
      | L.NeOp -> x <> y
      | L.LtOp -> x < y
      | L.LeOp -> x <= y
      | L.GtOp -> x > y
      | L.GeOp -> x >= y)

(* Evaluate an access's indices into its scratch; the flat offset is
   checked after every index (and a store's value) is evaluated. *)
and indices c a =
  for k = 0 to Array.length a.idx - 1 do
    a.scratch.(k) <- ev_i c a.idx.(k)
  done

and ev_f c (e : fexpr) : float =
  match e with
  | F_const f -> f
  | F_var v -> float_of_int (ev_i c v)
  | F_neg a -> -.ev_f c a
  | F_trunc a -> Float.of_int (int_of_float (ev_f c a))
  | F_load a ->
      c.ctr.loads <- c.ctr.loads + 1;
      indices c a;
      let b = c.bufs.(a.slot) in
      b.Buffers.data.(Buffers.flat_index b a.scratch)
  | F_missing (m, idx) ->
      c.ctr.loads <- c.ctr.loads + 1;
      Array.iter (fun i -> ignore (ev_i c i)) idx;
      failwith m
  | F_select (k, a, b) -> if ev_c c k then ev_f c a else ev_f c b
  | F_un (op, a) -> (
      c.ctr.flops <- c.ctr.flops + 1;
      let x = ev_f c a in
      match op with
      | Fabs -> Float.abs x
      | Sqrt -> sqrt x
      | Exp -> exp x
      | Log -> log x
      | Sin -> sin x
      | Cos -> cos x
      | Floor -> Float.floor x)
  | F_bin2 (op, a, b) -> (
      c.ctr.flops <- c.ctr.flops + 1;
      let x = ev_f c a in
      let y = ev_f c b in
      match op with
      | Pow -> Float.pow x y
      | Fmin -> Float.min x y
      | Fmax -> Float.max x y)
  | F_clamp (a, lo, hi) ->
      c.ctr.flops <- c.ctr.flops + 1;
      let x = ev_f c a in
      let lo = ev_f c lo in
      let hi = ev_f c hi in
      Float.min (Float.max x lo) hi
  | F_bad_call (m, args) ->
      c.ctr.flops <- c.ctr.flops + 1;
      Array.iter (fun a -> ignore (ev_f c a)) args;
      failwith m
  | F_bin (op, a, b) -> (
      let x = ev_f c a in
      let y = ev_f c b in
      c.ctr.flops <- c.ctr.flops + 1;
      match op with
      | L.Add -> x +. y
      | L.Sub -> x -. y
      | L.Mul -> x *. y
      | L.Div -> x /. y
      | L.FloorDiv ->
          Float.of_int
            (Tiramisu_support.Ints.fdiv (int_of_float x) (int_of_float y))
      | L.Mod ->
          Float.of_int
            (Tiramisu_support.Ints.emod (int_of_float x) (int_of_float y))
      | L.MinOp -> Float.min x y
      | L.MaxOp -> Float.max x y)

(* Offset of a starting element given (possibly shorter) leading indices. *)
let flat_offset c buf offset =
  let offset = Array.map (ev_i c) offset in
  let strides = Buffers.strides buf in
  let acc = ref 0 in
  Array.iteri (fun k i -> acc := !acc + (i * strides.(k))) offset;
  !acc

let rec exec c (s : stmt) : unit =
  match s with
  | S_block l -> Array.iter (exec c) l
  | S_nop -> ()
  | S_fail m -> failwith m
  | S_if (k, th, el) -> if ev_c c k then exec c th else exec c el
  | S_trace (name, idx, v) ->
      let idx = Array.map (ev_i c) idx in
      List.iter (fun h -> h name idx (ev_f c v)) c.t.hooks
  | S_store (name, a, v) -> (
      indices c a;
      let v = ev_f c v in
      c.ctr.stores <- c.ctr.stores + 1;
      let b = c.bufs.(a.slot) in
      b.Buffers.data.(Buffers.flat_index b a.scratch) <- v;
      (* hooks may keep the index array: give them their own *)
      match c.t.hooks with
      | [] -> ()
      | hooks ->
          let idx = Array.copy a.scratch in
          List.iter (fun h -> h name idx v) hooks)
  | S_alloc { slot; name; dims; mem; body } ->
      let dims = Array.map (ev_i c) dims in
      let saved = c.bufs.(slot) in
      c.bufs.(slot) <- Buffers.create ~mem name dims;
      exec c body;
      c.bufs.(slot) <- saved
  | S_for { slot; lo; hi; dist; body } ->
      let lo = ev_i c lo in
      let hi = ev_i c hi in
      let saved = c.env.(slot) and saved_rank = c.t.rank in
      for x = lo to hi do
        c.env.(slot) <- x;
        if dist then c.t.rank <- x;
        c.ctr.iterations <- c.ctr.iterations + 1;
        exec c body
      done;
      c.t.rank <- saved_rank;
      c.env.(slot) <- saved
  | S_send { b; dst; offset; count } ->
      let b = c.bufs.(b) and t = c.t in
      let dst = ev_i c dst in
      let off = flat_offset c b offset in
      let count = ev_i c count in
      check_slice b ~src:t.rank ~dst ~offset:off ~count;
      let payload = Array.sub b.Buffers.data off count in
      let key = (t.rank, dst) in
      let q =
        match Hashtbl.find_opt t.channels key with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace t.channels key q;
            q
      in
      Queue.push payload q;
      c.ctr.messages <- c.ctr.messages + 1;
      c.ctr.bytes_sent <- c.ctr.bytes_sent + (4 * count)
  | S_recv { b; name; src; offset; count } -> (
      let b = c.bufs.(b) in
      let src = ev_i c src in
      let off = flat_offset c b offset in
      let count = ev_i c count in
      let dst = c.t.rank in
      check_slice b ~src ~dst ~offset:off ~count;
      match Hashtbl.find_opt c.t.channels (src, dst) with
      | Some q when not (Queue.is_empty q) ->
          let payload = Queue.pop q in
          if Array.length payload <> count then
            raise
              (Comm_error
                 { src; dst; channel = name;
                   reason =
                     Printf.sprintf
                       "message size mismatch: sent %d elements, recv \
                        expects %d"
                       (Array.length payload) count });
          Array.blit payload 0 b.Buffers.data off count
      | _ ->
          raise
            (Comm_error
               { src; dst; channel = name;
                 reason = "synchronous recv with no message (deadlock)" }))
  | S_memcpy { dst; src } ->
      let s = c.bufs.(src) and d = c.bufs.(dst) in
      if Buffers.size s <> Buffers.size d then
        failwith "Interp: memcpy size mismatch";
      Array.blit s.Buffers.data 0 d.Buffers.data 0 (Buffers.size s)

let top = { vars = SSet.empty; bufs = SSet.empty }
let resolver t = { rt = t; vslots = SMap.empty; bslots = SMap.empty }

let run t s =
  let r = resolver t in
  let s = res_s r top s in
  exec (context r) s

let reference ~params ~extents ~inputs s =
  let t = create ~params ~buffers:(Buffers.instantiate ~extents ~inputs) () in
  run t s;
  t

let eval_expr t e =
  let r = resolver t in
  let e = res_f r top e in
  ev_f (context r) e
