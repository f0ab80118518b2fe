open Tiramisu_codegen
module L = Loop_ir

type counters = {
  mutable flops : int;
  mutable loads : int;
  mutable stores : int;
  mutable iterations : int;
  mutable messages : int;
  mutable bytes_sent : int;
}

type t = {
  vars : (string, int) Hashtbl.t;
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
      vars = Hashtbl.create 16;
      bufs = Hashtbl.create 16;
      ctr =
        { flops = 0; loads = 0; stores = 0; iterations = 0; messages = 0;
          bytes_sent = 0 };
      hooks = [];
      channels = Hashtbl.create 16;
      rank = 0;
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace t.vars k v) params;
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

let buffer t name =
  match Hashtbl.find_opt t.bufs name with
  | Some b -> b
  | None -> failwith (Printf.sprintf "Interp: unknown buffer %s" name)

let counters t = t.ctr
let on_store t f = t.hooks <- f :: t.hooks

let var t name =
  match Hashtbl.find_opt t.vars name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Interp: unbound variable %s" name)

let rec eval_int t (e : L.expr) : int =
  match e with
  | L.Int n -> n
  | L.Float _ -> failwith "Interp: float in integer context"
  | L.Var v -> var t v
  | L.Neg a -> -eval_int t a
  | L.Cast (L.I32, a) -> int_of_float (eval_f t a)
  | L.Cast (_, a) -> eval_int t a
  | L.Load (b, idx) ->
      t.ctr.loads <- t.ctr.loads + 1;
      int_of_float (Buffers.get (buffer t b) (Array.of_list (List.map (eval_int t) idx)))
  | L.Select (c, a, b) -> if eval_cond t c then eval_int t a else eval_int t b
  | L.Call (f, args) -> (
      let args = List.map (eval_int t) args in
      match (f, args) with
      | "abs", [ a ] -> abs a
      | _ -> failwith (Printf.sprintf "Interp: unknown int intrinsic %s" f))
  | L.Bin (op, a, b) -> (
      let x = eval_int t a and y = eval_int t b in
      match op with
      | L.Add -> x + y
      | L.Sub -> x - y
      | L.Mul -> x * y
      | L.Div -> x / y
      | L.FloorDiv -> Tiramisu_support.Ints.fdiv x y
      | L.Mod -> Tiramisu_support.Ints.emod x y
      | L.MinOp -> min x y
      | L.MaxOp -> max x y)

and eval_cond t (c : L.cond) : bool =
  match c with
  | L.True -> true
  | L.And (a, b) -> eval_cond t a && eval_cond t b
  | L.Or (a, b) -> eval_cond t a || eval_cond t b
  | L.Not a -> not (eval_cond t a)
  | L.Cmp (op, a, b) -> (
      let x = eval_int t a and y = eval_int t b in
      match op with
      | L.EqOp -> x = y
      | L.NeOp -> x <> y
      | L.LtOp -> x < y
      | L.LeOp -> x <= y
      | L.GtOp -> x > y
      | L.GeOp -> x >= y)

and eval_f t (e : L.expr) : float =
  match e with
  | L.Int n -> float_of_int n
  | L.Float f -> f
  | L.Var v -> float_of_int (var t v)
  | L.Neg a -> -.eval_f t a
  | L.Cast (L.I32, a) -> Float.of_int (int_of_float (eval_f t a))
  | L.Cast (_, a) -> eval_f t a
  | L.Load (b, idx) ->
      t.ctr.loads <- t.ctr.loads + 1;
      Buffers.get (buffer t b)
        (Array.of_list (List.map (eval_int t) idx))
  | L.Select (c, a, b) -> if eval_cond t c then eval_f t a else eval_f t b
  | L.Call (f, args) -> (
      t.ctr.flops <- t.ctr.flops + 1;
      let args = List.map (eval_f t) args in
      match (f, args) with
      | "abs", [ a ] -> Float.abs a
      | "sqrt", [ a ] -> sqrt a
      | "exp", [ a ] -> exp a
      | "log", [ a ] -> log a
      | "sin", [ a ] -> sin a
      | "cos", [ a ] -> cos a
      | "floor", [ a ] -> Float.floor a
      | "pow", [ a; b ] -> Float.pow a b
      | "fmin", [ a; b ] -> Float.min a b
      | "fmax", [ a; b ] -> Float.max a b
      | "clamp", [ x; lo; hi ] -> Float.min (Float.max x lo) hi
      | _ -> failwith (Printf.sprintf "Interp: unknown intrinsic %s" f))
  | L.Bin (op, a, b) -> (
      let x = eval_f t a and y = eval_f t b in
      t.ctr.flops <- t.ctr.flops + 1;
      match op with
      | L.Add -> x +. y
      | L.Sub -> x -. y
      | L.Mul -> x *. y
      | L.Div -> x /. y
      | L.FloorDiv -> Float.of_int (Tiramisu_support.Ints.fdiv (int_of_float x) (int_of_float y))
      | L.Mod -> Float.of_int (Tiramisu_support.Ints.emod (int_of_float x) (int_of_float y))
      | L.MinOp -> Float.min x y
      | L.MaxOp -> Float.max x y)

let flat_offset buf idx =
  (* Offset of a starting element given (possibly shorter) leading indices. *)
  let strides = Buffers.strides buf in
  let acc = ref 0 in
  List.iteri (fun k i -> acc := !acc + (i * strides.(k))) idx;
  !acc

let rec exec t (s : L.stmt) : unit =
  match s with
  | L.Block l -> List.iter (exec t) l
  | L.Comment _ -> ()
  | L.Barrier -> ()
  | L.If (c, th, el) ->
      if eval_cond t c then exec t th
      else Option.iter (exec t) el
  | L.Store (b, idx, v) when String.length b >= 7 && String.sub b 0 7 = "__trace" ->
      (* Trace pseudo-stores: drive the hooks without touching memory; used
         by the AST-generation visit-order tests. *)
      let idx = Array.of_list (List.map (eval_int t) idx) in
      List.iter (fun h -> h b idx (eval_f t v)) t.hooks
  | L.Store (b, idx, v) ->
      let buf = buffer t b in
      let idx = Array.of_list (List.map (eval_int t) idx) in
      let v = eval_f t v in
      t.ctr.stores <- t.ctr.stores + 1;
      Buffers.set buf idx v;
      List.iter (fun h -> h b idx v) t.hooks
  | L.Alloc { buf; dims; mem; body; _ } ->
      let dims = Array.of_list (List.map (eval_int t) dims) in
      let prev = Hashtbl.find_opt t.bufs buf in
      Hashtbl.replace t.bufs buf (Buffers.create ~mem buf dims);
      exec t body;
      (match prev with
      | Some b -> Hashtbl.replace t.bufs buf b
      | None -> Hashtbl.remove t.bufs buf)
  | L.For { var = v; lo; hi; tag; body } ->
      let lo = eval_int t lo and hi = eval_int t hi in
      let saved = Hashtbl.find_opt t.vars v in
      let saved_rank = t.rank in
      for x = lo to hi do
        Hashtbl.replace t.vars v x;
        if tag = L.Distributed then t.rank <- x;
        t.ctr.iterations <- t.ctr.iterations + 1;
        exec t body
      done;
      t.rank <- saved_rank;
      (match saved with
      | Some x -> Hashtbl.replace t.vars v x
      | None -> Hashtbl.remove t.vars v)
  | L.Send { dst; buf; offset; count; _ } ->
      let b = buffer t buf in
      let dst = eval_int t dst in
      let off = flat_offset b (List.map (eval_int t) offset) in
      let count = eval_int t count in
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
      t.ctr.messages <- t.ctr.messages + 1;
      t.ctr.bytes_sent <- t.ctr.bytes_sent + (4 * count)
  | L.Recv { src; buf; offset; count; _ } ->
      let b = buffer t buf in
      let src = eval_int t src in
      let off = flat_offset b (List.map (eval_int t) offset) in
      let count = eval_int t count in
      let dst = t.rank in
      check_slice b ~src ~dst ~offset:off ~count;
      (match Hashtbl.find_opt t.channels (src, dst) with
      | Some q when not (Queue.is_empty q) ->
          let payload = Queue.pop q in
          if Array.length payload <> count then
            raise
              (Comm_error
                 { src; dst; channel = buf;
                   reason =
                     Printf.sprintf
                       "message size mismatch: sent %d elements, recv \
                        expects %d"
                       (Array.length payload) count });
          Array.blit payload 0 b.Buffers.data off count
      | _ ->
          raise
            (Comm_error
               { src; dst; channel = buf;
                 reason = "synchronous recv with no message (deadlock)" }))
  | L.Memcpy { dst; src; _ } ->
      let s = buffer t src and d = buffer t dst in
      if Buffers.size s <> Buffers.size d then
        failwith "Interp: memcpy size mismatch";
      Array.blit s.Buffers.data 0 d.Buffers.data 0 (Buffers.size s)

let run t s = exec t s

let reference ~params ~extents ~inputs s =
  let t = create ~params ~buffers:(Buffers.instantiate ~extents ~inputs) () in
  run t s;
  t
let eval_expr t e = eval_f t e
