module L = Loop_ir

(* FloorDiv, Mod, MinOp and MaxOp are emitted as helper calls (floord /
   emod / min / max) by [expr], never through this infix table: C's native
   [/] and [%] truncate toward zero, while the interpreter and the compiled
   backend use floor division and the matching floored modulo
   ({!Tiramisu_support.Ints.fdiv}/[emod]) — they differ on negative
   operands, e.g. [-5 mod 3] is 1 floored but -2 truncated. *)
let binop = function
  | L.Add -> "+" | L.Sub -> "-" | L.Mul -> "*" | L.Div -> "/"
  | L.FloorDiv | L.Mod | L.MinOp | L.MaxOp -> assert false

let cmpop = function
  | L.EqOp -> "==" | L.NeOp -> "!=" | L.LtOp -> "<" | L.LeOp -> "<="
  | L.GtOp -> ">" | L.GeOp -> ">="

type ctx = {
  shapes : (string * int array) list;
  buf : Buffer.t;
  mutable indent : int;
  mutable kernels : string list;  (* emitted CUDA-style kernels *)
}

let rec expr ctx (e : L.expr) : string =
  match e with
  | L.Int n -> string_of_int n
  | L.Float f ->
      let s = Printf.sprintf "%.9g" f in
      if String.contains s '.' || String.contains s 'e' then s ^ "f"
      else s ^ ".0f"
  | L.Var v -> v
  | L.Neg a -> Printf.sprintf "(-%s)" (expr ctx a)
  | L.Cast (t, a) -> Printf.sprintf "((%s)%s)" (L.dtype_name t) (expr ctx a)
  | L.Bin (L.MinOp, a, b) ->
      Printf.sprintf "min(%s, %s)" (expr ctx a) (expr ctx b)
  | L.Bin (L.MaxOp, a, b) ->
      Printf.sprintf "max(%s, %s)" (expr ctx a) (expr ctx b)
  | L.Bin (L.FloorDiv, a, b) ->
      Printf.sprintf "floord(%s, %s)" (expr ctx a) (expr ctx b)
  | L.Bin (L.Mod, a, b) ->
      Printf.sprintf "emod(%s, %s)" (expr ctx a) (expr ctx b)
  | L.Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr ctx a) (binop op) (expr ctx b)
  | L.Select (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (cond ctx c) (expr ctx a) (expr ctx b)
  | L.Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map (expr ctx) args))
  | L.Load (b, idx) -> Printf.sprintf "%s[%s]" b (linear ctx b idx)

and linear ctx b idx =
  (* Row-major flattening against the known buffer shape. *)
  match List.assoc_opt b ctx.shapes with
  | None -> String.concat " + " (List.map (expr ctx) idx)
  | Some dims ->
      let n = List.length idx in
      let parts =
        List.mapi
          (fun k e ->
            let stride = ref 1 in
            for d = k + 1 to n - 1 do
              if d < Array.length dims then stride := !stride * dims.(d)
            done;
            if !stride = 1 then Printf.sprintf "(%s)" (expr ctx e)
            else Printf.sprintf "(%s) * %d" (expr ctx e) !stride)
          idx
      in
      String.concat " + " parts

and cond ctx (c : L.cond) : string =
  match c with
  | L.True -> "1"
  | L.Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (expr ctx a) (cmpop op) (expr ctx b)
  | L.And (a, b) -> Printf.sprintf "(%s && %s)" (cond ctx a) (cond ctx b)
  | L.Or (a, b) -> Printf.sprintf "(%s || %s)" (cond ctx a) (cond ctx b)
  | L.Not a -> Printf.sprintf "(!%s)" (cond ctx a)

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let rec stmt ctx (s : L.stmt) : unit =
  match s with
  | L.Block l -> List.iter (stmt ctx) l
  | L.Comment c -> line ctx "// %s" c
  | L.Barrier -> line ctx "__syncthreads();"
  | L.Store (b, idx, v) ->
      line ctx "%s[%s] = %s;" b (linear ctx b idx) (expr ctx v)
  | L.If (c, t, e) ->
      line ctx "if (%s) {" (cond ctx c);
      ctx.indent <- ctx.indent + 1;
      stmt ctx t;
      ctx.indent <- ctx.indent - 1;
      (match e with
      | None -> line ctx "}"
      | Some e ->
          line ctx "} else {";
          ctx.indent <- ctx.indent + 1;
          stmt ctx e;
          ctx.indent <- ctx.indent - 1;
          line ctx "}")
  | L.For { var; lo; hi; tag; body } ->
      (match tag with
      | L.Distributed ->
          line ctx "// distributed: each rank executes one iteration";
          line ctx "// int %s = rank; if (%s < %s || %s > %s) skip;" var var
            (expr ctx lo) var (expr ctx hi)
      | L.Gpu_block a ->
          line ctx "// CUDA: %s = blockIdx.%c in [%s, %s]" var "xyz".[a]
            (expr ctx lo) (expr ctx hi)
      | L.Gpu_thread a ->
          line ctx "// CUDA: %s = threadIdx.%c in [%s, %s]" var "xyz".[a]
            (expr ctx lo) (expr ctx hi)
      | L.Parallel | L.Vectorized _ | L.Unrolled | L.Seq -> ());
      (* A loop pragma binds to the next [for] statement in C, so it must
         be the immediately preceding emitted line — nothing (a guard [if],
         a comment, another statement) may come between them.  Emitting the
         pragma and the for-line back-to-back here is the only place loop
         pragmas are produced. *)
      (match tag with
      | L.Parallel -> line ctx "#pragma omp parallel for"
      | L.Vectorized w -> line ctx "#pragma omp simd simdlen(%d)" w
      | L.Unrolled -> line ctx "#pragma unroll"
      | _ -> ());
      line ctx "for (int %s = %s; %s <= %s; %s++) {" var (expr ctx lo) var
        (expr ctx hi) var;
      ctx.indent <- ctx.indent + 1;
      stmt ctx body;
      ctx.indent <- ctx.indent - 1;
      line ctx "}"
  | L.Alloc { buf; dtype; dims; mem; body } ->
      let size =
        String.concat " * " (List.map (fun d -> expr ctx d) dims)
      in
      line ctx "{ // %s allocation" (L.mem_space_name mem);
      ctx.indent <- ctx.indent + 1;
      (match mem with
      | L.Gpu_shared -> line ctx "__shared__ %s %s[%s];" (L.dtype_name dtype) buf size
      | _ ->
          line ctx "%s *%s = (%s *)malloc(sizeof(%s) * %s);"
            (L.dtype_name dtype) buf (L.dtype_name dtype) (L.dtype_name dtype)
            size);
      stmt ctx body;
      (match mem with L.Gpu_shared -> () | _ -> line ctx "free(%s);" buf);
      ctx.indent <- ctx.indent - 1;
      line ctx "}"
  | L.Send { dst; buf; offset; count; props } ->
      line ctx "MPI_%s(&%s[%s], %s, MPI_FLOAT, %s, 0, MPI_COMM_WORLD%s);"
        (if props.L.async then "Isend" else "Send")
        buf (linear ctx buf offset) (expr ctx count) (expr ctx dst)
        (if props.L.async then ", &req" else "")
  | L.Recv { src; buf; offset; count; _ } ->
      line ctx
        "MPI_Recv(&%s[%s], %s, MPI_FLOAT, %s, 0, MPI_COMM_WORLD, \
         MPI_STATUS_IGNORE);"
        buf (linear ctx buf offset) (expr ctx count) (expr ctx src)
  | L.Memcpy { dst; src; direction } ->
      line ctx "cudaMemcpy(%s, %s, sizeof(%s), cudaMemcpy%s);" dst src src
        (match direction with
        | "host_to_device" -> "HostToDevice"
        | "device_to_host" -> "DeviceToHost"
        | _ -> "DeviceToDevice")

let emit_function ~name ~params ~buffers body =
  let ctx = { shapes = buffers; buf = Buffer.create 4096; indent = 0;
              kernels = [] } in
  ignore ctx.kernels;
  line ctx "// generated by tiramisu-ocaml";
  line ctx "#include <math.h>";
  line ctx "#include <stdlib.h>";
  line ctx "#include <stdint.h>";
  line ctx "#define min(a, b) ((a) < (b) ? (a) : (b))";
  line ctx "#define max(a, b) ((a) > (b) ? (a) : (b))";
  line ctx
    "static inline int floord(int a, int b) { int q = a / b, r = a %% b; \
     return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q; }";
  (* Floored modulo, matching Ints.emod = a - b * floord(a, b): the result
     has the divisor's sign, where C's %% truncates (dividend's sign). *)
  line ctx
    "static inline int emod(int a, int b) { int r = a %% b; \
     return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r; }";
  line ctx "";
  let args =
    List.map (fun p -> Printf.sprintf "int %s" p) params
    @ List.map (fun (b, _) -> Printf.sprintf "float *%s" b) buffers
  in
  line ctx "void %s(%s) {" name (String.concat ", " args);
  ctx.indent <- 1;
  stmt ctx body;
  ctx.indent <- 0;
  line ctx "}";
  Buffer.contents ctx.buf
