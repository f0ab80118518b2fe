open Tiramisu_presburger
open Ir
module L = Tiramisu_codegen.Loop_ir

type var = { v_name : string; v_lo : Aff.t; v_hi : Aff.t }

let var v_name v_lo v_hi = { v_name; v_lo; v_hi }
let x v = Expr.iter v.v_name

let create ?(context = []) ~params fn_name =
  {
    fn_name;
    params;
    context;
    comps = [];
    buffers = [];
    allocs = [];
    next_id = 0;
  }

let domain_of_vars fn name vars =
  let space =
    Space.set_space ~name ~params:fn.params (List.map (fun v -> v.v_name) vars)
  in
  Iset.of_constraints space
    (List.concat_map
       (fun v -> Cstr.between v.v_lo (Aff.var v.v_name) v.v_hi)
       vars)

let add_comp fn c = fn.comps <- fn.comps @ [ c ]

let mk_comp ?(dtype = L.F32) ~kind ~expr fn name vars =
  let iters = List.map (fun v -> v.v_name) vars in
  let c =
    {
      comp_name = name;
      domain = domain_of_vars fn name vars;
      iters;
      ranges = List.map (fun v -> (v.v_name, (v.v_lo, v.v_hi))) vars;
      expr;
      comp_dtype = dtype;
      kind;
      fn;
      sched = Schedule.init fn ~order:(List.length fn.comps) iters;
      access = None;
      inlined = false;
      computed_at = None;
      cached_shared = None;
    }
  in
  add_comp fn c;
  c

let input ?dtype fn name vars =
  mk_comp ?dtype ~kind:Input ~expr:(Int_e 0) fn name vars

let comp ?dtype fn name vars expr = mk_comp ?dtype ~kind:Regular ~expr fn name vars

let add_domain_constraints c cs = c.domain <- Iset.add_constraints c.domain cs

let ( $ ) c idx =
  if List.length idx <> List.length c.iters then
    invalid_arg
      (Printf.sprintf "%s: access arity %d, expected %d" c.comp_name
         (List.length idx) (List.length c.iters));
  Access_e (c.comp_name, idx)

(* ---------- loop-nest transformations ---------- *)

let tile c i j t1 t2 i0 j0 i1 j1 = Schedule.tile c.sched i j t1 t2 i0 j0 i1 j1
let split c i f i0 i1 = Schedule.split c.sched i f i0 i1
let interchange c i j = Schedule.interchange c.sched i j
let shift c i s = Schedule.shift c.sched i s
let skew c i j f = Schedule.skew c.sched i j f
let reverse c i = Schedule.reverse c.sched i

let compute_at p c lvl =
  p.computed_at <- Some (c, find_dyn c.sched lvl)

let inline c =
  if c.kind <> Regular then invalid_arg "inline: only regular computations";
  c.inlined <- true

let root = "root"

let after c b lvl =
  let level = if lvl = root then 0 else find_dyn b.sched lvl + 1 in
  Schedule.after c.sched b.sched level

let before c b lvl =
  (* b runs after c at that level. *)
  after b c lvl

(* ---------- hardware mapping ---------- *)

let parallelize c i = Schedule.tag c.sched i L.Parallel
let vectorize c i s = Schedule.vectorize c.sched i s
let unroll c i f = Schedule.unroll c.sched i f
let distribute c i = Schedule.tag c.sched i L.Distributed

let gpu c blocks threads =
  List.iteri (fun a i -> Schedule.tag c.sched i (L.Gpu_block a)) blocks;
  List.iteri (fun a i -> Schedule.tag c.sched i (L.Gpu_thread a)) threads

let tile_gpu c i j t1 t2 i0 j0 i1 j1 =
  (* threadIdx.x (axis 0) maps to the contiguous [j] dimension so that
     global accesses coalesce — the Fig. 3b convention. *)
  tile c i j t1 t2 i0 j0 i1 j1;
  gpu c [ j0; i0 ] [ j1; i1 ]

(* ---------- data manipulation ---------- *)

let buffer ?(mem = L.Host) ?(dtype = L.F32) fn name dims =
  let b =
    { buf_name = name; buf_dims = dims; buf_dtype = dtype; buf_mem = mem;
      buf_auto = false }
  in
  fn.buffers <- fn.buffers @ [ b ];
  b

let extent (lo, hi) = Aff.sub hi lo

(* Auto buffer: one dimension per iterator, sized by the iterator's range,
   identity indexing shifted to zero base. *)
let buffer_of c =
  match c.access with
  | Some a -> a.acc_buf
  | None ->
      let b =
        {
          buf_name = c.comp_name;
          buf_dims = List.map (fun (_, r) -> extent r) c.ranges;
          buf_dtype = c.comp_dtype;
          buf_mem = L.Host;
          buf_auto = true;
        }
      in
      c.fn.buffers <- c.fn.buffers @ [ b ];
      c.access <-
        Some
          {
            acc_buf = b;
            acc_idx =
              List.map
                (fun (it, (lo, _)) -> Aff.sub (Aff.var it) lo)
                c.ranges;
          };
      b

let store_in c b idx = c.access <- Some { acc_buf = b; acc_idx = idx }

let store_in_dims c dims =
  (* Permuted identity layout into a fresh buffer, e.g. store_in({c,i,j}). *)
  let range it =
    match List.assoc_opt it c.ranges with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "store_in_dims: unknown iterator %s" it)
  in
  let b =
    {
      buf_name = c.comp_name;
      buf_dims = List.map (fun it -> extent (range it)) dims;
      buf_dtype = c.comp_dtype;
      buf_mem = L.Host;
      buf_auto = true;
    }
  in
  c.fn.buffers <- c.fn.buffers @ [ b ];
  c.access <-
    Some
      {
        acc_buf = b;
        acc_idx =
          List.map (fun it -> Aff.sub (Aff.var it) (fst (range it))) dims;
      }

let tag_mem b mem = b.buf_mem <- mem

let cache_shared_at p c lvl =
  p.cached_shared <-
    Some
      ( {
          buf_name = p.comp_name ^ "_shared";
          buf_dims = [];  (* sized during lowering from the footprint *)
          buf_dtype = p.comp_dtype;
          buf_mem = L.Gpu_shared;
          buf_auto = true;
        },
        c,
        find_dyn c.sched lvl )

let allocate_at b c lvl =
  c.fn.allocs <- c.fn.allocs @ [ (b, c, find_dyn c.sched lvl) ]

let unit_var = { v_name = "_o"; v_lo = Aff.const 0; v_hi = Aff.const 1 }

let host_to_device fn c =
  let b = buffer_of c in
  mk_comp
    ~kind:(Op_copy { c_src = b; c_dst = b; c_direction = "host_to_device" })
    ~expr:(Int_e 0) fn
    (fresh_id fn (c.comp_name ^ "_h2d_"))
    [ unit_var ]

let device_to_host fn c =
  let b = buffer_of c in
  mk_comp
    ~kind:(Op_copy { c_src = b; c_dst = b; c_direction = "device_to_host" })
    ~expr:(Int_e 0) fn
    (fresh_id fn (c.comp_name ^ "_d2h_"))
    [ unit_var ]

let send fn name ~iters ~buf ~offset ~count ~dest ~async =
  mk_comp
    ~kind:
      (Op_send
         { s_buf = buf; s_offset = offset; s_count = count; s_dest = dest;
           s_async = async })
    ~expr:(Int_e 0) fn name iters

let receive fn name ~iters ~buf ~offset ~count ~src ~sync =
  mk_comp
    ~kind:
      (Op_recv
         { r_buf = buf; r_offset = offset; r_count = count; r_src = src;
           r_sync = sync })
    ~expr:(Int_e 0) fn name iters

let barrier_at fn name ~iters =
  mk_comp ~kind:Op_barrier ~expr:(Int_e 0) fn name iters

let find_comp fn name =
  match List.find_opt (fun c -> c.comp_name = name) fn.comps with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "%s: no computation %s" fn.fn_name name)

(* C.set_schedule(): replace the whole time-space map with an affine
   relation written in ISL syntax (Table II).  The map's input tuple must
   list the computation's iterators; its outputs become the new dynamic
   dimensions. *)
let set_schedule c str =
  let m = Isl.parse_map str in
  let msp = m.Imap.space in
  let ins = Array.to_list msp.Space.ins in
  if List.length ins <> List.length c.iters then
    invalid_arg "set_schedule: input arity does not match the iterators";
  (* Accept any input names: rename positionally to the iterators. *)
  let rename = List.combine ins c.iters in
  let outs = Array.to_list msp.Space.outs in
  let order = Schedule.get_static c.sched 0 in
  let fresh = Schedule.init c.fn ~order outs in
  (* [fresh] made one Dyn dim (+ statics) per output, with identity cstrs
     linking each col to an "iterator" named like the output; rewrite those
     into the parsed map's constraints. *)
  let out_cols =
    List.map (fun d -> d.d_col) (dyn_dims fresh)
  in
  let cols =
    Array.of_list
      (Array.to_list msp.Space.mparams @ List.map snd rename @ out_cols)
  in
  let poly =
    match m.Imap.polys with
    | [ p ] -> p
    | _ -> invalid_arg "set_schedule: expected a single-piece map"
  in
  let cstrs =
    List.map
      (fun r -> Cstr.Eq (Aff.of_row ~cols r, Aff.const 0))
      poly.Poly.eqs
    @ List.map
        (fun r -> Cstr.Ge (Aff.of_row ~cols r, Aff.const 0))
        poly.Poly.ineqs
  in
  fresh.cstrs <- cstrs;
  c.sched <- fresh
