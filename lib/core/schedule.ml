open Tiramisu_presburger
open Ir
module L = Tiramisu_codegen.Loop_ir

let col_ctr = ref 0

let fresh_col () =
  incr col_ctr;
  (* Zero-padded so the lexicographic order Aff's term map uses agrees
     with allocation order regardless of the counter's magnitude: term
     order in reconstructed index expressions — and hence the structural
     hash of the lowered IR — must not depend on how many columns other
     functions allocated earlier in the process. *)
  Printf.sprintf "c$%09d" !col_ctr

let mk_dyn name = { d_col = fresh_col (); d_name = name; d_kind = Dyn; d_tag = L.Seq }
let mk_static v =
  { d_col = fresh_col (); d_name = "_s"; d_kind = Static v; d_tag = L.Seq }

let init _fn ~order iters =
  let dims =
    mk_static order
    :: List.concat_map (fun i -> [ mk_dyn i; mk_static 0 ]) iters
  in
  let dyns = List.filter (fun d -> d.d_kind = Dyn) dims in
  let cstrs =
    List.map2
      (fun d i -> Cstr.Eq (Aff.var d.d_col, Aff.var i))
      dyns iters
  in
  { dims; inter = []; cstrs }

(* Replace the [len] dims starting at list position [pos] with [news]. *)
let splice sched pos len news =
  let rec go i = function
    | rest when i = pos -> news @ drop len rest
    | d :: rest -> d :: go (i + 1) rest
    | [] -> invalid_arg "Schedule.splice"
  and drop n l = if n = 0 then l else drop (n - 1) (List.tl l)
  in
  sched.dims <- go 0 sched.dims

let dim_at sched pos = List.nth sched.dims pos

let split sched name factor n_out n_in =
  if factor <= 0 then invalid_arg "split: factor must be positive";
  let k = find_dyn sched name in
  let pos = dyn_pos sched k in
  let old = dim_at sched pos in
  let d0 = mk_dyn n_out and d1 = { (mk_dyn n_in) with d_tag = old.d_tag } in
  sched.cstrs <-
    Cstr.Eq
      (Aff.var old.d_col, Aff.(add (scale factor (var d0.d_col)) (var d1.d_col)))
    :: (Cstr.between (Aff.const 0) (Aff.var d1.d_col) (Aff.const factor)
       @ sched.cstrs);
  sched.inter <- old.d_col :: sched.inter;
  splice sched pos 1 [ d0; mk_static 0; d1 ]

let tile sched i j t1 t2 i0 j0 i1 j1 =
  let ki = find_dyn sched i and kj = find_dyn sched j in
  if kj <> ki + 1 then
    invalid_arg "tile: dimensions must be consecutive loop levels";
  (* Split both, then move j0 out: [i0 i1 j0 j1] -> [i0 j0 i1 j1]. *)
  split sched i t1 i0 i1;
  split sched j t2 j0 j1;
  (* dims now: ... i0 s i1 s j0 s j1 ... — swap i1 and j0. *)
  let p_i1 = dyn_pos sched (ki + 1) and p_j0 = dyn_pos sched (ki + 2) in
  let di1 = dim_at sched p_i1 and dj0 = dim_at sched p_j0 in
  let rec swap idx = function
    | [] -> []
    | d :: rest ->
        (if idx = p_i1 then dj0 else if idx = p_j0 then di1 else d)
        :: swap (idx + 1) rest
  in
  sched.dims <- swap 0 sched.dims

let interchange sched i j =
  let ki = find_dyn sched i and kj = find_dyn sched j in
  let pi = dyn_pos sched ki and pj = dyn_pos sched kj in
  let di = dim_at sched pi and dj = dim_at sched pj in
  let rec swap idx = function
    | [] -> []
    | d :: rest ->
        (if idx = pi then dj else if idx = pj then di else d)
        :: swap (idx + 1) rest
  in
  sched.dims <- swap 0 sched.dims

let replace_col sched name mk_expr =
  let k = find_dyn sched name in
  let pos = dyn_pos sched k in
  let old = dim_at sched pos in
  let fresh =
    { old with d_col = fresh_col () }
  in
  sched.cstrs <- Cstr.Eq (Aff.var fresh.d_col, mk_expr old.d_col) :: sched.cstrs;
  sched.inter <- old.d_col :: sched.inter;
  splice sched pos 1 [ fresh ]

let shift sched name s =
  replace_col sched name (fun old -> Aff.(add (var old) (const s)))

let skew sched i j f =
  let ki = find_dyn sched i in
  let di = List.nth (dyn_dims sched) ki in
  replace_col sched j (fun old ->
      Aff.(add (var old) (scale f (var di.d_col))))

let reverse sched name =
  replace_col sched name (fun old -> Aff.neg (Aff.var old))

let tag sched name t =
  let k = find_dyn sched name in
  (nth_dyn sched k).d_tag <- t

let vectorize sched name width =
  split sched name width name (name ^ "_v");
  tag sched (name ^ "_v") (L.Vectorized width)

let unroll sched name factor =
  split sched name factor name (name ^ "_u");
  tag sched (name ^ "_u") L.Unrolled

(* The static dim ordering computations at dynamic level [k] is the one
   immediately preceding dynamic dim k (or the trailing one for
   k = dyn_count). *)
let static_before sched k =
  let rec go seen last = function
    | [] ->
        if k >= seen then last
        else invalid_arg "Schedule.static_before"
    | d :: rest -> (
        match d.d_kind with
        | Static _ -> go seen d rest
        | Dyn -> if seen = k then last else go (seen + 1) last rest)
  in
  match go 0 (List.hd sched.dims) sched.dims with
  | { d_kind = Static _; _ } as d -> d
  | _ -> invalid_arg "Schedule.static_before: malformed schedule"

let set_static sched k v = (static_before sched k).d_kind <- Static v

let get_static sched k =
  match (static_before sched k).d_kind with
  | Static v -> v
  | Dyn -> assert false

let after c b level =
  for m = 0 to level - 1 do
    set_static c m (get_static b m)
  done;
  set_static c level (get_static b level + 1)

(* ---------- lowering support ---------- *)

let live_cols sched = List.map (fun d -> d.d_col) sched.dims

let backward_exprs ~params domain sched =
  let iters = Array.to_list domain.Iset.space.Space.vars in
  if iters = [] then []
  else begin
    let sp =
      Space.map_space ~params ~ins:(iters @ sched.inter) (live_cols sched)
    in
    (* the solve reads the equalities alone *)
    let m =
      Imap.of_constraints sp
        (List.filter (function Cstr.Eq _ -> true | _ -> false) sched.cstrs)
    in
    match Imap.solve_ins m with
    | None ->
        failwith
          "Schedule.backward_exprs: iterators not determined by the schedule"
    | Some exprs ->
        (* Substitute static columns by their constant values. *)
        let static_val =
          List.filter_map
            (fun d ->
              match d.d_kind with
              | Static v -> Some (d.d_col, v)
              | Dyn -> None)
            sched.dims
        in
        List.mapi
          (fun idx it ->
            let e =
              Aff.subst exprs.(idx) (fun name ->
                  match List.assoc_opt name static_val with
                  | Some v -> Some (Aff.const v)
                  | None -> None)
            in
            (it, e))
          iters
  end

let pp ppf sched =
  Format.fprintf ppf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Format.fprintf ppf "; ";
      match d.d_kind with
      | Static v -> Format.fprintf ppf "%d" v
      | Dyn -> Format.fprintf ppf "%s%s" d.d_name
                 (match d.d_tag with
                  | L.Seq -> ""
                  | t -> "(" ^ L.tag_name t ^ ")"))
    sched.dims;
  Format.fprintf ppf "]"
