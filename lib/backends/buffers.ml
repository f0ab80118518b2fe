type t = {
  name : string;
  dims : int array;
  data : float array;
  mem : Tiramisu_codegen.Loop_ir.mem_space;
}

let size_of dims = Array.fold_left ( * ) 1 dims

let create ?(mem = Tiramisu_codegen.Loop_ir.Host) name dims =
  { name; dims; data = Array.make (size_of dims) 0.0; mem }

let of_array ?(mem = Tiramisu_codegen.Loop_ir.Host) name dims data =
  if Array.length data <> size_of dims then
    invalid_arg "Buffers.of_array: size mismatch";
  { name; dims; data; mem }

let size b = Array.length b.data

(* Row-major strides of a dims vector; the single stride computation shared
   by every backend (interpreter offsets, compiled addressing, send/recv). *)
let strides_of dims =
  let n = Array.length dims in
  let s = Array.make (max n 1) 1 in
  for k = n - 2 downto 0 do
    s.(k) <- s.(k + 1) * dims.(k + 1)
  done;
  s

let strides b = strides_of b.dims

let flat_index b idx =
  let dims = b.dims in
  let n = Array.length dims in
  if Array.length idx <> n then
    invalid_arg
      (Printf.sprintf "buffer %s: rank %d access on rank %d buffer" b.name
         (Array.length idx) n);
  let acc = ref 0 in
  for k = 0 to n - 1 do
    let i = idx.(k) and d = dims.(k) in
    if i < 0 || i >= d then
      invalid_arg
        (Printf.sprintf "buffer %s: index %d out of bounds [0,%d) at dim %d"
           b.name i d k);
    acc := (!acc * d) + i
  done;
  !acc

let get b idx = b.data.(flat_index b idx)
let set b idx v = b.data.(flat_index b idx) <- v

let fill b f =
  let rank = Array.length b.dims in
  let idx = Array.make rank 0 in
  let n = size b in
  (* incremental odometer over the coordinates: bump the last dimension and
     ripple the carry, instead of mod/div-decoding every flat index *)
  for flat = 0 to n - 1 do
    b.data.(flat) <- f idx;
    let k = ref (rank - 1) in
    let carry = ref true in
    while !carry && !k >= 0 do
      idx.(!k) <- idx.(!k) + 1;
      if idx.(!k) = b.dims.(!k) then idx.(!k) <- 0 else carry := false;
      decr k
    done
  done

let copy b = { b with data = Array.copy b.data }

let max_abs_diff a b =
  if size a <> size b then invalid_arg "Buffers.max_abs_diff: size mismatch";
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i)))) a.data;
  !m

let equal ?(eps = 1e-4) a b = size a = size b && max_abs_diff a b <= eps

(* Bit-exact comparison: [0.0] and [-0.0] differ, a NaN equals only the
   same NaN bits. *)
let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let first_diff_index a b =
  let n = size a in
  let rec go i =
    if i = n then None
    else if same_bits a.data.(i) b.data.(i) then go (i + 1)
    else Some i
  in
  go 0

let bits_equal a b = size a = size b && first_diff_index a b = None

let first_diff a b =
  if size a <> size b then Printf.sprintf "(sizes %d vs %d)" (size a) (size b)
  else
    match first_diff_index a b with
    | None -> "(bit-identical)"
    | Some i -> Printf.sprintf "[%d]: %.17g vs %.17g" i a.data.(i) b.data.(i)

let fill_inputs buffers inputs =
  List.iter
    (fun (name, f) ->
      match List.find_opt (fun b -> b.name = name) buffers with
      | Some b -> fill b f
      | None -> invalid_arg ("unknown input buffer " ^ name))
    inputs

let instantiate ~extents ~inputs =
  let buffers =
    List.map (fun (name, dims, mem) -> create ~mem name dims) extents
  in
  fill_inputs buffers inputs;
  buffers
