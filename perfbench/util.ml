(* Clock, statistics, seeded input fills, bit-exact comparison and file
   helpers shared by every workload. *)

module B = Tiramisu_backends

let now_ms = B.Clock.now_ms

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile xs p =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Python's [statistics.quantiles data ~n:4] (method "exclusive"): the
   quartiles the benchmark's spread rule is stated in. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let trimmed_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = n / 10 in
  if n = 0 then 0.0
  else
    let kept = Array.sub a k (n - (2 * k)) in
    Array.fold_left ( +. ) 0.0 kept /. float_of_int (Array.length kept)

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun s x -> s +. log (Float.max x 1e-9)) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* A timing row as every workload reports it: the median, the highest
   percentile that still has at least ten samples beyond it, and the
   sample count.  With fewer than 11 samples the high mark is the
   maximum. *)
type timing = { n : int; p50 : float; hi : float; hi_pct : float }

let timing xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { n = 0; p50 = 0.0; hi = 0.0; hi_pct = 0.0 }
  else
    let k = if n > 10 then n - 11 else n - 1 in
    { n; p50 = median xs; hi = a.(k);
      hi_pct = 100.0 *. float_of_int (k + 1) /. float_of_int n }

(* ---------- seeded inputs ---------- *)

(* A deterministic fill keyed by (seed, buffer name, index).  [modulus]
   and [scale] keep values small: the fuzz programs need integer values in
   [-8, 8] to stay exactly representable, the image kernels take any
   finite values. *)
let fill ~seed ~name ?(modulus = 31) ?(offset = 0) ?(scale = 7.0) () =
  let h = (Hashtbl.hash name land 0xffff) + (seed * 7919) + 17 in
  fun (idx : int array) ->
    let a = ref h in
    Array.iter (fun i -> a := (!a * 131) + (i * 7) + (i * i)) idx;
    float_of_int (((!a land 0x3fffffff) mod modulus) + offset) /. scale

let fuzz_fill ~seed ~name = fill ~seed ~name ~modulus:17 ~offset:(-8) ~scale:1.0 ()

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---------- correctness ---------- *)

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a
    || Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))
       && go (i + 1)
  in
  go 0

(* ---------- files ---------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + du (Filename.concat path e))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Where a run keeps its scratch state (the service store) and its span
   dump: inside the directory the benchmark runs from. *)
let out_dir = Filename.concat ".bench_build" "perfbench"

(* ---------- JSON output ---------- *)

(* Every digit of a measured value: a comparison must see the number as
   measured, not a rounded one. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
