(* First-class execution target.  Every layer that used to hand-thread
   `(parallel, ...)` knob tuples — Exec, Pipeline, Runner, Service,
   Autosched, Fuzz, tiramisuc — now passes one of these instead.  The
   paper's portability claim (Layers III–IV) is that one schedule lowers
   to CPU, GPU, and distributed code; this module is the seam that names
   which of the three a compilation is for, and what that backend can do
   (capability flags below).

   Targets participate in the compile-cache and service-store keys via
   [to_key_string]: two compilations of the same program for different
   targets are different artifacts (see DESIGN.md §14). *)

type cpu_knobs = { parallel : [ `Pool | `Seq ] }

type grid_cfg = {
  max_threads : int;  (* thread-block size ceiling (per-SM cap of the model) *)
  shared_kb : int;    (* shared-memory budget per block, KiB *)
}

type dist_cfg = {
  ranks : int;         (* number of in-process ranks *)
  net : Machine.net;   (* α–β model used for predicted comm time *)
}

type t =
  | Cpu of cpu_knobs
  | Gpu_sim of grid_cfg
  | Distributed of dist_cfg

(* ---------------- constructors ---------------- *)

let cpu ?(parallel = `Pool) () = Cpu { parallel }
let default = cpu ()

let gpu_sim ?(max_threads = Machine.default.Machine.gpu.Machine.max_threads_per_sm)
    ?(shared_kb = 48) () =
  Gpu_sim { max_threads; shared_kb }

let distributed ?(net = Machine.default.Machine.net) ~ranks () =
  if ranks < 1 then invalid_arg "Target.distributed: ranks must be >= 1";
  Distributed { ranks; net }

(* ---------------- capability flags ---------------- *)

(* The parallel planner (trip counts, band widening, static ranges) is
   about the domain pool; it only applies when the target runs on it. *)
let pool_schedulable = function
  | Cpu { parallel = `Pool; _ } -> true
  | Cpu _ | Gpu_sim _ | Distributed _ -> false

(* ---------------- projections for Exec ---------------- *)

let par_strategy = function
  | Cpu k -> k.parallel
  | Gpu_sim _ | Distributed _ -> `Seq

let ranks = function Distributed d -> Some d.ranks | Cpu _ | Gpu_sim _ -> None

(* ---------------- naming ---------------- *)

let string_of_par = function `Pool -> "pool" | `Seq -> "seq"

(* Stable, total rendering: folded into the structural-hash cache key and
   the service store's artifact records.  Changing this string for an
   existing target invalidates every cached artifact for it — on purpose. *)
let to_key_string = function
  | Cpu k -> Printf.sprintf "cpu:%s" (string_of_par k.parallel)
  | Gpu_sim g -> Printf.sprintf "gpu-sim:%d:%dk" g.max_threads g.shared_kb
  | Distributed d ->
      Printf.sprintf "dist:%d:a%.0f:b%.3f" d.ranks d.net.Machine.alpha
        d.net.Machine.beta

let pp ppf t =
  match t with
  | Cpu k -> Format.fprintf ppf "cpu(%s)" (string_of_par k.parallel)
  | Gpu_sim g ->
      Format.fprintf ppf "gpu-sim(threads=%d,shared=%dKiB)" g.max_threads
        g.shared_kb
  | Distributed d -> Format.fprintf ppf "dist(ranks=%d)" d.ranks

let to_string t = Format.asprintf "%a" pp t

(* CLI grammar: cpu | cpu:pool|seq | gpu-sim | dist:N *)
let of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "cpu" ] -> Ok (cpu ())
  | [ "cpu"; p ] -> (
      match p with
      | "pool" -> Ok (cpu ~parallel:`Pool ())
      | "seq" -> Ok (cpu ~parallel:`Seq ())
      | _ ->
          Error
            (Printf.sprintf "unknown cpu strategy %S (want cpu:pool|cpu:seq)"
               p))
  | [ "gpu-sim" ] | [ "gpu" ] -> Ok (gpu_sim ())
  | [ "dist"; n ] -> (
      match int_of_string_opt n with
      | Some ranks when ranks >= 1 -> Ok (distributed ~ranks ())
      | _ -> Error (Printf.sprintf "bad rank count %S (want dist:N, N>=1)" n))
  | _ ->
      Error
        (Printf.sprintf "unknown target %S (want cpu|cpu:seq|gpu-sim|dist:N)" s)
