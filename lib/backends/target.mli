(** First-class execution target: which backend a compilation is for.

    Replaces the ad-hoc [(parallel, ...)] knob tuples that used to
    thread through Exec, Pipeline, Runner, Service, Autosched and the
    fuzzer.  A target participates in compile-cache and service-store
    keys via {!to_key_string}, so artifacts for different backends never
    alias (DESIGN.md §14). *)

type cpu_knobs = { parallel : [ `Pool | `Seq ] }
(** How [Parallel] loops run on the CPU.  Which of them fork, and with
    which pool schedule, is the parallel planner's decision, not a knob. *)

type grid_cfg = {
  max_threads : int;  (** thread-block size ceiling *)
  shared_kb : int;    (** shared-memory budget per block, KiB *)
}

type dist_cfg = {
  ranks : int;        (** number of in-process ranks *)
  net : Machine.net;  (** α–β model for predicted communication time *)
}

type t =
  | Cpu of cpu_knobs
  | Gpu_sim of grid_cfg
  | Distributed of dist_cfg

val default : t
(** [Cpu { parallel = `Pool }] — what every caller that never asks for a
    target gets. *)

val cpu : ?parallel:[ `Pool | `Seq ] -> unit -> t

val gpu_sim : ?max_threads:int -> ?shared_kb:int -> unit -> t
(** Defaults come from {!Machine.default}'s GPU record. *)

val distributed : ?net:Machine.net -> ranks:int -> unit -> t
(** @raise Invalid_argument if [ranks < 1]. *)

(** {1 Capability flags} *)

val pool_schedulable : t -> bool
(** Whether the compile-time parallel planner (trip counts, band
    widening, static ranges) applies.  True only for [Cpu] with the
    [`Pool] strategy. *)

(** {1 Projections for Exec} *)

val par_strategy : t -> [ `Pool | `Seq ]
(** CPU strategy; [`Seq] for GPU-sim and distributed targets (their
    parallelism is expressed by hardware tags, not the domain pool). *)

val ranks : t -> int option

(** {1 Naming} *)

val to_key_string : t -> string
(** Stable, total rendering folded into cache/store keys, e.g.
    ["cpu:pool"], ["gpu-sim:2048:48k"], ["dist:4:a1500:b0.180"]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** CLI grammar: [cpu | cpu:pool|seq | gpu-sim | dist:N].  An unknown
    CPU strategy is an [Error] naming the valid ones. *)
