(** The Tiramisu embedded DSL: algorithms (Layer I) and the scheduling
    commands of Table II.

    Usage mirrors the paper's Figure 2/3 C++ snippets:

    {[
      let f = Tiramisu.create "blur" ~params:[ "N"; "M" ] in
      let i = Tiramisu.var "i" (A.const 0) A.(var "N" - const 2) in
      let j = Tiramisu.var "j" (A.const 0) A.(var "M" - const 2) in
      let c = Tiramisu.var "c" (A.const 0) (A.const 3) in
      let input = Tiramisu.input f "input" [ i; j; c ] in
      let bx = Tiramisu.comp f "bx" [ i; j; c ]
          E.((input $ [ x i; x j; x c ]) +: ...) in
      Tiramisu.tile by "i" "j" 32 32 "i0" "j0" "i1" "j1";
      Tiramisu.parallelize by "i0";
      Tiramisu.compute_at bx by "j0"
    ]} *)

open Tiramisu_presburger

type var = { v_name : string; v_lo : Aff.t; v_hi : Aff.t }
(** An iterator with its half-open range [lo, hi) — the paper's
    [Var i(0, N-2)]. *)

val var : string -> Aff.t -> Aff.t -> var
val x : var -> Expr.t
(** Use an iterator in an expression. *)

val create : ?context:Cstr.t list -> params:string list -> string -> Ir.fn
(** A fresh pipeline with symbolic size parameters and optional assumptions
    on them. *)

val input : ?dtype:Ir.dtype -> Ir.fn -> string -> var list -> Ir.computation
(** An input computation wrapping a buffer of the same name. *)

val comp :
  ?dtype:Ir.dtype -> Ir.fn -> string -> var list -> Expr.t -> Ir.computation
(** Declare a computation over the iteration domain spanned by the vars
    (Layer I).  Declaration order gives the default execution order. *)

val add_domain_constraints : Ir.computation -> Cstr.t list -> unit
(** Restrict the iteration domain beyond the box the vars span (e.g. the
    triangular domain of ticket #2373). *)

val ( $ ) : Ir.computation -> Expr.t list -> Expr.t
(** Access the value a computation produces at the given index expressions. *)

(** {1 Commands for loop nest transformations (Table II)} *)

val tile :
  Ir.computation -> string -> string -> int -> int ->
  string -> string -> string -> string -> unit

val split : Ir.computation -> string -> int -> string -> string -> unit
val interchange : Ir.computation -> string -> string -> unit
val shift : Ir.computation -> string -> int -> unit
val skew : Ir.computation -> string -> string -> int -> unit
val reverse : Ir.computation -> string -> unit

val compute_at : Ir.computation -> Ir.computation -> string -> unit
(** [compute_at p c lvl] — compute [p] inside [c]'s loop nest at loop level
    [lvl] (a loop name of [c]), recomputing the needed tile redundantly
    (overlapped tiling, Fig. 3a). *)

val inline : Ir.computation -> unit
(** Inline into all consumers. *)

val root : string
(** Pseudo loop-level for ordering at the outermost position. *)

val after : Ir.computation -> Ir.computation -> string -> unit
(** [after c b lvl] — order [c] after [b] at loop level [lvl] of [b]
    ([root] for whole-program sequencing). *)

val before : Ir.computation -> Ir.computation -> string -> unit

(** {1 Commands for mapping loop levels to hardware} *)

val parallelize : Ir.computation -> string -> unit
val vectorize : Ir.computation -> string -> int -> unit
val unroll : Ir.computation -> string -> int -> unit
val distribute : Ir.computation -> string -> unit

val gpu : Ir.computation -> string list -> string list -> unit
(** [gpu c blocks threads] maps existing loop levels to GPU block / thread
    dimensions. *)

val tile_gpu :
  Ir.computation -> string -> string -> int -> int ->
  string -> string -> string -> string -> unit
(** Tile then map the tiles to GPU blocks and the intra-tile dims to
    threads. *)

(** {1 Commands for data manipulation (Layer III)} *)

val buffer :
  ?mem:Ir.mem_space -> ?dtype:Ir.dtype -> Ir.fn -> string -> Aff.t list ->
  Ir.buffer

val store_in : Ir.computation -> Ir.buffer -> Aff.t list -> unit
(** [store_in c b idx] — Table II [C.store_in(b, {i,j})]: the result of
    [c(iters)] goes to [b[idx(iters)]].  Enables SOA/AOS layout changes,
    dimension permutation and contraction. *)

val store_in_dims : Ir.computation -> string list -> unit
(** Convenience: permuted identity layout, e.g. Fig. 3b's
    [bx.store_in({c,i,j})]. *)

val buffer_of : Ir.computation -> Ir.buffer
(** The buffer the computation writes to (auto-created on first use). *)

val tag_mem : Ir.buffer -> Ir.mem_space -> unit
(** The [tag_gpu_global/shared/local/constant] family. *)

val cache_shared_at : Ir.computation -> Ir.computation -> string -> unit
(** [cache_shared_at p c lvl] — copy [p]'s buffer region consumed by [c]'s
    tile into GPU shared memory at loop level [lvl]; footprint, copy loops
    and synchronization are derived automatically (§III-C). *)

val allocate_at : Ir.buffer -> Ir.computation -> string -> unit

val host_to_device : Ir.fn -> Ir.computation -> Ir.computation
val device_to_host : Ir.fn -> Ir.computation -> Ir.computation

(** {1 Communication (Layer IV)} *)

val send :
  Ir.fn -> string -> iters:var list -> buf:Ir.buffer -> offset:Aff.t list ->
  count:Aff.t -> dest:Aff.t -> async:bool -> Ir.computation

val receive :
  Ir.fn -> string -> iters:var list -> buf:Ir.buffer -> offset:Aff.t list ->
  count:Aff.t -> src:Aff.t -> sync:bool -> Ir.computation

val barrier_at : Ir.fn -> string -> iters:var list -> Ir.computation

(** {1 Introspection} *)

val find_comp : Ir.fn -> string -> Ir.computation

val set_schedule : Ir.computation -> string -> unit
(** Table II [C.set_schedule()]: replace the time-space map with an affine
    relation in ISL syntax, e.g.
    [set_schedule c "{ c[i,j] -> [j, i] : ... }"].  The input tuple binds
    the computation's iterators positionally; outputs become the new
    dynamic dimensions. *)
