(** The schedule-space vocabulary shared by the random fuzzer and the
    measurement-driven beam search: first-class schedule actions, an
    applier, a replayable-OCaml printer, tracked dynamic-dim names, and
    both a random draw (fuzz) and a deterministic enumerator (search). *)

type action =
  | Split of string * string * int
      (** comp, dyn name v, factor — derived names [v0], [v1] *)
  | Tile of string * string * string * int * int
      (** comp, i, j (adjacent), factors — derived [i0 j0 i1 j1] *)
  | Interchange of string * string * string
  | Shift of string * string * int
  | Skew of string * string * string * int
  | Reverse of string * string
  | Parallelize of string * string
  | Vectorize of string * string * int  (** derived inner name [v_v] *)
  | Unroll of string * string * int  (** derived inner name [v_u] *)
  | Fuse of string * string * string
      (** [after c b lvl], lvl = "root" or a loop of b *)
  | Compute_at of string * string * string
      (** [compute_at producer consumer lvl]; search-only *)

val apply : Tiramisu_core.Ir.fn -> action -> unit
(** Replay one action onto a freshly-built function (raises on a malformed
    action, e.g. an unknown computation or dim name). *)

val to_literal : action -> string

type entry = string * string list ref
(** computation name, current dynamic-dim names (outer to inner) *)

val swap : string list -> string -> string -> string list

val copy_entries : entry list -> entry list

val commit : entry list -> action -> unit
(** Replay the dim-name derivation of one action on the tracked entries. *)

val pick : Random.State.t -> 'a array -> 'a
val pick_list : Random.State.t -> 'a list -> 'a

val random_candidate :
  Random.State.t -> entry list -> (action * (unit -> unit)) option
(** One random candidate action against the tracked names, with a commit
    thunk; [None] when the drawn shape does not apply.  The [Random.State]
    draw sequence is load-bearing for the pinned fuzz corpus. *)

type menu = {
  tile_sizes : int list;
  split_factors : int list;
  vec_widths : int list;
  unroll_factors : int list;
  lane_widths : int list;
      (** tape lane widths the beam search probes the incumbent with
          (against the default width).  A backend knob rather than a
          schedule action: {!enumerate} never consumes it. *)
}

val default_menu : menu

val enumerate : ?menu:menu -> entry list -> action list
(** All single actions applicable to the tracked state, deterministic
    order, structural guards only (legality is the caller's vet).  The
    entries carry no dataflow, so a [Compute_at] is offered for every
    ordered pair, including pairs whose consumer does not read the
    producer, which lowering rejects. *)
