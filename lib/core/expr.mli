(** Layer-I expression construction and analysis. *)

open Tiramisu_presburger

type t = Ir.expr

val int : int -> t
val float : float -> t
val param : string -> t
val iter : string -> t

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val neg : t -> t
val select : t -> t -> t -> t
val clamp : t -> t -> t -> t
val call : string -> t list -> t
val cast : Ir.dtype -> t -> t
val abs_ : t -> t
val ( =: ) : t -> t -> t
val ( <: ) : t -> t -> t
val ( <=: ) : t -> t -> t

val to_aff : iters:string list -> params:string list -> t -> Aff.t option
(** Affine view of an index expression; [None] for non-affine forms
    (clamp, select, products of variables). *)

val index_range :
  iters:string list -> params:string list -> t -> (Aff.t * Aff.t) option
(** Affine over-approximation of a quasi-affine index expression as an
    inclusive [lo, hi] interval — the paper's §V-B treatment of clamped
    accesses.  Exact expressions return a degenerate interval. *)

val accesses : t -> (string * t list) list
(** Every [Access_e] occurrence (producer name, index expressions), in
    left-to-right order, including nested ones. *)

val subst_access : (string -> t list -> t option) -> t -> t
(** Rewrite accesses (used by [inline]); [None] keeps the access. *)

val subst_iters : (string -> t option) -> t -> t
(** Substitute iterator occurrences. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
