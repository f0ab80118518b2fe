(** Dense integer coefficient rows.

    A row is an [int array]; the interpretation of columns (constant, params,
    variables) is fixed by the caller. All arithmetic is overflow-checked. *)

val zero : int -> int array
(** [zero n] is a fresh all-zero row of length [n]. *)

val unit : int -> int -> int array
(** [unit n i] is the length-[n] row with a [1] in column [i]. *)

val add : int array -> int array -> int array
val sub : int array -> int array -> int array
val neg : int array -> int array
val scale : int -> int array -> int array

val combine : int -> int array -> int -> int array -> int array
(** [combine a u b v] is [a*u + b*v], element-wise. *)

val content : int array -> int
(** GCD of all entries (non-negative); [0] for the zero row. *)

val content_except : int array -> int -> int
(** GCD of all entries except the given column. *)

val divide : int array -> int -> int array
(** Exact element-wise division. @raise Invalid_argument if not exact. *)

val equal : int array -> int array -> bool

val insert_cols : int array -> at:int -> count:int -> int array
(** Insert [count] zero columns starting at position [at]. *)

val drop_cols : int array -> at:int -> count:int -> int array
val pp : Format.formatter -> int array -> unit
