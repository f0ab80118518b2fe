(** Raw convex integer polyhedra (conjunctions of affine constraints).

    A value of type {!t} represents the set of integer points of dimension
    [n] satisfying a list of equality and inequality rows (layout as in
    {!Omega}: column 0 is the constant).  This module is nameless — the
    {!Set_} and {!Map_} wrappers assign meaning (parameters, tuple
    dimensions) to columns. *)

type t = private { n : int; eqs : int array list; ineqs : int array list }

val make : int -> eqs:int array list -> ineqs:int array list -> t
(** @raise Invalid_argument if a row's length differs from [n+1]. *)

val universe : int -> t
val dim : t -> int
val add_eq : t -> int array -> t
val add_ineq : t -> int array -> t

val add_cstr : cols:string array -> t -> Cstr.t -> t
(** [add_cstr ~cols p c] adds [c], over the columns named [cols], as one
    row of [p] ({!Cstr.to_row}). *)

val intersect : t -> t -> t

val is_empty : t -> bool
(** Exact integer emptiness (Omega test). *)

val sample : t -> int array option
(** A witness integer point (see {!Omega.sample} for caveats). *)

val mem : t -> int array -> bool
(** Point membership. *)

val insert_vars : t -> at:int -> count:int -> t
(** Add [count] fresh unconstrained dimensions before position [at]. *)

val eliminate : t -> keep:(int -> bool) -> t * bool
(** Existentially project out all variables [v] with [keep v = false].  The
    boolean is [true] when the projection is exact (every eliminated variable
    was removed by unit-coefficient equality substitution); otherwise the
    result is a Fourier–Motzkin over-approximation.  The result keeps arity
    [n] with zero columns for eliminated variables. *)

val project_out : t -> at:int -> count:int -> t * bool
(** [eliminate] followed by dropping the [count] columns at [at]: the
    result has [n - count] dimensions. *)

val fix_var : t -> int -> int -> t
(** [fix_var p v c] adds the equality [x_v = c]. *)

val constant_values : t -> int option array
(** [(constant_values p).(v)] is [Some c] when the normalized equalities,
    Gauss-propagated through their single-variable rows, force [x_v = c]
    syntactically: the first single-variable unit row on [v] gives [c].
    One propagation answers every column.  [None] everywhere when the
    equalities are infeasible ([0 = c], or a GCD that does not divide the
    constant). *)

val subtract : t -> t -> t list
(** [subtract a b] is a disjoint decomposition of [a \ b] into convex
    pieces; empty pieces are filtered out. *)

val implies_ineq : t -> int array -> bool
(** [implies_ineq p row] holds when every point of [p] satisfies [row >= 0].
    Exact.  A syntactic screen answers first: a row of [p] with the same
    variable coefficients as [row] and a constant no larger implies it (an
    equality counts in both signs).  Only when no row does is the question
    put to the Omega test, as the emptiness of [p] with [row < 0].  The
    screen answers only "implied", and only when Omega would, so every
    verdict is Omega's. *)

val gist : t -> ctx:t -> t
(** Drop from [p] every constraint already implied by [ctx]: the rows of
    [p] it keeps are in their order in [p].  Each implication goes through
    {!implies_ineq}, so it is exact and screened before Omega. *)

val extend : t -> t -> t
(** [extend ctx p] is [intersect ctx p] without the rows of [p] that the
    screen of {!implies_ineq} finds already held by [ctx] (or by a row of
    [p] added before them): the same set, with no row re-added.  Rows of
    [ctx] come first, in order. *)

val to_ineqs : t -> int array list
(** All constraints as inequality rows (equalities become two rows). *)

val permute : t -> int array -> t
(** [permute p perm]: variable [i] of the result is variable [perm.(i)] of
    [p]. *)

val equal : t -> t -> bool
(** Set equality (double inclusion, exact). *)

val subset : t -> t -> bool
(** [subset a b]: every integer point of [a] lies in [b]. *)

val card : t -> int option
(** Exact number of integer points.  Counting factors into a product over
    connected components of the constraint graph; single-variable components
    are intervals, multi-variable components are enumerated (bound one
    variable by projection, fix, recurse) within 65536 point visits.
    [None] when the set is unbounded (or not provably bounded) or the
    visits run out — never an approximate count. *)

val pp : Format.formatter -> t -> unit
