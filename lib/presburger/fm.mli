(** Fourier–Motzkin elimination with integer tightening.

    Projects variables out of an inequality system.  The result is an
    over-approximation of the exact integer projection (it is the rational
    shadow, tightened by GCD normalization with floored constants), which is
    precisely what loop-bound computation needs: bounds may only widen, and
    per-statement guards recover exactness (see {!Tiramisu_codegen.Ast_gen}).

    Rows follow the {!Omega} layout: [r.(0)] constant, [r.(i+1)] coefficient
    of variable [i], each row asserting the form is [>= 0]. *)

val tighten : int array -> int array option
(** Normalize one inequality row: divide by the GCD of the variable
    coefficients, flooring the constant.  [None] if the row has no variable
    and asserts a non-negative constant (trivially true); rows asserting a
    negative constant are returned unchanged (caller detects infeasibility). *)

val eliminate_one : dark:bool -> var:int -> int array list -> int array list
(** One Fourier–Motzkin step: [eliminate_one ~dark ~var rows] combines
    every lower bound on [var] with every upper bound, keeps the rows that
    do not mention [var], tightens each row and {!dedup}s them.  The rows
    keep their arity, with a zero column [var].  Each pair of bounds
    [a·x >= L] and [b·x <= U] gives the real shadow [a·U - b·L >= 0], or
    with [~dark:true] the Omega test's dark shadow
    [a·U - b·L >= (a-1)(b-1)].  A dropped row is implied by a kept one, so
    the integer points are those of the combined rows.  Charges one unit of
    fuel per pair before building any. *)

val eliminate : n:int -> keep:(int -> bool) -> int array list -> int array list
(** [eliminate ~n ~keep rows] removes every variable [i] with [keep i =
    false] by {!eliminate_one} real shadows.  The returned rows still have
    arity [n] (eliminated columns are zero), so callers can keep using the
    original column indexing. *)

val dedup : int array list -> int array list
(** Keep one row per coefficient vector, the one with the smallest
    constant, sorted by coefficient vector: the result depends only on the
    set of rows, and it has the same integer points. *)

val bounds_on : var:int -> int array list ->
  int array list * int array list * int array list
(** [bounds_on ~var rows] classifies rows into [(lowers, uppers, rest)]
    according to the sign of the coefficient on [var]: positive coefficient
    rows bound [var] from below, negative ones from above. *)
