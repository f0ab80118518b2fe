(** Overflow-checked arithmetic on native integers.

    The paper's ISL substrate uses GMP arbitrary-precision integers; this
    reproduction replaces them with OCaml's 63-bit native integers guarded by
    overflow checks.  Constraint systems are aggressively normalized by GCD
    division (see {!Tiramisu_presburger.Poly}), which keeps coefficients far
    below the overflow threshold in practice; if a computation ever would
    overflow, {!exception:Overflow} is raised rather than silently wrapping. *)

exception Overflow

val add : int -> int -> int
(** [add a b] is [a + b]. @raise Overflow on wrap-around. *)

val sub : int -> int -> int
(** [sub a b] is [a - b]. @raise Overflow on wrap-around. *)

val mul : int -> int -> int
(** [mul a b] is [a * b]. @raise Overflow on wrap-around. *)

val neg : int -> int
(** [neg a] is [-a]. @raise Overflow on [min_int]. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val fdiv : int -> int -> int
(** [fdiv a b] is the floor division [⌊a/b⌋] for [b <> 0]. *)

val cdiv : int -> int -> int
(** [cdiv a b] is the ceiling division [⌈a/b⌉] for [b <> 0]. *)

val emod : int -> int -> int
(** [emod a b] is the Euclidean remainder: [a - b * fdiv a b], always in
    [0, |b|). *)

val sign : int -> int
(** [-1], [0] or [1]. *)

val pow : int -> int -> int
(** [pow b e] for [e >= 0], overflow-checked. *)
