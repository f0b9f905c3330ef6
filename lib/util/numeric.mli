(** Small numeric helpers shared by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values; 0 for the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for lists shorter than 2. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [\[lo, hi\]]. *)

val clamp_int : lo:int -> hi:int -> int -> int

val round_to : digits:int -> float -> float
(** Round to the given number of decimal digits. *)

val percent : part:float -> whole:float -> float
(** [percent ~part ~whole] = 100 * part / whole; 0 when [whole = 0]. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** Absolute-difference comparison, default [eps = 1e-9]. *)

val linspace : lo:float -> hi:float -> n:int -> float list
(** [n] evenly spaced values from [lo] to [hi] inclusive; requires
    [n >= 2]. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n] to the buffer without allocating the
    string — the serializers' integer fast path. *)
