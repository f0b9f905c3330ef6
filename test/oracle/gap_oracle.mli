(** The original brute-force worst-wait scan, kept as the oracle for
    {!Noc_analysis.Certify.worst_wait}. *)

val worst_wait : slots:int -> int list -> int
(** Worst wait in slots from any arrival offset to the next reserved
    start; [starts] must be non-empty. *)
