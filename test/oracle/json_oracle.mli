(** The original tree-walking JSON renderer, kept as the byte-identity
    oracle for {!Noc_export.Json}. *)

val escape : string -> string
val to_string : ?indent:int -> Noc_export.Json.t -> string
