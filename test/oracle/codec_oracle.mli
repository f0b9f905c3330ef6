(** The original line-by-line [Printf] encoder, kept as the
    byte-identity oracle for {!Noc_core.Mapping_codec.encode} (on
    plain-grid meshes, the only ones the codec represents). *)

val encode : Noc_core.Mapping.t -> string
