(** Minimal JSON construction and syntax checking.

    A small value type with a serializer (correct string escaping,
    locale-independent float printing) plus a strict syntax validator
    used by the tests and available to consumers of exported files.
    No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize; [indent > 0] pretty-prints with that step. *)

val to_line : t -> string
(** Compact [to_string v] followed by one ['\n'] — a line of a
    line-delimited protocol. *)

val escape : string -> string
(** JSON string escaping (quotes not included).  A string that needs
    no escaping is returned as is. *)

(** {2 Streaming}

    A writer renders straight into a buffer, byte-identical to
    [to_string] of the equivalent tree, so large documents need not be
    built as a [t] first.  Inside an object every member starts with
    [field] (or a [*_field] shorthand); a member's value is exactly one
    scalar call, one balanced [obj_open]/[obj_close] pair or one
    [list].  [to_string] itself renders through a writer. *)

type writer

val writer : ?indent:int -> int -> writer
(** [writer ?indent size]: an empty document, [size] bytes reserved. *)

val contents : writer -> string

val null : writer -> unit
val bool : writer -> bool -> unit
val int : writer -> int -> unit
val float : writer -> float -> unit
val string : writer -> string -> unit
val obj_open : writer -> unit
val obj_close : writer -> unit

val field : writer -> string -> unit
(** Start an object member: its key; the value follows. *)

val int_field : writer -> string -> int -> unit
val float_field : writer -> string -> float -> unit
val string_field : writer -> string -> string -> unit
val bool_field : writer -> string -> bool -> unit

val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** A whole list value, one [f w x] element per [x]. *)

val validate : string -> (unit, string) result
(** Strict RFC-8259-style syntax check of a complete JSON document. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document into a value (same strict grammar
    as [validate]).  Numbers without a fraction or exponent that fit
    in [int] parse as [Int]; everything else numeric as [Float]. *)

val member : string -> t -> t option
(** [member k v] is field [k] of object [v]; [None] on non-objects. *)

val to_float : t -> float option
(** Numeric coercion: [Int] and [Float] only. *)
