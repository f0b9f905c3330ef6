(** JSON export of a completed design.

    The dump is self-contained: configuration, topology, placement,
    per-use-case connections with their paths and slot reservations,
    groups, and the verification verdict — everything a downstream
    flow (floorplanning, documentation, visualisation) needs. *)

val design_to_string : ?indent:int -> Noc_core.Design_flow.t -> string
(** The whole design-flow result (spec summary, compounds, groups,
    mapping, verification), streamed; default pretty-printed with
    indent 2. *)
