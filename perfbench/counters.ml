(* Deltas of the program's metrics registry across an interval. *)

module Metrics = Noc_obs.Metrics

type t = (string * int) list

let take () : t = (Metrics.snapshot ()).Metrics.counters

(* [after - before] for every counter of [after]; counters registered
   during the interval start from zero. *)
let delta ~(before : t) ~(after : t) : t =
  List.map
    (fun (name, v) -> (name, v - Option.value (List.assoc_opt name before) ~default:0))
    after

let get (d : t) name = Option.value (List.assoc_opt name d) ~default:0

