(* The benchmark's output: a few human-readable lines, then as the last
   line one JSON object with the run's verdict and metrics. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type outcome = {
  attempted : int;  (** ops started in the measured window *)
  failed : int;  (** ops whose output failed a check *)
  failures : string list;  (** a reason per failed op, first few kept *)
  digest : string;  (** over the outputs every run of this seed produces *)
  metrics : metric list;
}

(* Every digit of the measured value: the driver compares runs, and a
   rounded time could read the same on every run. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0.0"

let print ~workload ~seed ~trace o =
  Printf.printf "workload %s seed %d trace %d\n" workload seed (if trace then 1 else 0);
  Printf.printf "output digest %s\n" o.digest;
  List.iter (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit_) o.metrics;
  List.iter (fun r -> Printf.printf "failure: %s\n" r) o.failures;
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (number m.value)
             m.unit_)
         o.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed metrics
