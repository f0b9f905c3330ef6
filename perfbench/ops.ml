(* What every workload shares: the closed loop, output digests, the
   per-layer accumulator and the two metric lists BENCHMARK.json names. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let md5 s = Digest.to_hex (Digest.string s)

(* Set up [times] times ([f i] for i = 0, 1, ...); the reported set-up
   time is the median, so one slow start does not move it.  Returns
   every set-up's result, in order. *)
let setup ~times f =
  let runs = List.init times (fun i -> time (fun () -> f i)) in
  (List.map fst runs, Stats.median (List.map snd runs))

let setups = 5

let last l = List.nth l (List.length l - 1)

let pool_jobs () = Domain.recommended_domain_count ()

(* --- the closed loop ------------------------------------------------------- *)

type op_result = {
  ok : bool;
  reason : string;  (** why the op failed; empty when [ok] *)
  output : string;  (** digest of everything the op produced *)
  switches : int option;  (** switch count of the design produced, if any *)
}

let failure reason = { ok = false; reason; output = "failed: " ^ reason; switches = None }

type loop = {
  latencies : float list;  (** seconds per completed op *)
  elapsed : float;
  cpu : float;  (** process CPU seconds over the window *)
  results : op_result list;  (** in op order *)
  digest : string;
  switches : int list;  (** of the designs of the first cycle: one per distinct input *)
}

(* One caller running ops 0, 1, 2, ... back to back until [seconds]
   have passed, stopping only at the end of a [round] and never before
   a whole [cycle] of distinct inputs has run, so every run covers the
   same input mix in the same proportions.  Op [i] repeats the input of
   op [i mod cycle]; its output must equal that op's.  The digest and
   the switch counts are those of the first cycle, so they depend on
   the seed only.  [max_ops] caps the loop (smoke mode). *)
let closed_loop ~seconds ~round ~cycle ?max_ops run_op =
  let first = Array.make cycle "" in
  let t0 = now () and c0 = Proc.self_cpu_s () in
  let rec go i lat acc =
    let elapsed = now () -. t0 in
    let stop =
      match max_ops with
      | Some m -> i >= m
      | None -> elapsed >= seconds && i mod round = 0 && i >= cycle
    in
    if stop then (List.rev lat, elapsed, List.rev acc)
    else begin
      let a = now () in
      let r = run_op i in
      let dt = now () -. a in
      let r =
        if not r.ok then r
        else if i < cycle then (
          first.(i) <- r.output;
          r)
        else if String.equal first.(i mod cycle) r.output then r
        else { r with ok = false; reason = Printf.sprintf "op %d output differs from op %d" i (i mod cycle) }
      in
      go (i + 1) (dt :: lat) (r :: acc)
    end
  in
  let latencies, elapsed, results = go 0 [] [] in
  let cpu = Proc.self_cpu_s () -. c0 in
  let first_cycle = List.filteri (fun i _ -> i < cycle) results in
  let digest = md5 (String.concat "\n" (List.map (fun r -> r.output) first_cycle)) in
  { latencies; elapsed; cpu; results; digest; switches = List.filter_map (fun (r : op_result) -> r.switches) first_cycle }

let failures results = List.filter_map (fun r -> if r.ok then None else Some r.reason) results

(* The run's result: one failure per reason, the first ten printed. *)
let outcome ~attempted ~failures ~digest metrics =
  {
    Result_line.attempted;
    failed = List.length failures;
    failures = List.filteri (fun i _ -> i < 10) failures;
    digest;
    metrics;
  }

(* --- end-to-end metrics ---------------------------------------------------- *)

let end_to_end ~ops ~elapsed ~latencies ~cpu_s ~peak_rss_mb ~setup_s ~switches =
  let ms = List.map (fun s -> s *. 1000.0) latencies in
  let n = float_of_int ops in
  let open Result_line in
  [
    metric "ops_per_s" "1/s" (n /. elapsed);
    metric "latency_p50_ms" "ms" (Stats.percentile ms 0.5);
    metric "latency_p90_ms" "ms" (Stats.percentile ms 0.9);
    metric "cpu_ms_per_op" "ms" (cpu_s *. 1000.0 /. n);
    metric "peak_rss_mb" "MiB" peak_rss_mb;
    metric "setup_s" "s" setup_s;
    metric "switches_per_design" "count"
      (if switches = [] then 0.0 else Stats.mean (List.map float_of_int switches));
  ]

(* A p90 is only reported as measured when ten samples lie beyond it. *)
let tail_note latencies =
  let n = List.length latencies in
  let beyond = Stats.samples_beyond ~n 0.9 in
  Printf.sprintf "%d op latencies, %d beyond p90%s" n beyond
    (if beyond >= 10 then "" else " (fewer than 10: p90 unresolved)")

(* --- per-layer metrics ------------------------------------------------------ *)

(* Every per-layer metric, with its unit.  Times are self time in ms
   per op; counts are per op; ratios are unitless.  A workload that does
   not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("spec_parser.ms", "ms"); ("spec_parser.flows", "count");
    ("expand.ms", "ms"); ("expand.groups", "count"); ("expand.max_group", "count");
    ("feasibility.ms", "ms"); ("feasibility.sizes_pruned", "count");
    ("mapping.ms", "ms"); ("mapping.cpu_ms", "ms"); ("mapping.attempts", "count");
    ("mapping.attempt_failures", "count"); ("mapping.useful_ratio", "ratio");
    ("mapping.route_failures", "count"); ("mapping.route_detours", "count");
    ("mapping.routing_ms", "ms");
    ("remap.ms", "ms"); ("remap.diff_ms", "ms"); ("remap.dirty_groups", "count");
    ("remap.rung_reused", "count"); ("remap.rung_delta", "count"); ("remap.rung_warm", "count");
    ("remap.rung_regrown", "count");
    ("verdict.phase4_ms", "ms"); ("verdict.certify_ms", "ms"); ("verdict.findings", "count");
    ("verdict.disagreements", "count");
    ("payload.ms", "ms"); ("payload.mb", "MB");
    ("codec.encode_ms", "ms"); ("codec.decode_ms", "ms"); ("codec.kb", "KiB");
    ("cache.hit_ratio", "ratio"); ("cache.misses", "count"); ("cache.stores", "count");
    ("cache.evictions", "count");
    ("design_space.ms", "ms"); ("design_space.points", "count"); ("design_space.infeasible", "count");
    ("design_space.warm_hits", "count");
    ("simulator.ms", "ms"); ("simulator.skipped_ratio", "ratio");
    ("serve.rtt_ms", "ms"); ("serve.server_ms", "ms"); ("serve.transport_ms", "ms");
    ("serve.prepare_ms", "ms"); ("serve.execute_ms", "ms"); ("serve.escape_ms", "ms");
    ("serve.client_decode_ms", "ms");
    ("serve.batch_size", "count"); ("serve.coalesced_ratio", "ratio"); ("serve.shed", "count");
    ("domain_pool.utilization", "ratio"); ("domain_pool.stolen_tasks", "count");
    ("trace.overhead_ratio", "ratio"); ("trace.unattributed_ratio", "ratio");
  ]

(* Sums over the traced ops; [per_op] turns a sum into a per-op mean. *)
type acc = { sums : (string, float) Hashtbl.t; mutable ops : int }

let acc () = { sums = Hashtbl.create 64; ops = 0 }

let add a name v =
  Hashtbl.replace a.sums name (v +. Option.value (Hashtbl.find_opt a.sums name) ~default:0.0)

let sum a name = Option.value (Hashtbl.find_opt a.sums name) ~default:0.0
let per_op a name = if a.ops = 0 then 0.0 else sum a name /. float_of_int a.ops
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Self times of one traced op's stages, added to the accumulator under
   "<stage>" as ms; returns their sum in seconds. *)
let add_self_times a spans =
  List.fold_left
    (fun total (name, s) ->
      add a name (s *. 1000.0);
      total +. s)
    0.0 (Spans.self_times spans)

(* Add the deltas of registry counters, under the metric names given. *)
let add_counters a delta pairs =
  List.iter (fun (metric, counter) -> add a metric (float_of_int (Counters.get delta counter))) pairs

(* Stage self times must sum to the op's wall time within this share of
   it; the remainder is the benchmark's glue between stages. *)
let sum_tolerance = 0.05

(* One op of an in-process traced run: [plain] is the op as a user runs
   it, untraced; its result is the reference and its wall time the base
   of the overhead ratio.  Then [staged] runs the same op as its public
   stages, each in a span of [spans], with the program's tracer on.
   Returns both results, the staged wall time and its stages' self-time
   sum, in seconds. *)
let traced_op a spans ~plain ~staged =
  let reference, wall_plain = time plain in
  Spans.reset spans;
  Noc_obs.Tracer.set_enabled true;
  let result, wall = time staged in
  Noc_obs.Tracer.set_enabled false;
  Noc_obs.Tracer.reset ();
  a.ops <- a.ops + 1;
  add a "wall_plain" wall_plain;
  add a "wall_traced" wall;
  let self = add_self_times a (Spans.spans spans) in
  add a "self_sum" self;
  (reference, result, wall, self)

(* The traced run's own checks on top of the op's: the staged output
   must equal the untraced one, and the stages must account for the
   op's wall time. *)
let traced_check ~label ~same ~wall ~self r =
  if not r.ok then r
  else if not same then { r with ok = false; reason = label ^ ": staged output differs from the untraced op's" }
  else if not (Spans.sum_check ~tolerance:sum_tolerance ~wall self) then
    { r with ok = false; reason = Printf.sprintf "%s: stage self times %.3f s vs op wall %.3f s" label self wall }
  else r

let layer_metrics values =
  List.map (fun (name, unit_) -> Result_line.metric name unit_ (values name)) per_layer

(* Per-layer values of an in-process traced run: per-op means, except
   the ratios. *)
let in_process_layers a = function
  | "mapping.useful_ratio" -> ratio (sum a "mapping.designs") (sum a "mapping.attempts")
  | "simulator.skipped_ratio" -> ratio (sum a "sim.skipped") (sum a "sim.slots")
  | "trace.overhead_ratio" -> ratio (sum a "wall_traced") (sum a "wall_plain")
  | "trace.unattributed_ratio" -> 1.0 -. ratio (sum a "self_sum") (sum a "wall_traced")
  | name -> per_op a name
