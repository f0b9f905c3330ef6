(* design-cold: a designer's one-shot flow on spec text, cache off.
   Each op parses, runs the whole design flow with the independent
   certificate as its post phase, renders both payloads and simulates
   one use-case of the result. *)

module DF = Noc_core.Design_flow
module Mapping = Noc_core.Mapping
module Certify = Noc_analysis.Certify
module Payload = Noc_serve.Payload
module Sim = Noc_sim.Simulator
module Config = Noc_arch.Noc_config
open Ops

let sim_slots = 4096
let configs = [ Config.default; { Config.default with nis_per_switch = 4 } ]

type staged = {
  design : DF.t;
  cert : Certify.t;
  design_payload : string;
  cert_payload : string;
  sim : Sim.result;
}

let sim_digest (r : Sim.result) =
  String.concat ";"
    (Printf.sprintf "%d/%d" r.Sim.duration_slots r.Sim.collisions
    :: List.map
         (fun c -> Printf.sprintf "%d:%h:%h" c.Sim.flow_id c.Sim.delivered_mbps c.Sim.max_latency_ns)
         r.Sim.conns)

let simulate config (input : Inputs.spec_input) mapping =
  let routes = Mapping.routes_of_use_case mapping input.Inputs.sim_use_case in
  Sim.simulate ~config ~routes ~duration_slots:sim_slots

(* The op as a user runs it: [Design_flow.run] with certification as
   its post phase. *)
let flow_op config (input : Inputs.spec_input) =
  match Noc_core.Spec_parser.parse ~name:input.Inputs.label input.Inputs.text with
  | Error e -> Error (Format.asprintf "%a" Noc_core.Spec_parser.pp_error e)
  | Ok spec -> (
    let cert = ref None in
    let post (d : DF.t) =
      let c = Certify.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases in
      cert := Some c;
      if Certify.clean c then Ok ()
      else Error (Printf.sprintf "certificate has %d findings" (List.length c.Certify.findings))
    in
    match DF.run ~config ~post spec with
    | Error e -> Error e
    | Ok design ->
      let cert = Option.get !cert in
      let design_payload = Payload.design design and cert_payload = Payload.certificate cert in
      let sim = simulate config input design.DF.mapping in
      Ok { design; cert; design_payload; cert_payload; sim })

let check (s : staged) =
  let output =
    String.concat "|"
      [ md5 s.design_payload; md5 s.cert_payload; md5 (sim_digest s.sim) ]
  in
  let switches = Some (DF.switch_count s.design) in
  if not (Certify.clean s.cert) then { (failure "certificate not clean") with output }
  else if not (Sim.within_contract s.sim) then
    { ok = false; reason = "simulated use-case outside its contract"; output; switches }
  else { ok = true; reason = ""; output; switches }

let result_of label = function
  | Error e -> failure (label ^ ": " ^ e)
  | Ok s -> check s

(* The same op as its public stages, each inside a span; counters and
   CPU are read around the growth search. *)
let staged_op a spans config (input : Inputs.spec_input) =
  let sp name f = Spans.with_span spans name f in
  match
    sp "spec_parser.ms" (fun () ->
        Noc_core.Spec_parser.parse ~name:input.Inputs.label input.Inputs.text)
  with
  | Error e -> Error (Format.asprintf "%a" Noc_core.Spec_parser.pp_error e)
  | Ok spec -> (
    let all, compounds, groups = sp "expand.ms" (fun () -> DF.expand spec) in
    let before = Counters.take () and cpu0 = Proc.self_cpu_s () in
    let mapped = sp "mapping.ms" (fun () -> Mapping.map_design ~config ~groups all) in
    let cpu = Proc.self_cpu_s () -. cpu0 in
    let d = Counters.delta ~before ~after:(Counters.take ()) in
    add a "mapping.cpu_ms" (cpu *. 1000.0);
    add_counters a d
      [
        ("mapping.attempts", "map.attempts"); ("mapping.attempt_failures", "map.attempt_failures");
        ("mapping.designs", "map.designs"); ("mapping.route_failures", "route.failures");
        ("mapping.route_detours", "route.detours"); ("domain_pool.stolen_tasks", "pool.stolen_tasks");
      ];
    add a "domain_pool.utilization"
      (Noc_obs.Metrics.gauge_value (Noc_obs.Metrics.gauge "pool.utilization"));
    add a "spec_parser.flows"
      (float_of_int (List.fold_left (fun n u -> n + List.length u.Noc_traffic.Use_case.flows) 0 spec.DF.use_cases));
    add a "expand.groups" (float_of_int (List.length groups));
    add a "expand.max_group" (float_of_int (List.fold_left (fun m g -> max m (List.length g)) 0 groups));
    match mapped with
    | Error f -> Error (Format.asprintf "%s: %a" spec.DF.name Mapping.pp_failure f)
    | Ok mapping ->
      let design =
        sp "verdict.phase4_ms" (fun () ->
            DF.assemble ~spec ~all_use_cases:all ~compounds ~groups mapping)
      in
      let cert =
        sp "verdict.certify_ms" (fun () -> Certify.certify ~name:spec.DF.name mapping all)
      in
      let design_payload, cert_payload =
        sp "payload.ms" (fun () -> (Payload.design design, Payload.certificate cert))
      in
      let s0 = Counters.take () in
      let sim = sp "simulator.ms" (fun () -> simulate config input mapping) in
      let sd = Counters.delta ~before:s0 ~after:(Counters.take ()) in
      add a "sim.skipped" (float_of_int (Counters.get sd "sim.skipped_slots"));
      add a "sim.slots" (float_of_int (Counters.get sd "sim.slots"));
      Ok ({ design; cert; design_payload; cert_payload; sim }, (all, groups)))

(* Diagnostic re-calls outside the op: [map_design] already contains
   its own feasibility certificate and routing, so these are timed
   apart and kept out of the stage sum. *)
let diagnostics a config (s : staged) (all, groups) =
  let cert, dt = time (fun () -> Noc_core.Feasibility.certify ~config ~groups all) in
  add a "feasibility.ms" (dt *. 1000.0);
  let sizes = Noc_arch.Mesh.growth_sequence ~max_dim:cert.Noc_core.Feasibility.max_dim in
  let pruned =
    Option.bind (Noc_core.Feasibility.first_admitted cert) (fun first -> List.find_index (( = ) first) sizes)
    |> Option.value ~default:(List.length sizes)
  in
  add a "feasibility.sizes_pruned" (float_of_int pruned);
  let m = s.design.DF.mapping in
  let _, dt =
    time (fun () ->
        Mapping.map_with_placement ~config ~mesh:m.Mapping.mesh ~groups ~placement:m.Mapping.placement all)
  in
  add a "mapping.routing_ms" (dt *. 1000.0);
  match time (fun () -> Noc_core.Mapping_codec.encode m) with
  | None, _ -> ()
  | Some bytes, de ->
    let _, dd = time (fun () -> Noc_core.Mapping_codec.decode bytes) in
    add a "codec.encode_ms" (de *. 1000.0);
    add a "codec.decode_ms" (dd *. 1000.0);
    add a "codec.kb" (float_of_int (String.length bytes) /. 1024.0)

let run ~seed ~seconds ~trace ~max_ops =
  Noc_core.Mapping_cache.set_enabled false;
  Noc_util.Domain_pool.set_default_jobs (pool_jobs ());
  let inputs, setup_s =
    setup ~times:setups (fun _ ->
        let inputs = Inputs.design_cold ~seed in
        (* Start the worker domains, which the first op would otherwise pay for. *)
        ignore (Noc_util.Domain_pool.map (fun x -> x + 1) [ 1; 2; 3; 4 ]);
        inputs)
  in
  let paper, big, rng = last inputs in
  (* A round is D1-D4 at both configs plus one 160-use-case op; a cycle
     runs each 160-use-case spec at both configs, all in a seeded order.
     With one big op in nine, the median lies inside a cluster of D-op
     costs and the p90 inside the big ops, rather than on the boundary
     between two clusters, where they would swing with every small
     shift in timing. *)
  let paper_ops = List.concat_map (fun c -> List.map (fun i -> (c, i)) paper) configs in
  let bigs = Array.of_list (List.concat_map (fun b -> List.map (fun c -> (c, b)) configs) big) in
  Noc_util.Rng.shuffle rng bigs;
  let rounds =
    Array.to_list bigs
    |> List.map (fun b ->
           let ops = Array.of_list (b :: paper_ops) in
           Noc_util.Rng.shuffle rng ops;
           Array.to_list ops)
  in
  let cycle = Array.of_list (List.concat rounds) in
  let round = List.length (List.hd rounds) in
  let a = acc () and spans = Spans.create () in
  let disagreeing = ref [] in
  let run_op i =
    let config, input = cycle.(i mod Array.length cycle) in
    if not trace then result_of input.Inputs.label (flow_op config input)
    else begin
      let reference, staged, wall, self =
        traced_op a spans ~plain:(fun () -> flow_op config input) ~staged:(fun () -> staged_op a spans config input)
      in
      match (reference, staged) with
      | Error e, _ | _, Error e -> failure (input.Inputs.label ^ ": " ^ e)
      | Ok r, Ok (s, problem) ->
        diagnostics a config s problem;
        add a "verdict.findings" (float_of_int (List.length s.cert.Certify.findings));
        if (not (DF.verified s.design)) && Certify.clean s.cert then begin
          add a "verdict.disagreements" 1.0;
          disagreeing := input.Inputs.label :: !disagreeing
        end;
        add a "payload.mb"
          (float_of_int (String.length s.design_payload + String.length s.cert_payload) /. 1e6);
        traced_check ~label:input.Inputs.label ~same:(String.equal r.design_payload s.design_payload)
          ~wall ~self (check s)
    end
  in
  let loop = closed_loop ~seconds ~round ~cycle:(Array.length cycle) ?max_ops run_op in
  let ops = List.length loop.results in
  let metrics =
    if not trace then
      end_to_end ~ops ~elapsed:loop.elapsed ~latencies:loop.latencies ~cpu_s:loop.cpu
        ~peak_rss_mb:(Proc.peak_rss_mb (Unix.getpid ())) ~setup_s
        ~switches:loop.switches
    else layer_metrics (in_process_layers a)
  in
  if trace then
    Printf.printf "verdict disagreements (phase 4 failed, certificate clean) on: %s\n"
      (String.concat " " (List.sort_uniq compare !disagreeing));
  if not trace then print_endline (tail_note loop.latencies);
  outcome ~attempted:ops ~failures:(failures loop.results) ~digest:loop.digest metrics
