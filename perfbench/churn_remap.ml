(* churn-remap: spec revisions against a shipped Sp100-class design,
   cache off.  Each op parses a revision, remaps it against the base
   design, certifies the stitched design and renders its payload.  It
   uses the mapping layer the other way round from design-cold: delta
   routing on the retained frame is cheap, while the verdict and the
   payload dominate — a growth-search gain should not move it. *)

module DF = Noc_core.Design_flow
module Remap = Noc_core.Remap
module Certify = Noc_analysis.Certify
module Payload = Noc_serve.Payload
open Ops

let cycle_len = 12

type staged = { outcome : Remap.outcome; cert : Certify.t; payload : string }

let parse text =
  match Noc_core.Spec_parser.parse ~name:"churn" text with
  | Ok spec -> Ok spec
  | Error e -> Error (Format.asprintf "%a" Noc_core.Spec_parser.pp_error e)

let remap_op ~old text =
  match parse text with
  | Error e -> Error e
  | Ok spec -> (
    match Remap.remap ~old spec with
    | Error e -> Error e
    | Ok outcome ->
      let d = outcome.Remap.design in
      let cert = Certify.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases in
      Ok { outcome; cert; payload = Payload.design d })

(* The same op as its public stages, each inside a span; counters are
   read around the remap. *)
let staged_op a spans ~old text =
  let sp name f = Spans.with_span spans name f in
  match sp "spec_parser.ms" (fun () -> parse text) with
  | Error e -> Error e
  | Ok spec -> (
    let before = Counters.take () in
    let remapped = sp "remap.ms" (fun () -> Remap.remap ~old spec) in
    add_counters a
      (Counters.delta ~before ~after:(Counters.take ()))
      [
        ("remap.dirty_groups", "remap.dirty_groups"); ("remap.rung_reused", "remap.reused");
        ("remap.rung_delta", "remap.delta"); ("remap.rung_warm", "remap.warm_placement");
        ("remap.rung_regrown", "remap.regrown"); ("mapping.attempts", "map.attempts");
        ("mapping.attempt_failures", "map.attempt_failures"); ("mapping.designs", "map.designs");
        ("mapping.route_failures", "route.failures"); ("mapping.route_detours", "route.detours");
        ("domain_pool.stolen_tasks", "pool.stolen_tasks");
      ];
    match remapped with
    | Error e -> Error e
    | Ok outcome ->
      let d = outcome.Remap.design in
      let cert =
        sp "verdict.certify_ms" (fun () ->
            Certify.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases)
      in
      let payload = sp "payload.ms" (fun () -> Payload.design d) in
      Ok ({ outcome; cert; payload }, spec))

let path_name = function
  | Remap.Reused -> "reused"
  | Remap.Delta n -> Printf.sprintf "delta%d" n
  | Remap.Warm_placement -> "warm"
  | Remap.Regrown -> "regrown"

let check (s : staged) =
  let output = String.concat "|" [ md5 s.payload; s.cert.Certify.signature; path_name s.outcome.Remap.path ] in
  let switches = Some (DF.switch_count s.outcome.Remap.design) in
  if Certify.clean s.cert then { ok = true; reason = ""; output; switches }
  else { ok = false; reason = "stitched design's certificate not clean"; output; switches }

let run ~seed ~seconds ~trace ~max_ops =
  Noc_core.Mapping_cache.set_enabled false;
  Noc_util.Domain_pool.set_default_jobs (pool_jobs ());
  let setups, setup_s =
    setup ~times:setups (fun _ ->
        let base, revisions = Inputs.churn ~seed ~cycle:cycle_len in
        match Result.bind (parse base) DF.run with
        | Ok old -> (old, Array.of_list revisions)
        | Error e -> failwith ("churn-remap: base design failed: " ^ e))
  in
  let old, revisions = last setups in
  let a = acc () and spans = Spans.create () in
  let run_op i =
    let rev = revisions.(i mod cycle_len) in
    let label = rev.Inputs.change in
    if not trace then
      match remap_op ~old rev.Inputs.rev_text with Error e -> failure (label ^ ": " ^ e) | Ok s -> check s
    else begin
      let reference, staged, wall, self =
        traced_op a spans
          ~plain:(fun () -> remap_op ~old rev.Inputs.rev_text)
          ~staged:(fun () -> staged_op a spans ~old rev.Inputs.rev_text)
      in
      match (reference, staged) with
      | Error e, _ | _, Error e -> failure (label ^ ": " ^ e)
      | Ok r, Ok (s, spec) ->
        (* Diagnostic re-call outside the op: the dirty-set diff that
           [remap] computes internally. *)
        let all, _, groups = DF.expand spec in
        let _, dt = time (fun () -> Remap.diff ~old ~all_use_cases:all ~groups) in
        add a "remap.diff_ms" (dt *. 1000.0);
        add a "verdict.findings" (float_of_int (List.length s.cert.Certify.findings));
        if (not (DF.verified s.outcome.Remap.design)) && Certify.clean s.cert then
          add a "verdict.disagreements" 1.0;
        add a "payload.mb" (float_of_int (String.length s.payload) /. 1e6);
        traced_check ~label ~same:(String.equal r.payload s.payload) ~wall ~self (check s)
    end
  in
  let loop = closed_loop ~seconds ~round:cycle_len ~cycle:cycle_len ?max_ops run_op in
  let ops = List.length loop.results in
  let metrics =
    if not trace then
      end_to_end ~ops ~elapsed:loop.elapsed ~latencies:loop.latencies ~cpu_s:loop.cpu
        ~peak_rss_mb:(Proc.peak_rss_mb (Unix.getpid ())) ~setup_s
        ~switches:loop.switches
    else layer_metrics (in_process_layers a)
  in
  if not trace then print_endline (tail_note loop.latencies);
  outcome ~attempted:ops ~failures:(failures loop.results) ~digest:loop.digest metrics
