(* serve-mixed: a [nocmap serve] daemon (cache on, one pool domain per
   core) driven by this process over two connections, each a closed
   loop of waiting callers.  Most requests repeat a hot set (D1-D4, and
   d2 -> d2_churn for remap); a small share carries a fresh Sp20 spec
   with a new seed each.  Transport, the prepare memo, coalescing, the
   cache/codec and payload escaping dominate; the growth search runs
   only for the fresh share. *)

module P = Noc_serve.Protocol
module Client = Noc_serve.Client
module Service = Noc_serve.Service
module Json = Noc_export.Json
open Ops

let connections = 2
let replay_requests = 100

(* Every run completes at least this many requests; the digest covers
   their responses, and the daemon's peak RSS is read when request
   [min_requests] is sent, so it reflects a fixed amount of work rather
   than however many requests a run's speed allowed. *)
let min_requests = 500

let read_spec path =
  (Filename.remove_extension (Filename.basename path), In_channel.with_open_bin path In_channel.input_all)

(* The fingerprint [nocmap --version] reports; the daemon rejects a
   client presenting any other build at handshake. *)
let build_of nocmap =
  let ic = Unix.open_process_args_in nocmap [| nocmap; "--version" |] in
  let line = input_line ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match String.split_on_char '+' line with
    | [ _; b ] when String.starts_with ~prefix:"build." b -> String.sub b 6 (String.length b - 6)
    | _ -> failwith ("unexpected nocmap --version output: " ^ line))
  | _ -> failwith "nocmap --version failed"

type daemon = { pid : int; socket : string; build : string }

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if Unix.gettimeofday () > deadline then None
    else (
      Unix.sleepf 0.01;
      wait_exit pid ~deadline)
  | _, status -> Some status

let connect d =
  let deadline = now () +. 30.0 in
  let rec go () =
    match Client.connect ~build:d.build ~socket:d.socket () with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith ("nocmap serve exited before accepting connections: " ^ e));
      if now () > deadline then failwith ("cannot connect to nocmap serve: " ^ e);
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let spawn ~nocmap ~build ~socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process nocmap
      [| nocmap; "serve"; "--socket"; socket; "--jobs"; string_of_int (pool_jobs ()) |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  (* Never leave a daemon behind, whatever ends this process. *)
  at_exit (fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      | _ | (exception Unix.Unix_error _) -> ());
  { pid; socket; build }

let expect_result what = function
  | Ok (P.Result { payload; _ }) -> payload
  | Ok (P.Failure { message; _ }) -> failwith (what ^ ": " ^ message)
  | Error e -> failwith (what ^ ": " ^ e)

(* Stop the daemon with the [shutdown] op and check it exits cleanly. *)
let shutdown d conn =
  let ack = expect_result "shutdown" (Client.request conn P.Shutdown) in
  Client.close conn;
  match wait_exit d.pid ~deadline:(now () +. 30.0) with
  | Some (Unix.WEXITED 0) when String.equal ack "draining" -> Ok ()
  | Some _ -> Error "nocmap serve did not exit cleanly after shutdown"
  | None ->
    Unix.kill d.pid Sys.sigkill;
    ignore (Unix.waitpid [] d.pid);
    Error "nocmap serve did not exit within 30 s of shutdown"

let prime conn ops = List.iter (fun op -> ignore (expect_result "priming" (Client.request conn op))) ops

(* --- the daemon's stats op --------------------------------------------------- *)

type stats = { counters : Json.t; gauges : Json.t; histograms : Json.t }

let stats conn =
  match Json.parse (expect_result "stats" (Client.request conn P.Stats)) with
  | Error e -> failwith ("stats: " ^ e)
  | Ok j ->
    let section k = Option.value (Json.member k j) ~default:(Json.Obj []) in
    { counters = section "counters"; gauges = section "gauges"; histograms = section "histograms" }

let num j = Option.value (Option.bind j Json.to_float) ~default:0.0
let counter s name = num (Json.member name s.counters)
let hist s name field = num (Option.bind (Json.member name s.histograms) (Json.member field))

(* --- switch count of a payload --------------------------------------------- *)

let switches_of_payload kind payload =
  match kind with
  | "map" | "remap" | "certify" -> (
    match Json.parse payload with
    | Error _ -> None
    | Ok j ->
      let sw = if kind = "certify" then Json.member "switches" j else Option.bind (Json.member "mesh" j) (Json.member "switches") in
      Option.map int_of_float (Option.bind sw Json.to_float))
  | _ -> None

(* --- the load ---------------------------------------------------------------- *)

type sample = {
  k : int;
  req : Inputs.request;
  latency : float;
  response : (string * bool, string) result;  (** payload digest, coalesced *)
}

let drive conns ~seconds ~max_ops ~on_request request =
  let next = Atomic.make 0 and t0 = now () in
  let worker conn () =
    let rec go acc =
      let k = Atomic.fetch_and_add next 1 in
      let stop =
        match max_ops with
        | Some m -> k >= m
        | None -> now () -. t0 >= seconds && k >= min_requests
      in
      if stop then acc
      else begin
        on_request k;
        let req = request k in
        let a = now () in
        let r = Client.request conn req.Inputs.op in
        let latency = now () -. a in
        let response =
          match r with
          | Ok (P.Result { payload; coalesced; _ }) -> Ok (md5 payload, coalesced)
          | Ok (P.Failure { code = (P.Overloaded | P.Too_many_inflight) as code; _ }) ->
            Error ("shed: " ^ P.error_code_to_string code)
          | Ok (P.Failure { code; message; _ }) -> Error (P.error_code_to_string code ^ ": " ^ message)
          | Error e -> Error e
        in
        go ({ k; req; latency; response } :: acc)
      end
    in
    go []
  in
  let domains = List.map (fun c -> Domain.spawn (worker c)) conns in
  let samples = List.concat_map Domain.join domains in
  let elapsed = now () -. t0 in
  (List.sort (fun a b -> compare a.k b.k) samples, elapsed)

(* --- in-process replay -------------------------------------------------------- *)

let op_key op = md5 (Marshal.to_string op [])

let execute op =
  match Service.prepare_cached op with
  | Error (_, msg) -> Error msg
  | Ok job -> Service.execute job

(* Served payloads must equal the in-process [Payload] bytes for the
   same op; each distinct op is computed once, after the daemon has
   stopped, outside the timed window.  Returns a reason per failed
   request and the switch count of each distinct design-producing op. *)
let verify samples =
  let expected = Hashtbl.create 64 in
  let check s =
    let kind = s.req.Inputs.kind in
    match s.response with
    | Error e -> Some (Printf.sprintf "request %d (%s): %s" s.k kind e)
    | Ok (digest, _) -> (
      let key = op_key s.req.Inputs.op in
      let want, _ =
        match Hashtbl.find_opt expected key with
        | Some v -> v
        | None ->
          let v =
            match execute s.req.Inputs.op with
            | Ok payload -> (Ok (md5 payload), switches_of_payload kind payload)
            | Error m -> (Error m, None)
          in
          Hashtbl.add expected key v;
          v
      in
      match want with
      | Error m -> Some (Printf.sprintf "request %d (%s): in-process op failed: %s" s.k kind m)
      | Ok e when String.equal e digest -> None
      | Ok _ -> Some (Printf.sprintf "request %d (%s): served payload differs from in-process bytes" s.k kind))
  in
  let failures = List.filter_map check samples in
  (failures, Hashtbl.fold (fun _ (_, sw) acc -> Option.fold ~none:acc ~some:(fun n -> n :: acc) sw) expected [])

(* Traced run: replay the first requests in-process through the
   service's prepare and execute, the response encoding (payload
   escaping) and the client's decode.  The first pass is traced and
   gives the per-layer times: the hot set is warm, as in the primed
   daemon, and fresh specs are cold.  Two more passes, everything warm,
   one untraced and one traced, give the tracing overhead. *)
let replay_one spans i op =
  let sp name f = Spans.with_span spans name f in
  match sp "serve.prepare_ms" (fun () -> Service.prepare_cached op) with
  | Error _ -> ()
  | Ok job -> (
    match sp "serve.execute_ms" (fun () -> Service.execute job) with
    | Error _ -> ()
    | Ok payload ->
      let line =
        sp "serve.escape_ms" (fun () -> P.encode_response (P.Result { id = i; payload; coalesced = false }))
      in
      ignore (sp "serve.client_decode_ms" (fun () -> P.decode_response line)))

let replay a ~hot_ops samples =
  List.iter (fun op -> ignore (execute op)) hot_ops;
  let ops = List.filteri (fun i _ -> i < replay_requests) (List.map (fun s -> s.req.Inputs.op) samples) in
  let spans = Spans.create () in
  let pass ~traced ~record =
    List.fold_left
      (fun (i, total) op ->
        Spans.reset spans;
        Noc_obs.Tracer.set_enabled traced;
        let (), wall = time (fun () -> replay_one spans i op) in
        Noc_obs.Tracer.set_enabled false;
        Noc_obs.Tracer.reset ();
        if record then begin
          a.ops <- a.ops + 1;
          add a "replay_wall" wall;
          add a "self_sum" (add_self_times a (Spans.spans spans))
        end;
        (i + 1, total +. wall))
      (0, 0.0) ops
    |> snd
  in
  ignore (pass ~traced:true ~record:true);
  let plain = pass ~traced:false ~record:false in
  let traced = pass ~traced:true ~record:false in
  add a "trace.overhead_ratio" (ratio traced plain)

let run ~nocmap ~seed ~seconds ~trace ~max_ops =
  let build = build_of nocmap in
  let hot = List.map (fun (label, ucs) -> (label, Inputs.render ~name:label ucs)) (Inputs.paper_designs ()) in
  let d2_pair = (read_spec "examples/specs/d2.spec", read_spec "examples/specs/d2_churn.spec") in
  let hot_ops = Inputs.hot_ops ~hot ~d2_pair in
  (* Each set-up starts a daemon, handshakes and primes the hot set; the
     last one serves the run, the others are shut down once all are up. *)
  let daemons, setup_s =
    setup ~times:setups (fun i ->
        let d = spawn ~nocmap ~build ~socket:(Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) i) in
        let conn = connect d in
        prime conn hot_ops;
        (d, conn))
  in
  let d, conn = last daemons in
  let setup_failures =
    List.filter_map
      (fun (d', c) -> if d' == d then None else Result.fold ~ok:(fun () -> None) ~error:Option.some (shutdown d' c))
      daemons
  in
  let loaders = List.init connections (fun _ -> connect d) in
  let cpu0 = Proc.cpu_s d.pid and s0 = stats conn in
  let rss = Atomic.make None in
  let on_request k = if k = min_requests then Atomic.set rss (Some (Proc.peak_rss_mb d.pid)) in
  let samples, elapsed =
    drive loaders ~seconds ~max_ops ~on_request (Inputs.serve_request ~seed ~hot ~d2_pair)
  in
  let cpu = Proc.cpu_s d.pid -. cpu0 and s1 = stats conn in
  let peak_rss_mb =
    match Atomic.get rss with Some mb -> mb | None -> Proc.peak_rss_mb d.pid
  in
  List.iter Client.close loaders;
  let stopped = shutdown d conn in
  let failed_requests, switches = verify samples in
  let failures =
    setup_failures @ Result.fold ~ok:(fun () -> []) ~error:(fun e -> [ e ]) stopped @ failed_requests
  in
  let ops = List.length samples in
  let n_digest = match max_ops with Some m -> m | None -> min_requests in
  let digest =
    List.filteri (fun i _ -> i < n_digest) samples
    |> List.map (fun s -> match s.response with Ok (d, _) -> d | Error e -> e)
    |> String.concat "\n" |> md5
  in
  let latencies = List.map (fun s -> s.latency) samples in
  let delta name = counter s1 name -. counter s0 name in
  let metrics =
    if not trace then
      end_to_end ~ops ~elapsed ~latencies ~cpu_s:cpu ~peak_rss_mb ~setup_s
        ~switches
    else begin
      let a = acc () in
      replay a ~hot_ops samples;
      let n = float_of_int ops in
      let rtt = Stats.median (List.map (fun l -> l *. 1000.0) latencies) in
      let server = hist s1 "serve.latency_ns" "p50" /. 1e6 in
      let hits = delta "cache.memory_hits" +. delta "cache.disk_hits" in
      Printf.printf "replayed %d requests in-process; daemon answered %d requests\n" a.ops
        (int_of_float (delta "serve.requests"));
      layer_metrics (function
        | "serve.rtt_ms" -> rtt
        | "serve.server_ms" -> server
        | "serve.transport_ms" -> rtt -. server
        | "serve.batch_size" ->
          ratio (hist s1 "serve.batch_size" "sum" -. hist s0 "serve.batch_size" "sum")
            (hist s1 "serve.batch_size" "count" -. hist s0 "serve.batch_size" "count")
        | "serve.coalesced_ratio" -> ratio (delta "serve.coalesced") (delta "serve.requests")
        | "serve.shed" -> delta "serve.shed" /. n
        | "cache.hit_ratio" -> ratio hits (hits +. delta "cache.misses")
        | "cache.misses" -> delta "cache.misses" /. n
        | "cache.stores" -> delta "cache.stores" /. n
        | "cache.evictions" -> delta "cache.evictions" /. n
        | "mapping.attempts" -> delta "map.attempts" /. n
        | "mapping.attempt_failures" -> delta "map.attempt_failures" /. n
        | "mapping.useful_ratio" ->
          ratio (delta "map.designs") (delta "map.attempts" +. delta "map.attempt_cache_hits")
        | "domain_pool.utilization" -> num (Json.member "pool.utilization" s1.gauges)
        | "mapping.route_failures" -> delta "route.failures" /. n
        | "mapping.route_detours" -> delta "route.detours" /. n
        | "design_space.points" -> delta "explore.points" /. n
        | "design_space.infeasible" -> delta "explore.infeasible" /. n
        | "design_space.warm_hits" -> delta "explore.warm_hits" /. n
        | "remap.dirty_groups" -> delta "remap.dirty_groups" /. n
        | "remap.rung_reused" -> delta "remap.reused" /. n
        | "remap.rung_delta" -> delta "remap.delta" /. n
        | "remap.rung_warm" -> delta "remap.warm_placement" /. n
        | "remap.rung_regrown" -> delta "remap.regrown" /. n
        | "domain_pool.stolen_tasks" -> delta "pool.stolen_tasks" /. n
        | "trace.overhead_ratio" -> sum a "trace.overhead_ratio"
        | "trace.unattributed_ratio" -> 1.0 -. ratio (sum a "self_sum") (sum a "replay_wall")
        | ("serve.prepare_ms" | "serve.execute_ms" | "serve.escape_ms" | "serve.client_decode_ms") as name ->
          per_op a name
        | _ -> 0.0)
    end
  in
  if not trace then print_endline (tail_note latencies);
  outcome ~attempted:ops ~failures ~digest metrics
