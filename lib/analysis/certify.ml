(* The engine-independent certificate checker.

   Everything here is re-derived from the design record itself with
   deliberately simple code: claims are rebuilt from the routes' start
   slots by the TDMA discipline's definition (start t claims slot t+i
   on the i-th link), paths are walked link by link with
   Mesh.link_endpoints, and the worst-case latency bound is the worst
   wait over every arrival offset of the revolution, read off the
   sorted starts.  Nothing is shared with Tdma, Path_select or Verify
   on purpose: an auditor that reuses the auditee's code inherits its
   bugs. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Slot_table = Noc_arch.Slot_table
module Mapping = Noc_core.Mapping
module Resources = Noc_core.Resources
module Codec = Noc_core.Mapping_codec
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case
module Json = Noc_export.Json

type flow_bound = {
  use_case : int;
  flow_id : int;
  src_core : int;
  dst_core : int;
  hops : int;
  granted_slots : int;
  bound_ns : float;
  required_ns : float;
  slack_ns : float;
}

type finding = {
  check : string;
  use_case : int;
  link : int;
  detail : string;
}

type t = {
  design : string;
  digest : string option;
  switches : int;
  use_cases : int;
  routes : int;
  checks : int;
  findings : finding list;
  bounds : flow_bound list;
  ni_buffer_words : (int * int) list;
  signature : string;
}

let clean t = t.findings = []

let exit_code t = if clean t then 0 else 2

(* --- static worst-case latency: slot-table phase analysis ------------- *)

(* A payload arriving at the head of slot [t] launches at the next
   reserved starting slot (possibly [t] itself), spends one slot
   crossing the NI/first link and one more per further hop.  The worst
   wait over every arrival offset of the revolution is the largest
   circular gap between consecutive distinct reserved starts, less
   one: the arrival just after a start waits out the whole gap.  Pure
   table inspection, no simulation. *)
let worst_wait ~slots starts =
  let a = Array.of_list starts in
  let n = Array.length a in
  if n = 0 then invalid_arg "Certify.worst_wait: no reserved starts";
  Array.iteri (fun i s -> a.(i) <- ((s mod slots) + slots) mod slots) a;
  Array.sort Int.compare a;
  let gap = ref (a.(0) + slots - a.(n - 1)) in
  for i = 1 to n - 1 do
    if a.(i) - a.(i - 1) > !gap then gap := a.(i) - a.(i - 1)
  done;
  !gap - 1

(* Same-switch delivery costs one slot; links without reserved starts
   are unbounded.  [wait] is only forced when the route has both. *)
let bound_ns ~slot_ns ~hops ~slot_starts ~wait =
  if hops = 0 then slot_ns
  else if slot_starts = [] then infinity
  else float_of_int (wait () + 1 + hops) *. slot_ns

let static_bound_ns ~config ~slot_starts ~hops =
  bound_ns ~slot_ns:(Config.slot_duration_ns config) ~hops ~slot_starts ~wait:(fun () ->
      worst_wait ~slots:config.Config.slots slot_starts)

(* --- the checker ------------------------------------------------------- *)

let certify ?(name = "design") (m : Mapping.t) use_cases =
  let config = m.Mapping.config in
  let mesh = m.Mapping.mesh in
  let slots = config.Config.slots in
  let slot_bw = Config.slot_bandwidth config in
  let slot_ns = Config.slot_duration_ns config in
  let n_switch = Mesh.switch_count mesh in
  let n_links = Mesh.link_count mesh in
  let n_cores = Array.length m.Mapping.placement in
  let checks = ref 0 in
  let findings = ref [] in
  let fail ?(use_case = -1) ?(link = -1) check detail =
    findings := { check; use_case; link; detail } :: !findings
  in
  let run ?use_case ?link id cond detail =
    incr checks;
    if not cond then fail ?use_case ?link id (detail ())
  in
  (* Configuration sanity. *)
  (incr checks;
   match Config.validate config with
   | Ok () -> ()
   | Error msg -> fail "config" msg);
  (* Placement: in-range switches, NI capacity per switch. *)
  Array.iteri
    (fun core sw ->
      run "placement-range"
        (sw >= 0 && sw < n_switch)
        (fun () -> Printf.sprintf "core %d placed on switch %d (mesh has %d)" core sw n_switch))
    m.Mapping.placement;
  (let hosted = Array.make n_switch 0 in
   Array.iter (fun sw -> if sw >= 0 && sw < n_switch then hosted.(sw) <- hosted.(sw) + 1) m.Mapping.placement;
   Array.iteri
     (fun sw n ->
       if n > 0 then
         run "ni-capacity"
           (n <= config.Config.nis_per_switch)
           (fun () ->
             Printf.sprintf "switch %d hosts %d cores but has %d NIs" sw n
               config.Config.nis_per_switch))
     hosted);
  (* Shape: one resource state per use-case, ids by position, groups
     partition the ids. *)
  let n_ucs = List.length use_cases in
  let shape_ok = ref true in
  run "shape"
    (Array.length m.Mapping.states = n_ucs)
    (fun () ->
      shape_ok := false;
      Printf.sprintf "%d resource states for %d use-cases" (Array.length m.Mapping.states) n_ucs);
  List.iteri
    (fun i u ->
      run "shape" (u.Use_case.id = i) (fun () ->
          shape_ok := false;
          Printf.sprintf "use-case at position %d has id %d" i u.Use_case.id))
    use_cases;
  (let seen = Array.make n_ucs false in
   List.iter
     (List.iter (fun uc ->
          incr checks;
          if uc < 0 || uc >= n_ucs then begin
            shape_ok := false;
            fail "shape" (Printf.sprintf "group member %d is not a use-case id" uc)
          end
          else if seen.(uc) then begin
            shape_ok := false;
            fail "shape" (Printf.sprintf "use-case %d appears in two groups" uc)
          end
          else seen.(uc) <- true))
     m.Mapping.groups;
   Array.iteri
     (fun uc present ->
       if not present then begin
         shape_ok := false;
         fail "shape" (Printf.sprintf "use-case %d belongs to no group" uc)
       end)
     seen);
  let record ~bounds ~ni_buffer_words =
    {
      design = name;
      digest = Codec.digest m;
      switches = n_switch;
      use_cases = n_ucs;
      routes = List.length m.Mapping.routes;
      checks = !checks;
      findings = List.rev !findings;
      bounds;
      ni_buffer_words;
      signature = "";
    }
  in
  if not !shape_ok then
    (* Per-use-case bookkeeping below indexes states and groups by id;
       with a broken shape those reads are meaningless (or unsafe), so
       the certificate stops at the structural refutation. *)
    record ~bounds:[] ~ni_buffer_words:[]
  else begin
    (* Routes by position, and each use-case's route positions in
       route order. *)
    let routes = Array.of_list m.Mapping.routes in
    let routes_of = Array.make n_ucs [] in
    Array.iteri
      (fun i (r : Route.t) ->
        let uc = r.Route.use_case in
        incr checks;
        if uc < 0 || uc >= n_ucs then
          fail "route-use-case" (Printf.sprintf "route for flow %d names unknown use-case %d" r.Route.flow_id uc)
        else routes_of.(uc) <- i :: routes_of.(uc))
      routes;
    Array.iteri (fun uc rs -> routes_of.(uc) <- List.rev rs) routes_of;
    (* Worst wait of each reserved route, computed on first use and
       shared by the latency bound and the NI buffer sizing. *)
    let waits = Array.make (Array.length routes) (-1) in
    let wait_of i =
      if waits.(i) < 0 then waits.(i) <- worst_wait ~slots routes.(i).Route.slot_starts;
      waits.(i)
    in
    (* Per-route structural checks: endpoints, chain, loop-freedom,
       slot ranges, service discipline.  The routes recorded under a
       connection id (use-case, flow id) contribute slot claims below
       only if the last of them passes them all. *)
    let structurally_ok = Hashtbl.create (Array.length routes) in
    let visited = Array.make n_switch (-1) in
    Array.iteri
      (fun i (r : Route.t) ->
        let uc = r.Route.use_case in
        if uc >= 0 && uc < n_ucs then begin
          let here ?link id cond detail = run ~use_case:uc ?link id cond detail in
          let ok = ref true in
          let need ?link id cond detail =
            here ?link id cond detail;
            if not cond then ok := false
          in
          need "core-range"
            (r.Route.src_core >= 0 && r.Route.src_core < n_cores && r.Route.dst_core >= 0
           && r.Route.dst_core < n_cores)
            (fun () ->
              Printf.sprintf "flow %d endpoints (%d, %d) outside the %d mapped cores"
                r.Route.flow_id r.Route.src_core r.Route.dst_core n_cores);
          if !ok then
            need "route-endpoints"
              (m.Mapping.placement.(r.Route.src_core) = r.Route.src_switch
              && m.Mapping.placement.(r.Route.dst_core) = r.Route.dst_switch)
              (fun () ->
                Printf.sprintf "flow %d route endpoints (sw %d -> sw %d) disagree with the placement"
                  r.Route.flow_id r.Route.src_switch r.Route.dst_switch);
          (* Walk the chain with nothing but link endpoints; switches
             visited by this route carry its position as a stamp. *)
          let links_ok =
            List.for_all (fun l -> l >= 0 && l < n_links) r.Route.links
          in
          here "link-range" links_ok (fun () ->
              Printf.sprintf "flow %d path names a link outside 0..%d" r.Route.flow_id (n_links - 1));
          if links_ok then begin
            let src = r.Route.src_switch in
            if src >= 0 && src < n_switch then visited.(src) <- i;
            let rec walk at = function
              | [] -> if at <> r.Route.dst_switch then Some "path stops short of the destination switch" else None
              | l :: rest ->
                let a, b = Mesh.link_endpoints mesh l in
                if a <> at then Some (Printf.sprintf "link %d departs switch %d, not %d" l a at)
                else if visited.(b) = i then
                  Some (Printf.sprintf "path revisits switch %d (a routing loop)" b)
                else begin
                  visited.(b) <- i;
                  walk b rest
                end
            in
            let verdict = walk src r.Route.links in
            here "route-path" (verdict = None) (fun () ->
                Printf.sprintf "flow %d: %s" r.Route.flow_id (Option.value verdict ~default:""));
            if verdict <> None then ok := false
          end
          else ok := false;
          need "slot-range"
            (List.for_all (fun s -> s >= 0 && s < slots) r.Route.slot_starts)
            (fun () ->
              Printf.sprintf "flow %d reserves a starting slot outside 0..%d" r.Route.flow_id
                (slots - 1));
          (match r.Route.service with
          | Route.Be ->
            here "be-reservation" (r.Route.slot_starts = []) (fun () ->
                Printf.sprintf "best-effort flow %d holds slot reservations" r.Route.flow_id)
          | Route.Gt ->
            if r.Route.links <> [] then
              here "no-reservation" (r.Route.slot_starts <> []) (fun () ->
                  Printf.sprintf "guaranteed flow %d crosses %d links with no reserved slots"
                    r.Route.flow_id (List.length r.Route.links)));
          Hashtbl.replace structurally_ok (uc, r.Route.flow_id) !ok
        end)
      routes;
    (* Per-flow guarantees against the spec's demand, and the static
       latency bounds.  A flow's candidate connections are the
       use-case's routes with its endpoints and service, found through
       a per-use-case index on (source, destination, service). *)
    let bounds = ref [] in
    let by_endpoints = Hashtbl.create 64 in
    List.iter
      (fun u ->
        let uc = u.Use_case.id in
        Hashtbl.clear by_endpoints;
        List.iter
          (fun i ->
            let r = routes.(i) in
            let k = (r.Route.src_core, r.Route.dst_core, r.Route.service) in
            Hashtbl.replace by_endpoints k
              (i :: Option.value (Hashtbl.find_opt by_endpoints k) ~default:[]))
          routes_of.(uc);
        List.iter
          (fun f ->
            let service = if Flow.is_guaranteed f then Route.Gt else Route.Be in
            let matching =
              Option.value
                (Hashtbl.find_opt by_endpoints (f.Flow.src, f.Flow.dst, service))
                ~default:[]
            in
            run ~use_case:uc "route-exists"
              (List.length matching = 1)
              (fun () ->
                Printf.sprintf "flow %d -> %d: %d configured connections (want exactly 1)"
                  f.Flow.src f.Flow.dst (List.length matching));
            match matching with
            | [ i ] ->
              let r = routes.(i) in
              run ~use_case:uc "demand-record"
                (r.Route.bandwidth = f.Flow.bandwidth)
                (fun () ->
                  Printf.sprintf
                    "flow %d -> %d: route records %.17g MB/s but the spec demands %.17g MB/s"
                    f.Flow.src f.Flow.dst r.Route.bandwidth f.Flow.bandwidth);
              if service = Route.Gt then begin
                let hops = List.length r.Route.links in
                let granted = List.length r.Route.slot_starts in
                if hops > 0 then
                  run ~use_case:uc "bandwidth"
                    (float_of_int granted *. slot_bw +. 1e-9 >= f.Flow.bandwidth)
                    (fun () ->
                      Printf.sprintf
                        "flow %d -> %d: %d slots grant %.1f MB/s < demanded %.1f MB/s" f.Flow.src
                        f.Flow.dst granted
                        (float_of_int granted *. slot_bw)
                        f.Flow.bandwidth);
                let bound_ns =
                  bound_ns ~slot_ns ~hops ~slot_starts:r.Route.slot_starts ~wait:(fun () ->
                      wait_of i)
                in
                run ~use_case:uc "latency"
                  (bound_ns <= f.Flow.latency_ns +. 1e-9)
                  (fun () ->
                    Printf.sprintf "flow %d -> %d: static bound %.1f ns exceeds constraint %.1f ns"
                      f.Flow.src f.Flow.dst bound_ns f.Flow.latency_ns);
                bounds :=
                  {
                    use_case = uc;
                    flow_id = r.Route.flow_id;
                    src_core = f.Flow.src;
                    dst_core = f.Flow.dst;
                    hops;
                    granted_slots = granted;
                    bound_ns;
                    required_ns = f.Flow.latency_ns;
                    slack_ns = f.Flow.latency_ns -. bound_ns;
                  }
                  :: !bounds
              end
            | _ -> ())
          u.Use_case.flows)
      use_cases;
    (* Slot claims: rebuild every (link, slot) each route occupies from
       its starting slots and check exclusivity within the use-case,
       exact ownership in the use-case's own tables, and that no table
       holds reservations its switching group cannot account for.
       Claims live in per-use-case arrays indexed [link * slots + slot],
       and each use-case remembers them in claim order.  A route that
       fails its structural checks still claims when a later route with
       its connection id passes them; its claims off the tables (a link
       out of range, a negative start) are kept apart, by (link, slot). *)
    let group_of = Array.make n_ucs [] in
    List.iter (fun g -> List.iter (fun uc -> group_of.(uc) <- g) g) m.Mapping.groups;
    let cells = n_links * max slots 0 in
    let claimed = Array.init n_ucs (fun _ -> Bytes.make cells '\000') in
    let claimant = Array.init n_ucs (fun _ -> Array.make cells 0) in
    let stray = Array.init n_ucs (fun _ -> Hashtbl.create 0) in
    let claim_order = Array.make n_ucs [] in
    Array.iter
      (fun (r : Route.t) ->
        let uc = r.Route.use_case in
        if
          r.Route.service = Route.Gt
          && Option.value (Hashtbl.find_opt structurally_ok (uc, r.Route.flow_id)) ~default:false
        then begin
          let taken = claimed.(uc) and owner = claimant.(uc) in
          let flow_id = r.Route.flow_id in
          let conflict link slot other =
            fail ~use_case:uc ~link "slot-exclusivity"
              (Printf.sprintf "link %d slot %d claimed by both flow %d and flow %d" link slot other
                 flow_id)
          in
          List.iter
            (fun start ->
              List.iteri
                (fun hop link ->
                  let slot = (start + hop) mod slots in
                  incr checks;
                  if link >= 0 && link < n_links && slot >= 0 then begin
                    let cell = (link * slots) + slot in
                    if Bytes.get taken cell = '\000' then begin
                      Bytes.set taken cell '\001';
                      owner.(cell) <- flow_id;
                      claim_order.(uc) <- `Cell cell :: claim_order.(uc)
                    end
                    else if owner.(cell) <> flow_id then conflict link slot owner.(cell)
                  end
                  else
                    match Hashtbl.find_opt stray.(uc) (link, slot) with
                    | Some other -> if other <> flow_id then conflict link slot other
                    | None ->
                      Hashtbl.replace stray.(uc) (link, slot) flow_id;
                      claim_order.(uc) <- `Stray (link, slot) :: claim_order.(uc))
                r.Route.links)
            r.Route.slot_starts
        end)
      routes;
    (* Claims versus the recorded slot tables, both directions. *)
    List.iter
      (fun u ->
        let uc = u.Use_case.id in
        let state = m.Mapping.states.(uc) in
        let taken = claimed.(uc) and owner = claimant.(uc) in
        (* Every claim, in claim order, must be owned by exactly the
           claiming flow. *)
        List.iter
          (fun claim ->
            let link, slot, flow_id =
              match claim with
              | `Cell cell -> (cell / slots, cell mod slots, owner.(cell))
              | `Stray (link, slot) -> (link, slot, Hashtbl.find stray.(uc) (link, slot))
            in
            incr checks;
            match Slot_table.owner (Resources.table state link) slot with
            | Some o when o = flow_id -> ()
            | Some o ->
              fail ~use_case:uc ~link "slot-owner"
                (Printf.sprintf "link %d slot %d: table owner is %d but flow %d claims it" link
                   slot o flow_id)
            | None ->
              fail ~use_case:uc ~link "slot-owner"
                (Printf.sprintf "link %d slot %d: claimed by flow %d but free in the table" link
                   slot flow_id))
          (List.rev claim_order.(uc));
        (* Every recorded reservation must be accounted for: claimed by
           this use-case, or mirrored from a switching-group partner
           (shared configuration) under the partner's connection id. *)
        for link = 0 to n_links - 1 do
          let table = Resources.table state link in
          if Slot_table.used_count table > 0 then
            for slot = 0 to slots - 1 do
              match Slot_table.owner table slot with
              | None -> ()
              | Some o ->
                let cell = (link * slots) + slot in
                if Bytes.get taken cell = '\000' then begin
                  incr checks;
                  let accounted =
                    List.exists
                      (fun partner ->
                        partner <> uc
                        && Bytes.get claimed.(partner) cell <> '\000'
                        && claimant.(partner).(cell) = o)
                      group_of.(uc)
                  in
                  if not accounted then
                    fail ~use_case:uc ~link "orphan-slot"
                      (Printf.sprintf
                         "link %d slot %d reserved for connection %d, which no route of the \
                          switching group explains"
                         link slot o)
                end
            done
        done)
      use_cases;
    (* Shared configuration inside each smooth-switching group: the
       occupancy pattern (which slots are taken) must be identical
       across members — rebuilt from the tables, not from Verify. *)
    List.iter
      (fun group ->
        match group with
        | [] | [ _ ] -> ()
        | leader :: rest ->
          List.iter
            (fun member ->
              for link = 0 to n_links - 1 do
                incr checks;
                let lead = Resources.table m.Mapping.states.(leader) link in
                let mine = Resources.table m.Mapping.states.(member) link in
                let agree = ref true in
                for slot = 0 to slots - 1 do
                  if Slot_table.is_free lead slot <> Slot_table.is_free mine slot then
                    agree := false
                done;
                if not !agree then
                  fail ~use_case:member ~link "group-config"
                    (Printf.sprintf
                       "link %d slot occupancy differs from group leader (use-case %d)" link
                       leader)
              done)
            rest)
      m.Mapping.groups;
    (* NI link budgets: when the architecture constrains them, each
       core's aggregate flow bandwidth (as source plus as destination)
       must fit one NI link, per use-case. *)
    if config.Config.constrain_ni_links then begin
      let capacity = Config.link_capacity config in
      List.iter
        (fun u ->
          let uc = u.Use_case.id in
          let demand = Array.make n_cores 0.0 in
          List.iter
            (fun f ->
              if f.Flow.src >= 0 && f.Flow.src < n_cores then
                demand.(f.Flow.src) <- demand.(f.Flow.src) +. f.Flow.bandwidth;
              if f.Flow.dst >= 0 && f.Flow.dst < n_cores then
                demand.(f.Flow.dst) <- demand.(f.Flow.dst) +. f.Flow.bandwidth)
            u.Use_case.flows;
          Array.iteri
            (fun core d ->
              if d > 0.0 then
                run ~use_case:uc "ni-budget"
                  (d <= capacity +. 1e-9)
                  (fun () ->
                    Printf.sprintf "core %d needs %.1f MB/s of NI bandwidth, link carries %.1f"
                      core d capacity))
            demand)
        use_cases
    end;
    (* NI buffer provisioning implied by the reservations: the source
       buffer absorbs the worst service gap (worst wait plus the launch
       slot) at the contracted rate plus one in-flight payload; each
       incoming connection needs one reassembly payload.  A core's NI
       must cover its worst use-case. *)
    let payload_bytes =
      float_of_int config.Config.slot_cycles *. float_of_int config.Config.link_width_bits /. 8.0
    in
    let word_bytes = float_of_int config.Config.link_width_bits /. 8.0 in
    let buffer_words = Array.make n_cores 0 in
    List.iter
      (fun u ->
        let uc = u.Use_case.id in
        let per_core = Array.make n_cores 0.0 in
        List.iter
          (fun i ->
            let r = routes.(i) in
            if r.Route.src_core >= 0 && r.Route.src_core < n_cores
               && r.Route.dst_core >= 0 && r.Route.dst_core < n_cores
            then begin
              let source_bytes =
                match (r.Route.service, r.Route.links) with
                | Route.Gt, _ :: _ when r.Route.slot_starts <> [] ->
                  let gap = wait_of i + 1 in
                  (r.Route.bandwidth /. 1000.0 *. (float_of_int gap *. slot_ns)) +. payload_bytes
                | _ -> payload_bytes
              in
              per_core.(r.Route.src_core) <- per_core.(r.Route.src_core) +. source_bytes;
              per_core.(r.Route.dst_core) <- per_core.(r.Route.dst_core) +. payload_bytes
            end)
          routes_of.(uc);
        Array.iteri
          (fun core bytes ->
            let words = int_of_float (Float.ceil (bytes /. word_bytes)) in
            if words > buffer_words.(core) then buffer_words.(core) <- words)
          per_core)
      use_cases;
    let ni_buffer_words =
      Array.to_list (Array.mapi (fun core w -> (core, w)) buffer_words)
      |> List.filter (fun (_, w) -> w > 0)
    in
    let bounds =
      List.sort
        (fun (a : flow_bound) (b : flow_bound) ->
          match Int.compare a.use_case b.use_case with
          | 0 -> Int.compare a.flow_id b.flow_id
          | c -> c)
        !bounds
    in
    record ~bounds ~ni_buffer_words
  end

(* --- rendering and the signature --------------------------------------- *)

(* The certificate is streamed field by field; the signature is the MD5
   of the compact rendering of every field before it, so signing and
   printing share one code path. *)

let bound_float w x = if Float.is_finite x then Json.float w x else Json.string w "inf"

let write_finding w f =
  Json.obj_open w;
  Json.string_field w "check" f.check;
  Json.int_field w "use_case" f.use_case;
  Json.int_field w "link" f.link;
  Json.string_field w "detail" f.detail;
  Json.obj_close w

let write_bound w (b : flow_bound) =
  Json.obj_open w;
  Json.int_field w "use_case" b.use_case;
  Json.int_field w "flow_id" b.flow_id;
  Json.int_field w "src_core" b.src_core;
  Json.int_field w "dst_core" b.dst_core;
  Json.int_field w "hops" b.hops;
  Json.int_field w "granted_slots" b.granted_slots;
  Json.field w "bound_ns";
  bound_float w b.bound_ns;
  Json.field w "required_ns";
  bound_float w b.required_ns;
  Json.field w "slack_ns";
  bound_float w b.slack_ns;
  Json.obj_close w

let write_buffer_words w (core, words) =
  Json.obj_open w;
  Json.int_field w "core" core;
  Json.int_field w "words" words;
  Json.obj_close w

let write_payload w t =
  Json.string_field w "design" t.design;
  Json.field w "digest";
  (match t.digest with Some d -> Json.string w d | None -> Json.null w);
  Json.int_field w "switches" t.switches;
  Json.int_field w "use_cases" t.use_cases;
  Json.int_field w "routes" t.routes;
  Json.int_field w "checks" t.checks;
  Json.bool_field w "clean" (clean t);
  Json.field w "findings";
  Json.list w write_finding t.findings;
  Json.field w "bounds";
  Json.list w write_bound t.bounds;
  Json.field w "ni_buffer_words";
  Json.list w write_buffer_words t.ni_buffer_words

(* A bound renders to about 200 bytes pretty-printed. *)
let render ?indent ~signed t =
  let w = Json.writer ?indent (1024 + (200 * List.length t.bounds)) in
  Json.obj_open w;
  write_payload w t;
  if signed then Json.string_field w "signature" t.signature;
  Json.obj_close w;
  Json.contents w

let sign t = Digest.to_hex (Digest.string (render ~signed:false t))

let signature_ok t = String.equal t.signature (sign t)

let certify ?name m use_cases =
  let record = certify ?name m use_cases in
  { record with signature = sign record }

let to_string ?indent t = render ?indent ~signed:true t

let to_diagnostics t =
  let summary =
    Diagnostic.vf ~pass:"certify" Diagnostic.Info
      "certificate %s: %d checks over %d routes, %d flow bounds, %s" t.design t.checks t.routes
      (List.length t.bounds)
      (if clean t then "clean" else Printf.sprintf "%d findings" (List.length t.findings))
  in
  summary
  :: List.map
       (fun f ->
         Diagnostic.vf
           ~pass:("certify-" ^ f.check)
           Diagnostic.Error "%s%s"
           (if f.use_case >= 0 then Printf.sprintf "use-case %d: " f.use_case else "")
           f.detail)
       t.findings

let render_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "certificate %s: %d switches, %d use-cases, %d routes, %d checks\n" t.design
       t.switches t.use_cases t.routes t.checks);
  (match t.digest with
  | Some d -> Buffer.add_string buf (Printf.sprintf "design digest: %s\n" d)
  | None -> Buffer.add_string buf "design digest: (not encodable)\n");
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "FAIL[%s]%s%s: %s\n" f.check
           (if f.use_case >= 0 then Printf.sprintf " uc %d" f.use_case else "")
           (if f.link >= 0 then Printf.sprintf " link %d" f.link else "")
           f.detail))
    t.findings;
  (match t.bounds with
  | [] -> ()
  | bounds ->
    let bounded = List.filter (fun b -> Float.is_finite b.slack_ns) bounds in
    Buffer.add_string buf
      (Printf.sprintf "flow bounds: %d guaranteed flows (%d with finite latency constraints)\n"
         (List.length bounds) (List.length bounded));
    match bounded with
    | [] -> ()
    | b0 :: _ ->
      let tightest =
        List.fold_left (fun acc b -> if b.slack_ns < acc.slack_ns then b else acc) b0 bounded
      in
      Buffer.add_string buf
        (Printf.sprintf
           "tightest: uc %d flow %d -> %d, bound %.1f ns against %.1f ns (slack %.1f ns)\n"
           tightest.use_case tightest.src_core tightest.dst_core tightest.bound_ns
           tightest.required_ns tightest.slack_ns));
  Buffer.add_string buf
    (Printf.sprintf "verdict: %s\nsignature: %s\n"
       (if clean t then "CLEAN" else Printf.sprintf "REJECTED (%d findings)" (List.length t.findings))
       t.signature);
  Buffer.contents buf
