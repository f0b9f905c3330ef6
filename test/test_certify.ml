(* PR 9: the independent certificate checker.

   Certify re-derives every guarantee on a code path separate from the
   mapping engines, so these tests cross-validate the two derivations
   against each other: engine-produced designs certify clean (and
   byte-identically across engines), the event-core simulator's
   observed latencies never exceed the static bounds (with at least
   one flow meeting its bound exactly — the bound is tight, not just
   safe), the phase-analysis bound agrees bit-for-bit with the
   Tdma-side analytic bound, and a tampered codec dump is rejected
   with a pinpointed per-link finding. *)

module Config = Noc_arch.Noc_config
module Route = Noc_arch.Route
module DF = Noc_core.Design_flow
module Mapping = Noc_core.Mapping
module Codec = Noc_core.Mapping_codec
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Sim = Noc_sim.Simulator
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs
module C = Noc_analysis.Certify
module D = Noc_analysis.Diagnostic
module Json = Noc_export.Json

let small_params = { Syn.spread_params with Syn.cores = 8; flows_lo = 3; flows_hi = 8 }

let must_run spec = match DF.run spec with Ok d -> d | Error e -> failwith e

let encode_exn m =
  match Codec.encode m with Some b -> b | None -> failwith "mapping not encodable"

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- the phase-analysis bound on its own -------------------------------- *)

let test_static_bound_edge_cases () =
  let config = Config.default in
  let slot_ns = Config.slot_duration_ns config in
  Alcotest.(check (float 0.0)) "same-switch costs one slot" slot_ns
    (C.static_bound_ns ~config ~slot_starts:[] ~hops:0);
  Alcotest.(check (float 0.0)) "same-switch ignores starts" slot_ns
    (C.static_bound_ns ~config ~slot_starts:[ 3; 7 ] ~hops:0);
  Alcotest.(check bool) "no reservation, links: unbounded" true
    (C.static_bound_ns ~config ~slot_starts:[] ~hops:2 = infinity);
  (* One start in a 32-slot revolution: the worst arrival just missed
     it and waits 31 slots, then 1 launch + hops forwarding slots. *)
  Alcotest.(check (float 0.0)) "single start"
    (float_of_int (31 + 1 + 2) *. slot_ns)
    (C.static_bound_ns ~config ~slot_starts:[ 5 ] ~hops:2);
  (* Every slot reserved: no waiting at all. *)
  Alcotest.(check (float 0.0)) "full table"
    (float_of_int (0 + 1 + 3) *. slot_ns)
    (C.static_bound_ns ~config ~slot_starts:(List.init config.Config.slots Fun.id) ~hops:3);
  (* Two starts splitting the revolution 12/20: worst wait is 19. *)
  Alcotest.(check (float 0.0)) "uneven pair"
    (float_of_int (19 + 1 + 1) *. slot_ns)
    (C.static_bound_ns ~config ~slot_starts:[ 0; 12 ] ~hops:1)

(* The gap-based worst wait against the original O(slots^2) scan, on
   start sets with duplicates, negatives and values past the revolution. *)
let prop_worst_wait_matches_scan =
  QCheck.Test.make ~name:"worst_wait == brute-force scan" ~count:1000
    QCheck.(
      make
        ~print:(fun (slots, starts) ->
          Printf.sprintf "slots %d, starts [%s]" slots
            (String.concat "; " (List.map string_of_int starts)))
        Gen.(
          int_range 1 70 >>= fun slots ->
          list_size (int_range 1 12) (int_range (-3 * slots) (3 * slots)) >>= fun starts ->
          return (slots, starts)))
    (fun (slots, starts) ->
      C.worst_wait ~slots starts = Noc_oracle.Gap_oracle.worst_wait ~slots starts)

(* --- benchmarks certify clean ------------------------------------------- *)

let test_benchmarks_certify_clean () =
  List.iter
    (fun (name, ucs) ->
      let d = must_run (DF.spec_of_use_cases ~name ucs) in
      let cert = C.certify ~name d.DF.mapping d.DF.all_use_cases in
      Alcotest.(check bool) (name ^ " certifies clean") true (C.clean cert);
      Alcotest.(check int) (name ^ " exit code") 0 (C.exit_code cert);
      Alcotest.(check bool) (name ^ " signature verifies") true (C.signature_ok cert);
      Alcotest.(check bool) (name ^ " carries a digest") true (cert.C.digest <> None);
      Alcotest.(check bool) (name ^ " ran checks") true (cert.C.checks > 0);
      Alcotest.(check bool) (name ^ " has flow bounds") true (cert.C.bounds <> []))
    (SD.all_designs ())

let test_certificate_json_validates () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let cert = C.certify ~name:"d1" d.DF.mapping d.DF.all_use_cases in
  (match Json.validate (C.to_string ~indent:2 cert) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "certificate JSON invalid: %s" msg);
  (* The diagnostics view: one info summary, nothing else when clean. *)
  match C.to_diagnostics cert with
  | [ d0 ] ->
    Alcotest.(check string) "summary pass" "certify" d0.D.pass;
    Alcotest.(check bool) "summary is info" true (d0.D.severity = D.Info)
  | ds -> Alcotest.failf "expected exactly the summary diagnostic, got %d" (List.length ds)

let test_signature_detects_tampering () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let cert = C.certify ~name:"d1" d.DF.mapping d.DF.all_use_cases in
  Alcotest.(check bool) "intact" true (C.signature_ok cert);
  Alcotest.(check bool) "renamed design" false
    (C.signature_ok { cert with C.design = cert.C.design ^ "x" });
  Alcotest.(check bool) "check count altered" false
    (C.signature_ok { cert with C.checks = cert.C.checks + 1 });
  match cert.C.bounds with
  | [] -> Alcotest.fail "d1 must carry bounds"
  | b :: rest ->
    Alcotest.(check bool) "bound altered" false
      (C.signature_ok { cert with C.bounds = { b with C.bound_ns = b.C.bound_ns +. 1.0 } :: rest })

(* --- a tampered dump is rejected with a per-link finding ----------------- *)

(* Flip one recorded slot owner on the first state line that carries a
   reservation: "state uc nNI b.. nRes l s o ..." — the textual twin
   of the CI job's awk corruption. *)
let bump_last_owner line =
  let toks = Array.of_list (String.split_on_char ' ' line) in
  if Array.length toks < 4 || toks.(0) <> "state" then None
  else
    match int_of_string_opt toks.(2) with
    | None -> None
    | Some n_ni -> (
      let nres_idx = 3 + n_ni in
      if nres_idx >= Array.length toks then None
      else
        match int_of_string_opt toks.(nres_idx) with
        | Some nres when nres > 0 -> (
          let last = Array.length toks - 1 in
          match int_of_string_opt toks.(last) with
          | Some owner ->
            toks.(last) <- string_of_int (owner + 1);
            Some (String.concat " " (Array.to_list toks))
          | None -> None)
        | _ -> None)

let flip_first_owner text =
  let flipped = ref false in
  let lines =
    List.map
      (fun line ->
        if !flipped then line
        else
          match bump_last_owner line with
          | Some line' ->
            flipped := true;
            line'
          | None -> line)
      (String.split_on_char '\n' text)
  in
  if not !flipped then failwith "no state line with reservations to corrupt";
  String.concat "\n" lines

let test_corrupted_dump_rejected () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let clean_cert = C.certify ~name:"d1" d.DF.mapping d.DF.all_use_cases in
  Alcotest.(check bool) "uncorrupted baseline is clean" true (C.clean clean_cert);
  let bad = flip_first_owner (encode_exn d.DF.mapping) in
  match Codec.decode bad with
  | Error msg -> Alcotest.failf "corrupted dump must still decode, got: %s" msg
  | Ok m ->
    let cert = C.certify ~name:"tampered" m d.DF.all_use_cases in
    Alcotest.(check bool) "rejected" false (C.clean cert);
    Alcotest.(check int) "exit code 2" 2 (C.exit_code cert);
    Alcotest.(check bool) "signature still verifies" true (C.signature_ok cert);
    (* The finding pinpoints the corrupted link. *)
    Alcotest.(check bool) "a per-link slot-owner finding" true
      (List.exists
         (fun f -> f.C.check = "slot-owner" && f.C.link >= 0 && f.C.use_case >= 0)
         cert.C.findings);
    (* And it surfaces through the lint pipeline as an error. *)
    Alcotest.(check bool) "diagnostics carry the error" true
      (List.exists
         (fun (dg : D.t) -> dg.D.pass = "certify-slot-owner" && dg.D.severity = D.Error)
         (C.to_diagnostics cert))

(* Slot-owner findings come out in claim order: the order the routes,
   their starting slots and their hops claim (link, slot) cells.
   Corrupt the recorded owners of two claimed cells on different links
   and expect exactly those two findings, earlier claim first. *)
let test_slot_owner_findings_in_claim_order () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let m = d.DF.mapping in
  let slots = m.Mapping.config.Config.slots in
  let claims_of uc =
    List.concat_map
      (fun (r : Route.t) ->
        if r.Route.use_case <> uc || r.Route.service <> Route.Gt then []
        else
          List.concat_map
            (fun start -> List.mapi (fun hop link -> (link, (start + hop) mod slots)) r.Route.links)
            r.Route.slot_starts)
      m.Mapping.routes
  in
  (* The later claim sits on a lower-numbered link, so neither link
     order nor (link, slot) order reproduces claim order. *)
  let uc, first, later =
    let pair uc =
      let rec scan = function
        | [] -> None
        | ((l0, _) as first) :: rest -> (
          match List.find_opt (fun (l, _) -> l < l0) rest with
          | Some later -> Some (uc, first, later)
          | None -> scan rest)
      in
      scan (claims_of uc)
    in
    match List.find_map (fun u -> pair u.U.id) d.DF.all_use_cases with
    | Some p -> p
    | None -> Alcotest.fail "d1 has no use-case claiming a lower link after a higher one"
  in
  (* Bump the owner of the two cells on use-case [uc]'s state line:
     "state uc nNI b.. nRes l s o ...". *)
  let corrupt line =
    let toks = Array.of_list (String.split_on_char ' ' line) in
    if toks.(0) <> "state" || int_of_string toks.(1) <> uc then line
    else begin
      let res = 3 + int_of_string toks.(2) in
      for k = 0 to int_of_string toks.(res) - 1 do
        let at = res + 1 + (3 * k) in
        let cell = (int_of_string toks.(at), int_of_string toks.(at + 1)) in
        if cell = first || cell = later then
          toks.(at + 2) <- string_of_int (int_of_string toks.(at + 2) + 1000)
      done;
      String.concat " " (Array.to_list toks)
    end
  in
  let bad = String.concat "\n" (List.map corrupt (String.split_on_char '\n' (encode_exn m))) in
  match Codec.decode bad with
  | Error msg -> Alcotest.failf "corrupted dump must still decode, got: %s" msg
  | Ok m' ->
    let cert = C.certify ~name:"tampered" m' d.DF.all_use_cases in
    let owners =
      List.filter_map
        (fun f -> if f.C.check = "slot-owner" then Some (f.C.use_case, f.C.link) else None)
        cert.C.findings
    in
    Alcotest.(check (list (pair int int)))
      "slot-owner findings in claim order"
      [ (uc, fst first); (uc, fst later) ]
      owners

(* A dump may repeat a connection id.  The last route recorded under a
   (use-case, flow id) decides for all of them whether they contribute
   slot claims.  A malformed copy (a negative starting slot) placed
   before a well-formed route therefore claims too, off the table at
   slot -1; placed after it, it withdraws both routes' claims and the
   table's reservations for the flow surface as orphans. *)
let test_duplicate_route_last_decides () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let lines = String.split_on_char '\n' (encode_exn d.DF.mapping) in
  (* "route fid uc src dst ssw dsw bw gt nLinks l.. nStarts s.." *)
  let malformed line =
    let toks = Array.of_list (String.split_on_char ' ' line) in
    if Array.length toks < 10 || toks.(0) <> "route" || toks.(8) <> "gt" then None
    else
      let n_links = int_of_string toks.(9) in
      let starts_at = 10 + n_links in
      if n_links < 2 || int_of_string toks.(starts_at) < 1 then None
      else begin
        toks.(starts_at + 1) <- "-1";
        Some (String.concat " " (Array.to_list toks))
      end
  in
  let certify_with ~copy_first =
    let injected = ref false in
    let dump =
      List.concat_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "routes"; n ] -> [ "routes " ^ string_of_int (int_of_string n + 1) ]
          | _ -> (
            match if !injected then None else malformed line with
            | Some copy ->
              injected := true;
              if copy_first then [ copy; line ] else [ line; copy ]
            | None -> [ line ]))
        lines
    in
    if not !injected then Alcotest.fail "d1 has no multi-hop GT route to copy";
    match Codec.decode (String.concat "\n" dump) with
    | Error msg -> Alcotest.failf "dump with a repeated connection must decode, got: %s" msg
    | Ok m ->
      let cert = C.certify ~name:"repeated" m d.DF.all_use_cases in
      let checks = List.map (fun f -> f.C.check) cert.C.findings in
      Alcotest.(check bool) "malformed copy refuted" true (List.mem "slot-range" checks);
      Alcotest.(check bool) "flow now has two connections" true (List.mem "route-exists" checks);
      checks
  in
  let has id checks = List.mem id checks in
  let first = certify_with ~copy_first:true in
  Alcotest.(check bool) "copy first: its off-table claim is checked" true (has "slot-owner" first);
  Alcotest.(check bool) "copy first: no orphans" false (has "orphan-slot" first);
  let last = certify_with ~copy_first:false in
  Alcotest.(check bool) "copy last: orphaned reservations" true (has "orphan-slot" last);
  Alcotest.(check bool) "copy last: no claim checks" false
    (has "slot-owner" last || has "slot-exclusivity" last)

(* --- simulator cross-validation ------------------------------------------ *)

(* Counted across the whole qcheck run and asserted afterwards: the
   bound must be achieved exactly by some flow somewhere, or it would
   merely be safe, not tight. *)
let equality_hits = ref 0

let prop_bounds_dominate_sim =
  QCheck.Test.make ~name:"certify bounds dominate event-core observed latencies" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, n_ucs) ->
      let spec =
        DF.spec_of_use_cases
          ~name:(Printf.sprintf "syn-%d" seed)
          (Syn.generate ~seed ~params:small_params ~use_cases:n_ucs)
      in
      let d = must_run spec in
      let cert = C.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases in
      if not (C.clean cert) then
        QCheck.Test.fail_reportf "seed %d: engine design did not certify (%d findings)" seed
          (List.length cert.C.findings);
      let config = d.DF.mapping.Mapping.config in
      let bound_of uc flow_id =
        match
          List.find_opt
            (fun (b : C.flow_bound) -> b.C.use_case = uc && b.C.flow_id = flow_id)
            cert.C.bounds
        with
        | Some b -> b.C.bound_ns
        | None -> QCheck.Test.fail_reportf "seed %d: no bound for uc %d flow %d" seed uc flow_id
      in
      List.iter
        (fun (u : U.t) ->
          let uc = u.U.id in
          let routes =
            List.filter (fun r -> r.Route.use_case = uc) d.DF.mapping.Mapping.routes
          in
          if routes <> [] then begin
            let res =
              Sim.simulate ~config ~routes ~duration_slots:(8 * config.Config.slots)
            in
            if res.Sim.collisions <> 0 then
              QCheck.Test.fail_reportf "seed %d uc %d: %d slot collisions" seed uc
                res.Sim.collisions;
            List.iter
              (fun (c : Sim.conn_stats) ->
                if c.Sim.service = Route.Gt && c.Sim.max_latency_ns > 0.0 then begin
                  let b = bound_of uc c.Sim.flow_id in
                  if c.Sim.max_latency_ns > b +. 1e-9 then
                    QCheck.Test.fail_reportf
                      "seed %d uc %d flow %d: observed %.17g ns exceeds static bound %.17g ns"
                      seed uc c.Sim.flow_id c.Sim.max_latency_ns b;
                  if Float.abs (c.Sim.max_latency_ns -. b) <= 1e-9 then incr equality_hits
                end)
              res.Sim.conns
          end)
        d.DF.all_use_cases;
      true)

let test_some_flow_meets_its_bound_exactly () =
  (* Runs after the qcheck property above (alcotest preserves order). *)
  Alcotest.(check bool)
    (Printf.sprintf "equality hits (%d) >= 1" !equality_hits)
    true (!equality_hits >= 1)

(* --- independent derivations agree --------------------------------------- *)

let prop_bound_agrees_with_tdma_side =
  QCheck.Test.make ~name:"static_bound_ns == Route.worst_case_latency_ns (GT)" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let spec =
        DF.spec_of_use_cases ~name:"agree"
          (Syn.generate ~seed ~params:small_params ~use_cases:2)
      in
      let d = must_run spec in
      let config = d.DF.mapping.Mapping.config in
      List.iter
        (fun (r : Route.t) ->
          if r.Route.service = Route.Gt then begin
            let mine =
              C.static_bound_ns ~config ~slot_starts:r.Route.slot_starts
                ~hops:(List.length r.Route.links)
            in
            let theirs = Route.worst_case_latency_ns ~config r in
            if compare mine theirs <> 0 then
              QCheck.Test.fail_reportf
                "seed %d flow %d: phase analysis %.17g ns != analytic %.17g ns" seed
                r.Route.flow_id mine theirs
          end)
        d.DF.mapping.Mapping.routes;
      true)

let prop_engines_certify_identically =
  QCheck.Test.make ~name:"reference-engine designs certify identically" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let spec =
        DF.spec_of_use_cases ~name:"engines"
          (Syn.generate ~seed ~params:small_params ~use_cases:2)
      in
      let all, _, groups = DF.expand spec in
      let map engine =
        match Mapping.map_design ~engine ~groups all with
        | Ok m -> m
        | Error _ -> QCheck.Test.fail_reportf "seed %d: engine failed to map" seed
      in
      let indexed = C.certify ~name:"engines" (map Mapping.Indexed) all in
      let reference = C.certify ~name:"engines" (map Mapping.Reference) all in
      if not (C.clean indexed) then QCheck.Test.fail_reportf "seed %d: indexed not clean" seed;
      String.equal
        (C.to_string indexed)
        (C.to_string reference))

(* --- shape refutations ---------------------------------------------------- *)

let test_wrong_use_case_list_refuted () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  (* Certifying against a truncated traffic description must fail the
     structural shape check, not crash. *)
  match d.DF.all_use_cases with
  | [] | [ _ ] -> Alcotest.fail "d1 has several use-cases"
  | _ :: rest_tail ->
    let truncated = List.filteri (fun i _ -> i < List.length rest_tail) d.DF.all_use_cases in
    let cert = C.certify ~name:"truncated" d.DF.mapping truncated in
    Alcotest.(check bool) "refuted" false (C.clean cert);
    Alcotest.(check bool) "shape finding" true
      (List.exists (fun f -> f.C.check = "shape") cert.C.findings);
    Alcotest.(check bool) "signature still verifies" true (C.signature_ok cert)

let () =
  Alcotest.run "noc_certify"
    [
      ( "bound",
        [
          Alcotest.test_case "phase-analysis edge cases" `Quick test_static_bound_edge_cases;
          qcheck prop_worst_wait_matches_scan;
          qcheck prop_bound_agrees_with_tdma_side;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "benchmarks certify clean" `Slow test_benchmarks_certify_clean;
          Alcotest.test_case "JSON validates, diagnostics clean" `Quick
            test_certificate_json_validates;
          Alcotest.test_case "signature detects tampering" `Quick
            test_signature_detects_tampering;
          Alcotest.test_case "corrupted dump rejected per-link" `Quick
            test_corrupted_dump_rejected;
          Alcotest.test_case "slot-owner findings in claim order" `Quick
            test_slot_owner_findings_in_claim_order;
          Alcotest.test_case "last duplicate route decides its claims" `Quick
            test_duplicate_route_last_decides;
          Alcotest.test_case "wrong use-case list refuted" `Quick
            test_wrong_use_case_list_refuted;
        ] );
      ( "cross-validation",
        [
          qcheck prop_bounds_dominate_sim;
          Alcotest.test_case "some flow meets its bound exactly" `Quick
            test_some_flow_meets_its_bound_exactly;
          qcheck prop_engines_certify_identically;
        ] );
    ]
