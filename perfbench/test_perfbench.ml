(* Tests of the benchmark's own arithmetic: percentiles and the sample
   counts they need, span self times, the traced-run sum check and
   counter deltas.  The end-to-end smoke run of every workload is the
   [smoke] alias (dune build @perfbench/smoke). *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_percentiles () =
  check "p50 of 1..5" (close (Stats.percentile [ 5.; 1.; 4.; 2.; 3. ] 0.5) 3.0);
  check "p0 is the minimum" (close (Stats.percentile [ 3.; 1.; 2. ] 0.0) 1.0);
  check "p100 is the maximum" (close (Stats.percentile [ 3.; 1.; 2. ] 1.0) 3.0);
  check "p25 interpolates" (close (Stats.percentile [ 1.; 2.; 3.; 4. ] 0.25) 1.75);
  check "p90 of 0..100" (close (Stats.percentile (List.init 101 float_of_int) 0.9) 90.0);
  check "one sample" (close (Stats.percentile [ 7. ] 0.9) 7.0);
  check "median of even count" (close (Stats.median [ 1.; 2.; 3.; 10. ]) 2.5);
  check "mean" (close (Stats.mean [ 1.; 2.; 6. ]) 3.0);
  check "no samples raises"
    (match Stats.percentile [] 0.5 with _ -> false | exception Invalid_argument _ -> true);
  check "p outside [0,1] raises"
    (match Stats.percentile [ 1. ] 1.5 with _ -> false | exception Invalid_argument _ -> true)

let test_sample_counts () =
  check "100 samples put 10 beyond p90" (Stats.samples_beyond ~n:100 0.9 = 10);
  check "50 samples put 5 beyond p90" (Stats.samples_beyond ~n:50 0.9 = 5);
  check "p50 of 10 has 5 beyond" (Stats.samples_beyond ~n:10 0.5 = 5);
  let n90 = Stats.samples_needed 0.9 in
  check "p90 needs about 100 samples" (n90 > 90 && n90 <= 100);
  check "p90 needs is minimal"
    (Stats.samples_beyond ~n:n90 0.9 >= 10 && Stats.samples_beyond ~n:(n90 - 1) 0.9 < 10);
  let n99 = Stats.samples_needed 0.99 in
  check "p99 needs about 1000 samples" (n99 > 900 && n99 <= 1000);
  check "p50 needs about 20 samples" (Stats.samples_needed 0.5 <= 20)

let span id parent name start stop = { Spans.id; parent; name; start; stop }

let test_self_time () =
  (* Disjoint children. *)
  let parent = span 0 None "op" 0.0 10.0 in
  let spans = [ parent; span 1 (Some 0) "a" 1.0 3.0; span 2 (Some 0) "b" 5.0 8.0 ] in
  check "disjoint children" (close (Spans.self_time spans parent) 5.0);
  (* Overlapping children are counted once. *)
  let spans = [ parent; span 1 (Some 0) "a" 1.0 4.0; span 2 (Some 0) "b" 3.0 6.0 ] in
  check "overlapping children" (close (Spans.self_time spans parent) 5.0);
  (* A child nested inside another child. *)
  let spans = [ parent; span 1 (Some 0) "a" 1.0 6.0; span 2 (Some 0) "b" 2.0 3.0 ] in
  check "contained child" (close (Spans.self_time spans parent) 5.0);
  (* A child sticking out of its parent only counts inside it. *)
  let spans = [ parent; span 1 (Some 0) "a" 8.0 12.0 ] in
  check "child clipped to parent" (close (Spans.self_time spans parent) 8.0);
  (* Grandchildren subtract from their parent only. *)
  let child = span 1 (Some 0) "a" 1.0 5.0 in
  let spans = [ parent; child; span 2 (Some 1) "g" 2.0 4.0 ] in
  check "grandchild leaves grandparent" (close (Spans.self_time spans parent) 6.0);
  check "grandchild subtracts from parent" (close (Spans.self_time spans child) 2.0);
  let totals = Spans.self_times [ span 0 None "x" 0.0 1.0; span 1 None "y" 1.0 3.0; span 2 None "x" 3.0 3.5 ] in
  check "self times summed per name, first-seen order"
    (match totals with [ ("x", x); ("y", y) ] -> close x 1.5 && close y 2.0 | _ -> false)

let test_recorder () =
  let r = Spans.create () in
  Spans.with_span r "outer" (fun () -> Spans.with_span r "inner" (fun () -> ()));
  (try Spans.with_span r "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match Spans.spans r with
  | [ inner; outer; raised ] ->
    check "inner is the child of outer" (inner.Spans.parent = Some outer.Spans.id);
    check "outer is a root" (outer.Spans.parent = None);
    check "a raising span is closed and is a root" (raised.Spans.parent = None && raised.Spans.name = "raises");
    check "child within parent" (inner.Spans.start >= outer.Spans.start && inner.Spans.stop <= outer.Spans.stop)
  | _ -> check "three spans recorded" false

let test_sum_check () =
  check "within tolerance" (Spans.sum_check ~tolerance:0.05 ~wall:1.0 0.97);
  check "over-count within tolerance" (Spans.sum_check ~tolerance:0.05 ~wall:1.0 1.04);
  check "beyond tolerance" (not (Spans.sum_check ~tolerance:0.05 ~wall:1.0 0.90));
  check "zero wall fails" (not (Spans.sum_check ~tolerance:0.05 ~wall:0.0 0.0));
  (* A real staged op: back-to-back stages account for the op. *)
  let r = Spans.create () in
  let busy () = ignore (List.init 20_000 (fun i -> i * i)) in
  let (), wall =
    Ops.time (fun () ->
        Spans.with_span r "s1" busy;
        Spans.with_span r "s2" busy)
  in
  let self = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Spans.self_times (Spans.spans r)) in
  check "stages sum to op wall" (Spans.sum_check ~tolerance:Ops.sum_tolerance ~wall self)

let test_counters () =
  let d = Counters.delta ~before:[ ("a", 1); ("b", 2) ] ~after:[ ("a", 4); ("b", 2); ("c", 5) ] in
  check "delta of existing counters" (Counters.get d "a" = 3 && Counters.get d "b" = 0);
  check "new counter starts at zero" (Counters.get d "c" = 5);
  check "absent counter reads zero" (Counters.get d "z" = 0);
  let c = Noc_obs.Metrics.counter "perfbench.test" in
  let before = Counters.take () in
  Noc_obs.Metrics.incr ~by:7 c;
  check "registry delta" (Counters.get (Counters.delta ~before ~after:(Counters.take ())) "perfbench.test" = 7)

let () =
  test_percentiles ();
  test_sample_counts ();
  test_self_time ();
  test_recorder ();
  test_sum_check ();
  test_counters ();
  if !failures > 0 then exit 1;
  print_endline "perfbench arithmetic: all checks passed"
