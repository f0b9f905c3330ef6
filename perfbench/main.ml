(* Benchmark entry point; see README.md.  Usually started through
   run.py, which builds it first:

     main.exe --workload design-cold|churn-remap|serve-mixed --seed N
              --seconds S --trace 0|1 --nocmap PATH [--smoke] *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nocmap = ref "_build/default/bin/nocmap.exe" and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME design-cold, churn-remap or serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nocmap", Arg.Set_string nocmap, "PATH the nocmap executable serve-mixed starts");
      ("--smoke", Arg.Set smoke, " run a few ops only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let max_ops = if !smoke then Some 3 else None in
  let outcome =
    match !workload with
    | "design-cold" -> Perfbench.Design_cold.run ~seed ~seconds ~trace ~max_ops
    | "churn-remap" -> Perfbench.Churn_remap.run ~seed ~seconds ~trace ~max_ops
    | "serve-mixed" -> Perfbench.Serve_mixed.run ~nocmap:!nocmap ~seed ~seconds ~trace ~max_ops
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  Perfbench.Result_line.print ~workload:!workload ~seed ~trace outcome;
  if !smoke && outcome.Perfbench.Result_line.failed > 0 then exit 1
