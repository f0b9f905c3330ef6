(* Seeded input generation.  Everything a workload feeds the program —
   the spec rotation, the parallel/smooth sets, the churn cycle and the
   fresh specs of the serve mix — is derived from the workload seed
   given on the command line, so equal seeds give equal inputs.  The
   program itself only ever sees spec text or wire ops. *)

module DF = Noc_core.Design_flow
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs
module UC = Noc_traffic.Use_case
module Rng = Noc_util.Rng

(* Seed for checking a later performance claim on inputs no one tuned
   against; never used while a change is being written. *)
let held_out_seed = 7919

(* An independent generator per (seed, purpose), so adding a purpose
   never shifts the inputs of another. *)
let rng ~seed purpose = Rng.create ~seed:(Hashtbl.hash (seed, purpose))

type spec_input = {
  label : string;  (** stable name of the input, e.g. ["D3"] or ["sp160-gen"] *)
  text : string;  (** the spec as the program receives it *)
  sim_use_case : int;  (** base use-case the design-cold op simulates *)
}

let render ~name ?(parallel = []) ?(smooth = []) ucs =
  Noc_core.Spec_parser.to_text { DF.name; use_cases = ucs; parallel; smooth }

(* The paper's four SoCs.  D3/D4 stay in every rotation: at the default
   config their phase-4 report fails while the certificate is clean,
   the verdict disagreement `verdict.disagreements` keeps visible. *)
let paper_designs () = [ ("D1", SD.d1 ()); ("D2", SD.d2 ()); ("D3", SD.d3 ()); ("D4", SD.d4 ()) ]

(* Seeded parallel modes (three pairs) and one smooth-switching pair
   over [ucs]: enough to make compound generation and grouping do real
   work.  The eight use-cases are distinct and drawn among the 20
   lightest (by total bandwidth).  Both rules keep the seed from
   deciding the mesh a spec needs: overlapping parallel pairs, a smooth
   pair joining a compound's group, or heavier use-cases made some
   seeds jump a design from 4 to 20 switches, so the workload's cost
   and switch count were bimodal across seeds. *)
let modes rng ucs =
  let light =
    List.sort (fun a b -> compare (UC.total_bandwidth a, a.UC.id) (UC.total_bandwidth b, b.UC.id)) ucs
    |> List.filteri (fun i _ -> i < 20)
    |> List.map (fun u -> u.UC.id)
    |> Array.of_list
  in
  Rng.shuffle rng light;
  let parallel = List.init 3 (fun i -> [ light.(2 * i); light.((2 * i) + 1) ]) in
  (parallel, [ (light.(6), light.(7)) ])

(* design-cold: D1-D4 plus four 160-use-case specs, one per generator
   and traffic pattern.  160 use-cases is the size at which the growth
   search, the verdict and the payload all take hundreds of
   milliseconds, while D1-D4 take tens.  The four specs' traffic is
   fixed (generator seed 200, the CLI's default), like D1-D4's: which
   of them needs 20 switches at 4 NIs per switch is a property of the
   traffic, and letting the workload seed redraw it would make the
   cost and `switches_per_design` of a run depend on the seed more
   than on the code.  The seed draws the parallel/smooth sets and the
   simulated use-cases; the generator it returns draws the rotation. *)
let big_specs =
  [
    ("sp160-gen", fun () -> Syn.generate ~seed:200 ~params:Syn.spread_params ~use_cases:160);
    ("bot160-gen", fun () -> Syn.generate ~seed:200 ~params:Syn.bottleneck_params ~use_cases:160);
    ( "sp160-family",
      fun () -> Syn.generate_family ~seed:200 ~params:Syn.spread_params ~use_cases:160 ~similarity:0.5 );
    ( "bot160-family",
      fun () ->
        Syn.generate_family ~seed:200 ~params:Syn.bottleneck_params ~use_cases:160 ~similarity:0.5 );
  ]

let design_cold ~seed =
  let r = rng ~seed "design-cold" in
  let pick_uc n = Rng.int r n in
  let paper =
    List.map
      (fun (label, ucs) ->
        { label; text = render ~name:label ucs; sim_use_case = pick_uc (List.length ucs) })
      (paper_designs ())
  in
  let big =
    List.map
      (fun (label, gen) ->
        let ucs = gen () in
        let parallel, smooth = modes r ucs in
        { label; text = render ~name:label ~parallel ~smooth ucs; sim_use_case = pick_uc (List.length ucs) })
      big_specs
  in
  (paper, big, r)

(* churn-remap: a base design and a seeded cycle of revisions, each
   retuning, retiring or adding one use-case of the base.  The base
   traffic is fixed (generator seed 200), as design-cold's specs are.
   100 use-cases keeps an op near a quarter second, so a run holds the
   hundred-odd ops a p90 with ten samples beyond it needs.  Retunes,
   the commonest revision, are half the cycle and retires and adds a
   quarter each; the median op then lies inside the retune ops rather
   than on the boundary between two kinds of op, where it would swing
   with every small shift in timing. *)
let churn_use_cases = 100

let renumber ucs = List.mapi (fun i u -> UC.rename u ~id:i ~name:u.UC.name) ucs

type revision = { change : string; rev_text : string }

let churn ~seed ~cycle =
  let r = rng ~seed "churn-remap" in
  let n = churn_use_cases in
  let base = Syn.generate ~seed:200 ~params:Syn.spread_params ~use_cases:n in
  let revision k =
    let i = Rng.int r n in
    let ucs, change =
      match k mod 4 with
      | 1 | 3 ->
        let scale = Rng.float_in r 0.8 1.2 in
        ( List.map
            (fun u ->
              if u.UC.id <> i then u
              else
                UC.create ~id:u.UC.id ~name:u.UC.name ~cores:u.UC.cores
                  (List.map
                     (fun f -> { f with Noc_traffic.Flow.bandwidth = f.Noc_traffic.Flow.bandwidth *. scale })
                     u.UC.flows))
            base,
          Printf.sprintf "retune u%d x%.3f" i scale )
      | 0 -> (renumber (List.filter (fun u -> u.UC.id <> i) base), Printf.sprintf "retire u%d" i)
      | _ ->
        let name = Printf.sprintf "added%d" k in
        (base @ [ Syn.generate_one ~rng:r ~params:Syn.spread_params ~id:n ~name ], "add " ^ name)
    in
    { change; rev_text = render ~name:"churn" ucs }
  in
  let revisions = List.init cycle revision in
  (render ~name:"churn" base, revisions)

(* serve-mixed: a hot set every run repeats and a stream of fresh
   specs.  Request [k] is a pure function of (seed, k).  Every block of
   20 requests holds the same mix in a seeded order — 6 map, 4 certify,
   4 lint, 3 explore and 2 remap requests on the hot set and 1 fresh
   spec (5 %) — so the share of costly fresh requests does not vary
   from run to run. *)
type request = { op : Noc_serve.Protocol.op; kind : string }

let block_mix =
  List.concat_map
    (fun (kind, n) -> List.init n (fun _ -> kind))
    [ ("map", 6); ("certify", 4); ("lint", 4); ("explore", 3); ("remap", 2); ("fresh", 1) ]

(* The hot set's ops by kind; [remap] always churns d2 -> d2_churn. *)
let hot_op ~d2_pair kind (name, spec) =
  let module P = Noc_serve.Protocol in
  let config = P.default_config in
  match kind with
  | "map" -> P.Map { name; spec; config }
  | "certify" -> P.Certify { name; spec; config }
  | "lint" -> P.Lint { name; spec; config; deep = false }
  | "explore" -> P.Explore { name; spec; config; frequencies = None; slot_counts = None; torus = false }
  | _ ->
    let (from_name, from_spec), (to_name, to_spec) = d2_pair in
    P.Remap { from_name; from_spec; to_name; to_spec; config }

let hot_kinds = [ "map"; "certify"; "lint"; "explore" ]

let hot_ops ~hot ~d2_pair =
  List.concat_map (fun k -> List.map (hot_op ~d2_pair k) hot) hot_kinds
  @ [ hot_op ~d2_pair "remap" (List.hd hot) ]

let serve_request ~seed ~hot ~d2_pair k =
  let module P = Noc_serve.Protocol in
  let block = Array.of_list block_mix in
  Rng.shuffle (rng ~seed ("serve-mixed-block", k / Array.length block)) block;
  let r = rng ~seed ("serve-mixed", k) in
  match block.(k mod Array.length block) with
  | "fresh" -> (
    let fseed = Rng.int r 1_000_000_000 in
    let name = Printf.sprintf "sp20-%d" fseed in
    let spec = render ~name (Syn.generate ~seed:fseed ~params:Syn.spread_params ~use_cases:20) in
    let config = P.default_config in
    match Rng.int r 3 with
    | 0 -> { op = P.Map { name; spec; config }; kind = "map" }
    | 1 -> { op = P.Certify { name; spec; config }; kind = "certify" }
    | _ ->
      {
        op =
          P.Explore
            { name; spec; config; frequencies = Some [ 250.0; 500.0 ]; slot_counts = Some [ 16; 32 ]; torus = false };
        kind = "explore";
      })
  | kind -> { op = hot_op ~d2_pair kind (Rng.pick_list r hot); kind }
