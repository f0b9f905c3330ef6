module J = Noc_export.Json
module Mesh = Noc_arch.Mesh

let design d = Noc_export.Design_export.design_to_string d

let points points =
  let point p =
    let open Noc_power.Design_space in
    J.Obj
      [
        ("topology", J.String (match p.topology with Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"));
        ("slots", J.Int p.slots);
        ("freq_mhz", J.Float p.freq_mhz);
        ("switches", (match p.switches with Some s -> J.Int s | None -> J.Null));
        ("area_mm2", (match p.area_mm2 with Some a -> J.Float a | None -> J.Null));
        ("power_mw", (match p.power_mw with Some w -> J.Float w | None -> J.Null));
        ("start", J.String (match p.start with Warm -> "warm" | Cold -> "cold"));
      ]
  in
  J.to_string ~indent:2 (J.Obj [ ("points", J.List (List.map point points)) ])

let lint report = Noc_analysis.Analyzer.render_json report ^ "\n"

let certificate cert =
  Noc_analysis.Certify.to_string ~indent:2 cert ^ "\n"
