module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Mapping = Noc_core.Mapping
module DF = Noc_core.Design_flow
module Verify = Noc_core.Verify
module Use_case = Noc_traffic.Use_case

(* The document is streamed into one buffer rather than built as a
   Json.t first: a 160-use-case design is megabytes of routes. *)

let kind_name = function Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"

let config w (c : Config.t) =
  Json.obj_open w;
  Json.float_field w "freq_mhz" c.Config.freq_mhz;
  Json.int_field w "link_width_bits" c.Config.link_width_bits;
  Json.int_field w "slots" c.Config.slots;
  Json.int_field w "slot_cycles" c.Config.slot_cycles;
  Json.int_field w "nis_per_switch" c.Config.nis_per_switch;
  Json.string_field w "routing"
    (match c.Config.routing with Config.Min_cost -> "min-cost" | Config.Xy -> "xy");
  Json.string_field w "topology" (kind_name c.Config.topology);
  Json.obj_close w

let route w (r : Route.t) =
  Json.obj_open w;
  Json.int_field w "flow_id" r.Route.flow_id;
  Json.int_field w "use_case" r.Route.use_case;
  Json.int_field w "src_core" r.Route.src_core;
  Json.int_field w "dst_core" r.Route.dst_core;
  Json.int_field w "src_switch" r.Route.src_switch;
  Json.int_field w "dst_switch" r.Route.dst_switch;
  Json.float_field w "bandwidth_mbps" r.Route.bandwidth;
  Json.string_field w "service" (match r.Route.service with Route.Gt -> "gt" | Route.Be -> "be");
  Json.field w "links";
  Json.list w Json.int r.Route.links;
  Json.field w "slot_starts";
  Json.list w Json.int r.Route.slot_starts;
  Json.obj_close w

let mapping w (m : Mapping.t) =
  let mesh = m.Mapping.mesh in
  Json.obj_open w;
  Json.field w "config";
  config w m.Mapping.config;
  Json.field w "mesh";
  Json.obj_open w;
  Json.int_field w "width" (Mesh.width mesh);
  Json.int_field w "height" (Mesh.height mesh);
  Json.int_field w "switches" (Mesh.switch_count mesh);
  Json.int_field w "links" (Mesh.link_count mesh);
  Json.string_field w "kind" (kind_name (Mesh.kind mesh));
  Json.obj_close w;
  Json.field w "placement";
  Json.list w Json.int (Array.to_list m.Mapping.placement);
  Json.field w "routes";
  Json.list w route m.Mapping.routes;
  Json.field w "groups";
  Json.list w (fun w g -> Json.list w Json.int g) m.Mapping.groups;
  Json.obj_close w

let design w (d : DF.t) =
  let report = d.DF.report in
  Json.obj_open w;
  Json.string_field w "name" d.DF.spec.DF.name;
  Json.int_field w "base_use_cases" (List.length d.DF.spec.DF.use_cases);
  Json.field w "use_cases";
  Json.list w
    (fun w u ->
      Json.obj_open w;
      Json.int_field w "id" u.Use_case.id;
      Json.string_field w "name" u.Use_case.name;
      Json.int_field w "flows" (Use_case.flow_count u);
      Json.float_field w "total_bandwidth_mbps" (Use_case.total_bandwidth u);
      Json.obj_close w)
    d.DF.all_use_cases;
  Json.field w "compounds";
  Json.list w
    (fun w c ->
      Json.obj_open w;
      Json.int_field w "use_case" c.Noc_core.Compound.use_case.Use_case.id;
      Json.field w "members";
      Json.list w Json.int c.Noc_core.Compound.members;
      Json.obj_close w)
    d.DF.compounds;
  Json.field w "mapping";
  mapping w d.DF.mapping;
  Json.field w "verification";
  Json.obj_open w;
  Json.bool_field w "ok" (Verify.ok report);
  Json.int_field w "checks" report.Verify.checks;
  Json.int_field w "violations" (List.length report.Verify.violations);
  Json.obj_close w;
  Json.obj_close w

(* Pretty-printed, a route renders to roughly 400 bytes. *)
let design_to_string ?(indent = 2) d =
  let w = Json.writer ~indent (4096 + (400 * List.length d.DF.mapping.Mapping.routes)) in
  design w d;
  Json.contents w
