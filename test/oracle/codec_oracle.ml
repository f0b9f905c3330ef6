(* The original Mapping_codec encoder: every line built with
   [Printf.sprintf] and [String.concat], reservations read through
   [Resources.reservations]. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Mapping = Noc_core.Mapping
module Resources = Noc_core.Resources

let magic = Printf.sprintf "nocmap-mapping %d" Noc_core.Mapping_codec.format_version

let fl x = Printf.sprintf "%h" x

let routing_token = function Config.Min_cost -> "min-cost" | Config.Xy -> "xy"
let kind_token = function Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"

let config_line (c : Config.t) =
  Printf.sprintf "config %s %d %d %d %d %d %d %s %s %s %s" (fl c.Config.freq_mhz)
    c.Config.link_width_bits c.Config.slots c.Config.slot_cycles c.Config.nis_per_switch
    (if c.Config.constrain_ni_links then 1 else 0)
    c.Config.max_mesh_dim (routing_token c.Config.routing) (kind_token c.Config.topology)
    (fl c.Config.placement_hw_factor)
    (fl c.Config.placement_spread_factor)

let route_line (r : Route.t) =
  Printf.sprintf "route %d %d %d %d %d %d %s %s %d%s %d%s" r.Route.flow_id r.Route.use_case
    r.Route.src_core r.Route.dst_core r.Route.src_switch r.Route.dst_switch
    (fl r.Route.bandwidth)
    (match r.Route.service with Route.Gt -> "gt" | Route.Be -> "be")
    (List.length r.Route.links)
    (String.concat "" (List.map (Printf.sprintf " %d") r.Route.links))
    (List.length r.Route.slot_starts)
    (String.concat "" (List.map (Printf.sprintf " %d") r.Route.slot_starts))

let state_line s =
  let nis = Resources.ni_budget_snapshot s in
  let res = Resources.reservations s in
  Printf.sprintf "state %d %d%s %d%s" (Resources.use_case s) (Array.length nis)
    (String.concat "" (Array.to_list (Array.map (fun b -> " " ^ fl b) nis)))
    (List.length res)
    (String.concat "" (List.map (fun (l, sl, o) -> Printf.sprintf " %d %d %d" l sl o) res))

let encode (m : Mapping.t) =
  let mesh = m.Mapping.mesh in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  line "%s" (config_line m.Mapping.config);
  line "mesh %s %d %d %d" (kind_token (Mesh.kind mesh)) (Mesh.width mesh) (Mesh.height mesh)
    (Mesh.link_count mesh);
  line "placement %d%s"
    (Array.length m.Mapping.placement)
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") m.Mapping.placement)));
  line "groups %d" (List.length m.Mapping.groups);
  List.iter
    (fun g -> line "group %d%s" (List.length g) (String.concat "" (List.map (Printf.sprintf " %d") g)))
    m.Mapping.groups;
  line "routes %d" (List.length m.Mapping.routes);
  List.iter (fun r -> line "%s" (route_line r)) m.Mapping.routes;
  line "states %d" (Array.length m.Mapping.states);
  Array.iter (fun s -> line "%s" (state_line s)) m.Mapping.states;
  line "end";
  Buffer.contents b
