(* Tests for Noc_export: JSON builder/validator and the DOT/JSON
   design exports. *)

module Json = Noc_export.Json
module Dot = Noc_export.Dot
module Export = Noc_export.Design_export
module Config = Noc_arch.Noc_config
module DF = Noc_core.Design_flow
module SD = Noc_benchkit.Soc_designs

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- json builder ------------------------------------------------------- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "integral float" "2.0" (Json.to_string (Json.Float 2.0));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (Json.to_string (Json.String "a\"b\\c"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (Json.to_string (Json.String "a\nb"));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\001"))

let test_json_nan_becomes_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float infinity))

let test_json_compound () =
  let v = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("b", Json.Bool false) ] in
  Alcotest.(check string) "compact" "{\"xs\": [1,2],\"b\": false}"
    (Json.to_string v |> String.map (fun c -> c))
    |> ignore;
  (* don't over-specify separators; just require validity and keys *)
  let s = Json.to_string v in
  Alcotest.(check bool) "valid" true (Json.validate s = Ok ());
  Alcotest.(check bool) "has xs" true (contains s "\"xs\"")

let test_json_roundtrip_validity () =
  let v =
    Json.Obj
      [
        ("name", Json.String "design \"x\"\n");
        ("values", Json.List [ Json.Float 0.125; Json.Int (-3); Json.Null ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  Alcotest.(check bool) "compact valid" true (Json.validate (Json.to_string v) = Ok ());
  Alcotest.(check bool) "pretty valid" true
    (Json.validate (Json.to_string ~indent:2 v) = Ok ())

(* --- json validator negatives -------------------------------------------- *)

let test_json_validator_rejects () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Json.validate s)) in
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "01a";
  bad "{\"a\":1} trailing";
  bad "{'single':1}";
  bad "[1 2]"

let test_json_validator_accepts () =
  let good s = Alcotest.(check bool) s true (Json.validate s = Ok ()) in
  good "null";
  good "-12.5e-3";
  good "[]";
  good "{}";
  good "  [ 1 , 2.5 , \"x\\u00e9\" , { \"k\" : [ true , false , null ] } ]  "

let prop_generated_json_always_valid =
  QCheck.Test.make ~name:"builder output always validates" ~count:200
    QCheck.(
      pair (small_list (pair small_string small_int)) (small_list (option (pair bool small_string))))
    (fun (fields, items) ->
      let v =
        Json.Obj
          (List.map (fun (k, i) -> (k, Json.Int i)) fields
          @ [
              ( "items",
                Json.List
                  (List.map
                     (function
                       | None -> Json.Null
                       | Some (b, s) -> Json.Obj [ ("b", Json.Bool b); ("s", Json.String s) ])
                     items) );
            ])
      in
      Json.validate (Json.to_string v) = Ok ()
      && Json.validate (Json.to_string ~indent:3 v) = Ok ())

(* --- the streaming renderer against the original tree walker ------------- *)

let tricky_char =
  QCheck.Gen.(
    frequency
      [
        (6, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\001'; '\031'; '\127'; '\255'; ' ' ]);
        (1, map Char.chr (int_bound 255));
      ])

(* Mostly short strings, sometimes a payload-sized one. *)
let tricky_string =
  QCheck.Gen.(
    frequency
      [
        (12, string_size ~gen:tricky_char (int_bound 24));
        (1, string_size ~gen:tricky_char (int_range 4000 6000));
      ])

let tricky_float =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              0.0; -0.0; Float.nan; infinity; neg_infinity; 1e15; -1e15; 1e15 -. 1.0;
              999999999999999.5; 0.1; -2.5; 1e-300; 5e-324; max_float; 4096.0; -4096.0;
            ] );
        (3, float);
        (2, map float_of_int int);
        (2, map (fun i -> float_of_int i /. 8.0) small_signed_int);
      ])

let tricky_int =
  QCheck.Gen.(
    frequency
      [
        (3, small_signed_int);
        (2, int);
        (2, oneofl [ min_int; max_int; 0; -1; 4095; 4096; -4096; 9; 10 ]);
        (2, int_range 4096 10_000_000);
        (2, int_range (-10_000_000) (-1));
      ])

let json_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) tricky_int;
                 map (fun x -> Json.Float x) tricky_float;
                 map (fun s -> Json.String s) tricky_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun items -> Json.List items) (list_size (int_bound 5) (self (n / 3))));
                 ( 1,
                   map
                     (fun fields -> Json.Obj fields)
                     (list_size (int_bound 5) (pair tricky_string (self (n / 3)))) );
               ]))

let prop_render_matches_oracle =
  QCheck.Test.make ~name:"to_string == tree-walking oracle (indent 0 and 2)" ~count:500
    (QCheck.make ~print:(fun v -> Noc_oracle.Json_oracle.to_string v) json_tree)
    (fun v ->
      String.equal (Json.to_string v) (Noc_oracle.Json_oracle.to_string v)
      && String.equal (Json.to_string ~indent:2 v) (Noc_oracle.Json_oracle.to_string ~indent:2 v)
      && String.equal (Json.to_line v) (Noc_oracle.Json_oracle.to_string v ^ "\n"))

let prop_escape_matches_oracle =
  QCheck.Test.make ~name:"escape == oracle escape" ~count:500
    (QCheck.make ~print:String.escaped tricky_string)
    (fun s -> String.equal (Json.escape s) (Noc_oracle.Json_oracle.escape s))

(* --- design exports -------------------------------------------------------- *)

let sample_design () =
  let config = { Config.default with nis_per_switch = 1 } in
  match DF.run ~config (DF.spec_of_use_cases ~name:"export-sample" SD.example1_use_cases) with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let test_design_json_valid_and_complete () =
  let d = sample_design () in
  let s = Export.design_to_string d in
  (match Json.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun key -> Alcotest.(check bool) ("has " ^ key) true (contains s ("\"" ^ key ^ "\"")))
    [ "name"; "config"; "mesh"; "placement"; "routes"; "groups"; "verification"; "slot_starts" ]

let test_mapping_json_counts () =
  let d = sample_design () in
  let m = d.DF.mapping in
  let exported =
    match Json.parse (Export.design_to_string d) with
    | Ok doc -> Json.member "mapping" doc
    | Error msg -> Alcotest.fail msg
  in
  match exported with
  | Some (Json.Obj fields) ->
    (match List.assoc "routes" fields with
    | Json.List routes ->
      Alcotest.(check int) "all routes exported" (List.length m.Noc_core.Mapping.routes)
        (List.length routes)
    | _ -> Alcotest.fail "routes not a list");
    (match List.assoc "placement" fields with
    | Json.List cells ->
      Alcotest.(check int) "placement length" 4 (List.length cells)
    | _ -> Alcotest.fail "placement not a list")
  | _ -> Alcotest.fail "mapping not an object"

let test_dot_topology_well_formed () =
  let d = sample_design () in
  let s = Dot.topology d.DF.mapping in
  Alcotest.(check bool) "digraph" true (contains s "digraph");
  Alcotest.(check bool) "closes" true (String.length s > 0 && contains s "}");
  (* one node line per switch *)
  for sw = 0 to Noc_core.Mapping.switch_count d.DF.mapping - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "switch %d present" sw)
      true
      (contains s (Printf.sprintf "s%d [label=" sw))
  done

let test_dot_use_case_heat () =
  let d = sample_design () in
  let s = Dot.use_case d.DF.mapping ~use_case:0 in
  Alcotest.(check bool) "labelled" true (contains s "use-case 0");
  Alcotest.(check bool) "utilization labels" true (contains s "%\"");
  Alcotest.(check bool) "rejects bad id" true
    (try
       ignore (Dot.use_case d.DF.mapping ~use_case:99);
       false
     with Invalid_argument _ -> true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_generated_json_always_valid; prop_render_matches_oracle; prop_escape_matches_oracle ]

let () =
  Alcotest.run "noc_export"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "nan/inf" `Quick test_json_nan_becomes_null;
          Alcotest.test_case "compound" `Quick test_json_compound;
          Alcotest.test_case "roundtrip validity" `Quick test_json_roundtrip_validity;
          Alcotest.test_case "validator rejects" `Quick test_json_validator_rejects;
          Alcotest.test_case "validator accepts" `Quick test_json_validator_accepts;
        ] );
      ( "design",
        [
          Alcotest.test_case "json valid and complete" `Quick test_design_json_valid_and_complete;
          Alcotest.test_case "mapping counts" `Quick test_mapping_json_counts;
          Alcotest.test_case "dot topology" `Quick test_dot_topology_well_formed;
          Alcotest.test_case "dot use-case heat" `Quick test_dot_use_case_heat;
        ] );
      ("properties", qcheck_cases);
    ]
