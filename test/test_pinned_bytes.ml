(* Today's bytes, pinned: the MD5 of what the CLI writes for the
   paper's four designs — `certify --json`, `map --json` and the
   `map --dump` mapping — at the default configuration and at four NIs
   per switch.  The references were recorded with the tree-walking
   serializers of commit c954cc722933853fbd07b1bcffdecf347b7015fa;
   the streaming serializers must reproduce them byte for byte.

   Run by dune with the nocmap executable as the only argument. *)

let pinned =
  (* (design, NIs per switch or None for the default,
      certify --json, map --json, map --dump) *)
  [
    ( "d1", None,
      "5cd1c19f3c26074208a516d3d71fb651",
      "d5edb1ed9693923196dbdafc51a57151",
      "9b909a690b4995781438af0f086191bf" );
    ( "d2", None,
      "dead528872c74b69006e55c27ed0458f",
      "565e6bfbb0517a8d0553ade221a5599e",
      "f968d2cada051b39df0dca8ddfd70609" );
    ( "d3", None,
      "6d987bd733337a1729b513388190b75a",
      "f3bd483fe7da0842b85600e4b9fec244",
      "1e583cc8c67fbc4118fb402986c5429d" );
    ( "d4", None,
      "101e1675911103689a6a6d45df7e9bfd",
      "11a4febbdefcbdf7319decd2d15cf976",
      "98166949dd30d9b43fe4ad083ac0857b" );
    ( "d1", Some 4,
      "fdef584ebb6d3495e7825598810fcf63",
      "ad2965d869560a0b416d055f76aa2d76",
      "2aaa920e12e792800b795406d8818636" );
    ( "d2", Some 4,
      "1cb057139707f3e1706310fbe1298e90",
      "475146510b7240b2397ed875bf39ef79",
      "34a1914ec85490764e14fdfb88fa687a" );
    ( "d3", Some 4,
      "009e079aee2853b31b030306736e5d12",
      "e80d0e7a6ba813cf624d283588ad8026",
      "b1cfe540de60d26771d65c9ca898ac54" );
    ( "d4", Some 4,
      "dcf58cf83e3710425eb7aeecee9e4a13",
      "c803a79df3e359737e393f4b2e857e54",
      "1008b737fc8fdc1986209b7268385011" );
  ]

let md5 s = Digest.to_hex (Digest.string s)

(* Run [exe args], return its stdout; any non-zero exit fails. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "%s %s failed" exe (String.concat " " args)

let read file = In_channel.with_open_bin file In_channel.input_all

let case exe (design, nis, cert_md5, map_md5, dump_md5) =
  let config = match nis with None -> [] | Some n -> [ "--nis-per-switch"; string_of_int n ] in
  let label = design ^ match nis with None -> "" | Some n -> Printf.sprintf " nis=%d" n in
  Alcotest.test_case label `Quick (fun () ->
      let json = Filename.temp_file "pinned" ".json" in
      let dump = Filename.temp_file "pinned" ".dump" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ json; dump ])
        (fun () ->
          Alcotest.(check string) "certify --json" cert_md5
            (md5 (run exe ([ "certify"; design; "--json" ] @ config)));
          ignore (run exe ([ "map"; design; "--json"; json; "--dump"; dump ] @ config));
          Alcotest.(check string) "map --json" map_md5 (md5 (read json));
          Alcotest.(check string) "map --dump" dump_md5 (md5 (read dump))))

let () =
  let exe = Sys.argv.(1) in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "pinned_bytes" [ ("cli", List.map (case exe) pinned) ]
