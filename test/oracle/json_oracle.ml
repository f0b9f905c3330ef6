(* The original JSON renderer: one [Buffer.add_string] per escaped
   character, [Printf] for every number, a fresh buffer per string. *)

module Json = Noc_export.Json

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_nan x || Float.abs x = infinity then "null"
  else Printf.sprintf "%.12g" x

let to_string ?(indent = 0) v =
  let buf = Buffer.create 1024 in
  let pad depth = if indent > 0 then Buffer.add_string buf (String.make (depth * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Json.Float x -> Buffer.add_string buf (float_repr x)
    | Json.String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Json.List [] -> Buffer.add_string buf "[]"
    | Json.List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Json.Obj [] -> Buffer.add_string buf "{}"
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (depth + 1) item)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf
