type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering ------------------------------------------------------------ *)

(* The escape sequence of each byte: quote, backslash, \n, \r and \t
   by name, other control characters as \u00XX, "" for every byte JSON
   strings carry verbatim. *)
let escapes =
  Array.init 256 (fun i ->
      match Char.chr i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ when i < 0x20 -> Printf.sprintf "\\u%04x" i
      | _ -> "")

let escape_of c = Array.unsafe_get escapes (Char.code c)

(* How many bytes each byte grows by when escaped (0 = verbatim). *)
let growth = Bytes.init 256 (fun i -> Char.unsafe_chr (max 0 (String.length escapes.(i) - 1)))

let grows c = Char.code (Bytes.unsafe_get growth (Char.code c))

(* Two passes into an exact-size result: count the growth, then fill
   byte by byte (a pretty-printed payload escapes every few bytes, too
   often for blits to pay).  A string that needs no escaping is
   returned as is. *)
let escape s =
  let n = String.length s in
  let grow = ref 0 in
  for i = 0 to n - 1 do
    grow := !grow + grows (String.unsafe_get s i)
  done;
  if !grow = 0 then s
  else begin
    let out = Bytes.create (n + !grow) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if grows c = 0 then begin
        Bytes.unsafe_set out !j c;
        incr j
      end
      else begin
        let e = escape_of c in
        for m = 0 to String.length e - 1 do
          Bytes.unsafe_set out (!j + m) (String.unsafe_get e m)
        done;
        j := !j + String.length e
      end
    done;
    Bytes.unsafe_to_string out
  end

(* The C conversion behind Printf's "%.12g", without the format
   interpreter around it. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral floats print as "%.1f" (exactly the integer digits plus
   ".0" below 1e15, "-0.0" kept), NaN and infinities as null, the rest
   as "%.12g". *)
let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then begin
    if Float.sign_bit x && x = 0.0 then Buffer.add_char buf '-';
    Noc_util.Numeric.add_int buf (int_of_float x);
    Buffer.add_string buf ".0"
  end
  else if Float.is_nan x || Float.abs x = infinity then Buffer.add_string buf "null"
  else Buffer.add_string buf (format_float "%.12g" x)

type writer = {
  buf : Buffer.t;
  indent : int;
  mutable depth : int;
  mutable first : bool;  (** nothing written yet in the innermost open container *)
}

let writer ?(indent = 0) size = { buf = Buffer.create size; indent; depth = 0; first = true }

let contents w = Buffer.contents w.buf

let spaces = String.make 128 ' '

let add_pad w =
  let n = ref (w.depth * w.indent) in
  while !n > 0 do
    let k = min !n (String.length spaces) in
    Buffer.add_substring w.buf spaces 0 k;
    n := !n - k
  done

(* Before each member of the open container: the separator, and when
   pretty-printing a newline and the member's indentation. *)
let item w =
  if not w.first then Buffer.add_char w.buf ',';
  if w.indent > 0 then begin
    Buffer.add_char w.buf '\n';
    add_pad w
  end;
  w.first <- false

let open_ w c =
  Buffer.add_char w.buf c;
  w.depth <- w.depth + 1;
  w.first <- true

(* An empty container closes on the same line: "[]", "{}". *)
let close w c =
  w.depth <- w.depth - 1;
  if (not w.first) && w.indent > 0 then begin
    Buffer.add_char w.buf '\n';
    add_pad w
  end;
  Buffer.add_char w.buf c;
  w.first <- false

let obj_open w = open_ w '{'
let obj_close w = close w '}'
let list_open w = open_ w '['
let list_close w = close w ']'

let null w = Buffer.add_string w.buf "null"
let bool w b = Buffer.add_string w.buf (if b then "true" else "false")
let int w i = Noc_util.Numeric.add_int w.buf i
let float w x = add_float w.buf x

(* Keys and most values need no escaping, so [escape] hands them back
   uncopied. *)
let string w s =
  Buffer.add_char w.buf '"';
  Buffer.add_string w.buf (escape s);
  Buffer.add_char w.buf '"'

let field w key =
  item w;
  string w key;
  Buffer.add_string w.buf ": "

let int_field w key i =
  field w key;
  int w i

let float_field w key x =
  field w key;
  float w x

let string_field w key s =
  field w key;
  string w s

let bool_field w key b =
  field w key;
  bool w b

let list w f xs =
  list_open w;
  List.iter
    (fun x ->
      item w;
      f w x)
    xs;
  list_close w

let rec value w = function
  | Null -> null w
  | Bool b -> bool w b
  | Int i -> int w i
  | Float x -> float w x
  | String s -> string w s
  | List items -> list w value items
  | Obj fields ->
    obj_open w;
    List.iter
      (fun (k, v) ->
        field w k;
        value w v)
      fields;
    obj_close w

(* Room for the top-level strings up front, so a protocol line around a
   large payload starts near its final size while a small one stays
   small. *)
let size_hint v =
  let shallow = function String s -> String.length s + 8 | _ -> 32 in
  match v with
  | Obj fields -> List.fold_left (fun acc (k, v) -> acc + String.length k + shallow v) 16 fields
  | v -> shallow v

let to_string ?indent v =
  let w = writer ?indent (size_hint v) in
  value w v;
  contents w

let to_line v =
  let w = writer (size_hint v + 1) in
  value w v;
  Buffer.add_char w.buf '\n';
  contents w

(* --- strict syntax validation ------------------------------------------- *)

exception Bad of string

let validate text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let error msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let string_body () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> error "bad unicode escape"
          done
        | _ -> error "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> error "control character in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then error "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> string_body ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec fields () =
          skip_ws ();
          string_body ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ()
          | Some '}' -> advance ()
          | _ -> error "expected ',' or '}'"
        in
        fields ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec items () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items ()
          | Some ']' -> advance ()
          | _ -> error "expected ',' or ']'"
        in
        items ()
      end
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> error "expected a value"
  in
  try
    value ();
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing content at offset %d" !pos) else Ok ()
  with Bad msg -> Error msg

(* --- parsing ------------------------------------------------------------- *)

(* Same grammar as [validate], but building the value: the CLI reads
   back its own exports (trace/metrics files, explore points) through
   this.  Numbers parse as [Int] when they are integral int literals
   and as [Float] otherwise, matching what [to_string] emits. *)
let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let error msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word = String.iter (fun c -> expect c) word in
  let hex_digit () =
    match peek () with
    | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
    | _ -> error "bad unicode escape"
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'u' ->
          advance ();
          let start = !pos in
          for _ = 1 to 4 do
            hex_digit ()
          done;
          let code = int_of_string ("0x" ^ String.sub text start 4) in
          (* Keep the exporter's byte-level round trip: BMP code points
             re-encode as UTF-8; we only ever emit \u00XX ourselves. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> error "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> error "control character in string"
      | Some _ ->
        (* A run of plain characters, copied in one blit. *)
        let start = !pos in
        while !pos < n && grows (String.unsafe_get text !pos) = 0 do
          incr pos
        done;
        Buffer.add_substring buf text start (!pos - start);
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then error "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      is_float := true;
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let lexeme = String.sub text start (!pos - start) in
    if !is_float then Float (float_of_string lexeme)
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> Float (float_of_string lexeme)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (string_body ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        List (items [])
      end
    | Some 't' ->
      literal "true";
      Bool true
    | Some 'f' ->
      literal "false";
      Bool false
    | Some 'n' ->
      literal "null";
      Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> error "expected a value"
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing content at offset %d" !pos) else Ok v
  with Bad msg -> Error msg

(* Object-walking helpers for consumers of parsed documents. *)
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
