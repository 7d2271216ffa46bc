(* The one JSON codec for every artifact the repo writes or reads back.

   Producers (Chrome traces, BENCH_v1, COMPAT_v1, lint reports,
   QUERY_v1, the HPMJ journal) each keep their own key order and
   whitespace — that layout is the artifact's byte contract — but take
   every string from {!str} and every number from {!num}, so there is
   one escaper and one number syntax; the Prometheus exposition takes
   its numbers from {!num} too.  {!parse} reads any of them back: it
   accepts standard JSON (objects, arrays, strings, numbers, booleans,
   null) but refuses a number literal that overflows to an infinity,
   which no producer can write. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let skip_ws p =
  let rec go () =
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') -> p.pos <- p.pos + 1; go ()
    | _ -> ()
  in
  go ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> p.pos <- p.pos + 1
  | Some c' -> fail "json: expected '%c' but found '%c' at byte %d" c c' p.pos
  | None -> fail "json: expected '%c' but input ended" c

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = word then (
    p.pos <- p.pos + n;
    value)
  else fail "json: bad literal at byte %d" p.pos

let parse_string_body p =
  expect p '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail "json: unterminated string"
    | Some '"' -> p.pos <- p.pos + 1; Buffer.contents b
    | Some '\\' -> (
        p.pos <- p.pos + 1;
        match peek p with
        | None -> fail "json: unterminated escape"
        | Some 'n' -> p.pos <- p.pos + 1; Buffer.add_char b '\n'; go ()
        | Some 't' -> p.pos <- p.pos + 1; Buffer.add_char b '\t'; go ()
        | Some 'r' -> p.pos <- p.pos + 1; Buffer.add_char b '\r'; go ()
        | Some 'b' -> p.pos <- p.pos + 1; Buffer.add_char b '\b'; go ()
        | Some 'f' -> p.pos <- p.pos + 1; Buffer.add_char b '\012'; go ()
        | Some '"' -> p.pos <- p.pos + 1; Buffer.add_char b '"'; go ()
        | Some '\\' -> p.pos <- p.pos + 1; Buffer.add_char b '\\'; go ()
        | Some '/' -> p.pos <- p.pos + 1; Buffer.add_char b '/'; go ()
        | Some 'u' ->
            p.pos <- p.pos + 1;
            if p.pos + 4 > String.length p.src then fail "json: truncated \\u";
            let hex = String.sub p.src p.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "json: bad \\u escape %S" hex
            in
            p.pos <- p.pos + 4;
            (* byte-oriented: BMP codepoints fold to UTF-8 bytes *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then (
              Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f))))
            else (
              Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f))));
            go ()
        | Some c -> fail "json: bad escape '\\%c'" c)
    | Some c -> p.pos <- p.pos + 1; Buffer.add_char b c; go ()
  in
  go ()

let parse_number p =
  let start = p.pos in
  let rec go () =
    match peek p with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> p.pos <- p.pos + 1; go ()
    | _ -> ()
  in
  go ();
  if p.pos = start then fail "json: expected number at byte %d" start;
  let raw = String.sub p.src start (p.pos - start) in
  match float_of_string_opt raw with
  | Some f when Float.is_finite f -> Num f
  | Some _ -> fail "json: number %s overflows" raw
  | None -> fail "json: bad number %S" raw

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail "json: unexpected end of input"
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then (p.pos <- p.pos + 1; Obj [])
      else
        let rec fields acc =
          skip_ws p;
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' -> p.pos <- p.pos + 1; fields ((k, v) :: acc)
          | Some '}' -> p.pos <- p.pos + 1; Obj (List.rev ((k, v) :: acc))
          | Some c -> fail "json: unexpected '%c' in object" c
          | None -> fail "json: unterminated object"
        in
        fields []
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then (p.pos <- p.pos + 1; Arr [])
      else
        let rec elems acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' -> p.pos <- p.pos + 1; elems (v :: acc)
          | Some ']' -> p.pos <- p.pos + 1; Arr (List.rev (v :: acc))
          | Some c -> fail "json: unexpected '%c' in array" c
          | None -> fail "json: unterminated array"
        in
        elems []
  | Some '"' -> Str (parse_string_body p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some _ -> parse_number p

let parse (s : string) : t =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail "json: trailing bytes at %d" p.pos;
  v

(* --- accessors ---------------------------------------------------- *)

(** Field of an object; [Null] when absent or not an object. *)
let member (k : string) (v : t) : t =
  match v with
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_float_opt = function Num f -> Some f | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None

let to_float ?(default = 0.0) v =
  match to_float_opt v with Some f -> f | None -> default

let to_int ?(default = 0) v =
  match to_float_opt v with Some f -> int_of_float f | None -> default

let to_string ?(default = "") v =
  match to_string_opt v with Some s -> s | None -> default

(* --- writers --------------------------------------------------- *)

(** [s] as a quoted JSON string.  Quote, backslash and control bytes are
    escaped; every other byte passes through, so [parse (str s)] is
    [Str s] for any byte string. *)
let str (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** The one number syntax of every exported artifact: integral values
    print with no fraction, everything else as 9 significant digits.
    Printf is deterministic, so same numbers give the same bytes.
    @raise Invalid_argument on NaN or an infinity, which JSON cannot
    carry — a bad value fails where it is written, not where it is read. *)
let num (f : float) : string =
  if not (Float.is_finite f) then invalid_arg "Json.num: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f
