(* Typed relational core.

   A table is a named schema (ordered columns, each [Tint|Tfloat|Tstr|
   Tbool]) plus rows of cells; operators are the classical pipeline
   [scan -> filter -> project -> group/aggregate -> sort -> limit ->
   join].  Everything is deterministic by construction: group keys and
   sort orders use one total order over cells, sorts are stable, and
   the two renderers (text table, QUERY_v1 JSON) fix column order and
   float formatting — so the same inputs always produce the same
   bytes, which is what lets CI `cmp` two runs of a report.

   The module keeps global work counters (rows materialized, cells
   touched) feeding [Obs.Model.query_s], the management-plane entry in
   the bench trajectory. *)

module Json = Hpm_obs.Json

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type cell =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = Tbool | Tint | Tfloat | Tstr

let ty_name = function
  | Tbool -> "bool"
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstr -> "str"

type schema = (string * ty) list

type t = {
  t_name : string;
  t_schema : schema;
  t_rows : cell array list;
}

(* --- work counters ------------------------------------------------- *)

let rows_scanned = ref 0
let cells_touched = ref 0

let reset_stats () =
  rows_scanned := 0;
  cells_touched := 0

let charge t =
  let n = List.length t.t_rows and w = List.length t.t_schema in
  rows_scanned := !rows_scanned + n;
  cells_touched := !cells_touched + (n * w)

(* --- construction -------------------------------------------------- *)

let make ~name ~schema rows =
  List.iter
    (fun r ->
      if Array.length r <> List.length schema then
        err "table %s: row width %d does not match schema width %d" name
          (Array.length r) (List.length schema))
    rows;
  { t_name = name; t_schema = schema; t_rows = rows }

let name t = t.t_name
let schema t = t.t_schema
let rows t = t.t_rows
let cardinality t = List.length t.t_rows

let col_index t col =
  let rec go i = function
    | [] ->
        err "table %s has no column %S (columns: %s)" t.t_name col
          (String.concat ", " (List.map fst t.t_schema))
    | (c, _) :: _ when c = col -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.t_schema

let col_ty t col = snd (List.nth t.t_schema (col_index t col))

(* --- the total order over cells ------------------------------------ *)

(* Null < Bool < numbers < Str; Int/Float compare numerically (Int on
   the int domain when both sides are Int, to dodge float rounding). *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare_cells (a : cell) (b : cell) : int =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> compare x y
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare (float_of_int x) y
  | Float x, Int y -> compare x (float_of_int y)
  | Str x, Str y -> compare x y
  | _ -> compare (rank a) (rank b)

let compare_rows keys (a : cell array) (b : cell array) : int =
  let rec go = function
    | [] -> 0
    | (idx, dir) :: rest ->
        let c = compare_cells a.(idx) b.(idx) in
        if c <> 0 then (match dir with `Asc -> c | `Desc -> -c) else go rest
  in
  go keys

(* --- numeric views ------------------------------------------------- *)

let cell_num_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

(* --- operators ----------------------------------------------------- *)

(** Identity scan; exists to charge the cost model for a source read. *)
let scan (t : t) : t = charge t; t

let filter (pred : cell array -> bool) (t : t) : t =
  charge t;
  { t with t_rows = List.filter pred t.t_rows }

let project (cols : string list) (t : t) : t =
  if cols = [] then err "project: empty column list";
  let idxs = List.map (col_index t) cols in
  let schema = List.map (fun i -> List.nth t.t_schema i) idxs in
  let n = List.length t.t_rows in
  rows_scanned := !rows_scanned + n;
  cells_touched := !cells_touched + (n * List.length idxs);
  {
    t with
    t_schema = schema;
    t_rows =
      List.map (fun r -> Array.of_list (List.map (fun i -> r.(i)) idxs)) t.t_rows;
  }

(** Append a computed column. *)
let derive ~(col : string) ~(ty : ty) (f : cell array -> cell) (t : t) : t =
  if List.mem_assoc col t.t_schema then
    err "derive: table %s already has a column %S" t.t_name col;
  charge t;
  {
    t with
    t_schema = t.t_schema @ [ (col, ty) ];
    t_rows =
      List.map (fun r -> Array.append r [| f r |]) t.t_rows;
  }

let sort (keys : (string * [ `Asc | `Desc ]) list) (t : t) : t =
  let keys = List.map (fun (c, d) -> (col_index t c, d)) keys in
  charge t;
  { t with t_rows = List.stable_sort (compare_rows keys) t.t_rows }

let limit (n : int) (t : t) : t =
  if n < 0 then err "limit: negative row count";
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  { t with t_rows = take n t.t_rows }

(** Inner equi-join on [(left_col, right_col)] pairs.  Right columns
    are prefixed with the right table's name when they would collide. *)
let join ~(on : (string * string) list) (l : t) (r : t) : t =
  if on = [] then err "join: empty key list";
  let lk = List.map (fun (a, _) -> col_index l a) on in
  let rk = List.map (fun (_, b) -> col_index r b) on in
  charge l;
  charge r;
  (* right key columns are dropped (equal to the left's by definition) *)
  let rks = List.sort_uniq compare rk in
  let keep_idx =
    List.filteri (fun i _ -> not (List.mem i rks))
      (List.mapi (fun i _ -> i) r.t_schema)
  in
  let lnames = List.map fst l.t_schema in
  let rschema =
    List.map
      (fun i ->
        let cn, ty = List.nth r.t_schema i in
        let cn = if List.mem cn lnames then r.t_name ^ "_" ^ cn else cn in
        (cn, ty))
      keep_idx
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) rk in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (row :: prev))
    r.t_rows;
  let rows =
    List.concat_map
      (fun lrow ->
        let key = List.map (fun i -> lrow.(i)) lk in
        match Hashtbl.find_opt tbl key with
        | None -> []
        | Some matches ->
            List.rev_map
              (fun rrow ->
                Array.append lrow
                  (Array.of_list (List.map (fun i -> rrow.(i)) keep_idx)))
              matches)
      l.t_rows
  in
  {
    t_name = l.t_name;
    t_schema = l.t_schema @ rschema;
    t_rows = rows;
  }

(* --- aggregation --------------------------------------------------- *)

type agg =
  | Count
  | Sum of string
  | Min of string
  | Max of string
  | Avg of string
  | Percentile of int * string  (** nearest-rank pNN over non-null values *)

let agg_src = function
  | Count -> None
  | Sum c | Min c | Max c | Avg c | Percentile (_, c) -> Some c

(** Output type of an aggregate over a source column of type [ty]. *)
let agg_ty (t : t) = function
  | Count -> Tint
  | Avg _ -> Tfloat
  | Sum c | Min c | Max c | Percentile (_, c) -> col_ty t c

let nearest_rank (p : int) (sorted : cell array) : cell =
  let n = Array.length sorted in
  if n = 0 then Null
  else
    let rank =
      int_of_float (ceil (float_of_int p /. 100.0 *. float_of_int n))
    in
    let rank = max 1 (min n rank) in
    sorted.(rank - 1)

let apply_agg (t : t) (agg : agg) (rows : cell array list) : cell =
  match agg with
  | Count -> Int (List.length rows)
  | _ ->
      let c = match agg_src agg with Some c -> c | None -> assert false in
      let idx = col_index t c in
      let vals = List.filter_map (fun r -> match r.(idx) with Null -> None | v -> Some v) rows in
      cells_touched := !cells_touched + List.length rows;
      if vals = [] then Null
      else (
        match agg with
        | Count -> assert false
        | Sum _ ->
            let all_int = List.for_all (function Int _ -> true | _ -> false) vals in
            if all_int then
              Int (List.fold_left (fun a v -> match v with Int i -> a + i | _ -> a) 0 vals)
            else
              Float
                (List.fold_left
                   (fun a v -> match cell_num_opt v with Some f -> a +. f | None -> a)
                   0.0 vals)
        | Min _ -> List.fold_left (fun a v -> if compare_cells v a < 0 then v else a) (List.hd vals) (List.tl vals)
        | Max _ -> List.fold_left (fun a v -> if compare_cells v a > 0 then v else a) (List.hd vals) (List.tl vals)
        | Avg _ ->
            let n = List.length vals in
            let s =
              List.fold_left
                (fun a v -> match cell_num_opt v with Some f -> a +. f | None -> a)
                0.0 vals
            in
            Float (s /. float_of_int n)
        | Percentile (p, _) ->
            if p < 0 || p > 100 then err "percentile p%d out of range" p;
            let arr = Array.of_list vals in
            Array.sort compare_cells arr;
            nearest_rank p arr)

(** Group rows by [by] columns and compute [aggs] (each an output
    column name plus an aggregate).  Groups are emitted in ascending
    key order — input order never leaks into the result. *)
let group ~(by : string list) ~(aggs : (string * agg) list) (t : t) : t =
  charge t;
  let by_idx = List.map (col_index t) by in
  (* validate aggregate source columns up front *)
  List.iter
    (fun (_, a) -> match agg_src a with Some c -> ignore (col_index t c) | None -> ())
    aggs;
  let groups : (cell list, cell array list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) by_idx in
      (match Hashtbl.find_opt groups key with
      | None ->
          order := key :: !order;
          Hashtbl.replace groups key [ row ]
      | Some rs -> Hashtbl.replace groups key (row :: rs)))
    t.t_rows;
  let keys =
    List.sort
      (fun a b ->
        let rec go = function
          | [], [] -> 0
          | x :: xs, y :: ys ->
              let c = compare_cells x y in
              if c <> 0 then c else go (xs, ys)
          | _ -> 0
        in
        go (a, b))
      !order
  in
  let schema =
    List.map (fun c -> (c, col_ty t c)) by
    @ List.map (fun (n, a) -> (n, agg_ty t a)) aggs
  in
  let rows =
    List.map
      (fun key ->
        let rs = List.rev (Hashtbl.find groups key) in
        Array.of_list
          (key @ List.map (fun (_, a) -> apply_agg t a rs) aggs))
      keys
  in
  { t_name = t.t_name; t_schema = schema; t_rows = rows }

(* --- rendering ----------------------------------------------------- *)

(* A Prometheus source can carry NaN or an infinity: the text table
   shows them as OCaml prints them, QUERY_v1 as [null]. *)
let cell_text = function
  | Null -> "-"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Json.num f
  | Float f -> string_of_float f
  | Str s -> s

let is_numeric_ty = function Tint | Tfloat -> true | Tbool | Tstr -> false

(** Deterministic fixed-width text table: header, rule, rows, row
    count.  Numeric columns right-align; widths derive only from the
    rendered cells. *)
let to_text (t : t) : string =
  let cols = Array.of_list t.t_schema in
  let ncols = Array.length cols in
  let header = Array.map fst cols in
  let body =
    List.map (fun r -> Array.map cell_text r) t.t_rows
  in
  let widths = Array.map String.length header in
  List.iter
    (fun r ->
      Array.iteri (fun i s -> if String.length s > widths.(i) then widths.(i) <- String.length s) r)
    body;
  let b = Buffer.create 256 in
  let pad i s right =
    let w = widths.(i) and n = String.length s in
    let fill = String.make (w - n) ' ' in
    if right then (Buffer.add_string b fill; Buffer.add_string b s)
    else (Buffer.add_string b s; Buffer.add_string b fill)
  in
  let emit_row r =
    Array.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string b "  ";
        pad i s (is_numeric_ty (snd cols.(i))))
      r;
    (* strip right padding so lines never end in spaces *)
    let len = Buffer.length b in
    let rec rstrip k = if k > 0 && Buffer.nth b (k - 1) = ' ' then rstrip (k - 1) else k in
    let k = rstrip len in
    let line = Buffer.sub b 0 k in
    Buffer.clear b;
    Buffer.add_string b line;
    Buffer.add_char b '\n'
  in
  emit_row header;
  emit_row (Array.init ncols (fun i -> String.make widths.(i) '-'));
  List.iter emit_row body;
  Buffer.add_string b
    (Printf.sprintf "(%d row%s)\n" (List.length body)
       (if List.length body = 1 then "" else "s"));
  Buffer.contents b

let cell_json = function
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Json.num f
  | Null | Float _ -> "null"
  | Str s -> Json.str s

(** Versioned QUERY_v1 document: canonical key order, columns in
    schema order, rows as arrays — `jq`-checkable and `cmp`-stable. *)
let to_json ?(report : string option) (t : t) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"schema\":\"QUERY_v1\",\"version\":1,";
  Buffer.add_string b
    (Printf.sprintf "\"report\":%s,"
       (Json.str (match report with Some r -> r | None -> t.t_name)));
  Buffer.add_string b "\"columns\":[";
  List.iteri
    (fun i (c, ty) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":%s,\"type\":%s}" (Json.str c)
           (Json.str (ty_name ty))))
    t.t_schema;
  Buffer.add_string b "],\"rows\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      Array.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (cell_json c))
        r;
      Buffer.add_char b ']')
    t.t_rows;
  Buffer.add_string b "]}\n";
  Buffer.contents b
