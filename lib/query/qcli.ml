(* `hpmrun query` / `migratec query`: the fleet console.

   REPORT is a canned report (top-churn, dedup, handoff-p99,
   gc-candidates, promotions) or a base table (manifests, chunks,
   journal, spans, metrics, bench); the --select/--where/--group-by/
   --order-by/--limit flags compose an ad-hoc pipeline on top.  See
   docs/QUERY.md. *)

open Cmdliner
module Json = Hpm_obs.Json

(* ------------------------------------------------------------------ *)
(* Flag-pipeline parsing                                               *)
(* ------------------------------------------------------------------ *)

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* "col", "count", or "fn:col" with fn in count/sum/min/max/avg/pNN *)
let parse_select_item (item : string) : string * [ `Col of string | `Agg of Rel.agg ] =
  match String.index_opt item ':' with
  | None ->
      if item = "count" then ("count", `Agg Rel.Count) else (item, `Col item)
  | Some i ->
      let fn = String.sub item 0 i in
      let col = String.sub item (i + 1) (String.length item - i - 1) in
      let out = fn ^ "_" ^ col in
      let agg =
        match fn with
        | "count" -> Rel.Count
        | "sum" -> Rel.Sum col
        | "min" -> Rel.Min col
        | "max" -> Rel.Max col
        | "avg" -> Rel.Avg col
        | _ when String.length fn > 1 && fn.[0] = 'p' -> (
            match int_of_string_opt (String.sub fn 1 (String.length fn - 1)) with
            | Some p when p >= 0 && p <= 100 -> Rel.Percentile (p, col)
            | _ -> Rel.err "bad aggregate %S (use count,sum,min,max,avg,pNN)" fn)
        | _ -> Rel.err "bad aggregate %S (use count,sum,min,max,avg,pNN)" fn
      in
      (out, `Agg agg)

let parse_order_item (item : string) : string * [ `Asc | `Desc ] =
  match String.index_opt item ':' with
  | None -> (item, `Asc)
  | Some i -> (
      let col = String.sub item 0 i in
      match String.sub item (i + 1) (String.length item - i - 1) with
      | "asc" -> (col, `Asc)
      | "desc" -> (col, `Desc)
      | d -> Rel.err "bad sort direction %S (use asc or desc)" d)

let parse_literal (s : string) : Rel.cell =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then Rel.Str (String.sub s 1 (n - 2))
  else
    match s with
    | "null" -> Rel.Null
    | "true" -> Rel.Bool true
    | "false" -> Rel.Bool false
    | _ -> (
        match int_of_string_opt s with
        | Some i -> Rel.Int i
        | None -> (
            match float_of_string_opt s with
            | Some f -> Rel.Float f
            | None -> Rel.Str s))

let ops = [ "<="; ">="; "!="; "=="; "="; "<"; ">"; "~" ]

(* "col OP literal" — operators tried longest-first at any position *)
let parse_where (expr : string) : string * string * Rel.cell =
  let found = ref None in
  List.iter
    (fun op ->
      if !found = None then
        let oplen = String.length op in
        let limit = String.length expr - oplen in
        let rec scan i =
          if i > limit then ()
          else if String.sub expr i oplen = op then found := Some (i, op)
          else scan (i + 1)
        in
        scan 0)
    ops;
  match !found with
  | None -> Rel.err "bad --where %S (expected: col OP value)" expr
  | Some (i, op) ->
      let col = String.trim (String.sub expr 0 i) in
      let rhs =
        String.trim
          (String.sub expr (i + String.length op)
             (String.length expr - i - String.length op))
      in
      if col = "" then Rel.err "bad --where %S: missing column" expr;
      (col, op, parse_literal rhs)

let where_pred (t : Rel.t) (col, op, lit) : Rel.cell array -> bool =
  let idx = Rel.col_index t col in
  match op with
  | "~" -> (
      fun r ->
        match (r.(idx), lit) with
        | Rel.Str s, Rel.Str sub ->
            let n = String.length sub and m = String.length s in
            n = 0
            || (let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
                go 0)
        | _ -> false)
  | _ ->
      let test =
        match op with
        | "=" | "==" -> fun c -> c = 0
        | "!=" -> fun c -> c <> 0
        | "<" -> fun c -> c < 0
        | "<=" -> fun c -> c <= 0
        | ">" -> fun c -> c > 0
        | ">=" -> fun c -> c >= 0
        | _ -> assert false
      in
      fun r -> test (Rel.compare_cells r.(idx) lit)

(** Apply the composable flag pipeline to a base table. *)
let apply_pipeline ~select ~where ~group_by ~order_by ~limit (t : Rel.t) : Rel.t =
  let t = List.fold_left (fun t w -> Rel.filter (where_pred t (parse_where w)) t) t where in
  let items = match select with None -> [] | Some s -> List.map parse_select_item (split_commas s) in
  let aggs = List.filter_map (function n, `Agg a -> Some (n, a) | _ -> None) items in
  let plain = List.filter_map (function n, `Col c -> Some (n, c) | _ -> None) items in
  let by = match group_by with None -> [] | Some g -> split_commas g in
  let t =
    if aggs <> [] then (
      List.iter
        (fun (_, c) ->
          if not (List.mem c by) then
            Rel.err "--select column %S must appear in --group-by when aggregating" c)
        plain;
      Rel.group ~by ~aggs t)
    else if by <> [] then
      Rel.err "--group-by needs aggregate --select items (count, sum:col, ...)"
    else match select with None -> t | Some _ -> Rel.project (List.map snd plain) t
  in
  let t =
    match order_by with
    | None -> t
    | Some o -> Rel.sort (List.map parse_order_item (split_commas o)) t
  in
  match limit with None -> t | Some n -> Rel.limit n t

(* ------------------------------------------------------------------ *)
(* The cmdliner command                                                *)
(* ------------------------------------------------------------------ *)

let run_query report store_dir journal trace metrics bench select where group_by
    order_by limit format keep_last keep_days =
  try
    let s = Report.of_paths ?store_dir ?journal ?trace ?metrics ?bench () in
    let t = Report.run ~keep_last ?keep_days s report in
    let t = apply_pipeline ~select ~where ~group_by ~order_by ~limit t in
    (match format with
    | `Text -> print_string (Rel.to_text t)
    | `Json -> print_string (Rel.to_json ~report t));
    0
  with
  | Rel.Error m | Json.Error m ->
      Printf.eprintf "query: %s\n" m;
      2
  | Hpm_store.Journal.Corrupt m | Hpm_store.Store.Corrupt m ->
      Printf.eprintf "query: corrupt input: %s\n" m;
      1
  | Hpm_store.Store.Error m ->
      Printf.eprintf "query: store error: %s\n" m;
      1

let report_arg =
  let doc =
    "Canned report (top-churn, dedup, handoff-p99, gc-candidates, \
     promotions) or base table (manifests, chunks, journal, spans, \
     metrics, bench)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"REPORT" ~doc)

let store_dir_arg =
  Arg.(value & opt (some dir) None
       & info [ "store-dir" ] ~docv:"DIR" ~doc:"Checkpoint store root directory.")

let journal_arg =
  Arg.(value & opt (some file) None
       & info [ "journal" ] ~docv:"FILE" ~doc:"HPMJ fleet journal (docs/FORMAT.md).")

let trace_arg =
  Arg.(value & opt (some file) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Chrome trace JSON written by --trace.")

let metrics_arg =
  Arg.(value & opt (some file) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Prometheus metrics snapshot written by --metrics.")

let bench_arg =
  Arg.(value & opt (some file) None
       & info [ "bench" ] ~docv:"FILE" ~doc:"BENCH_v1 JSON document.")

let select_arg =
  Arg.(value & opt (some string) None
       & info [ "select" ] ~docv:"COLS"
           ~doc:"Columns to keep, or aggregates (count, sum:col, min:col, \
                 max:col, avg:col, pNN:col), comma-separated.")

let where_arg =
  Arg.(value & opt_all string []
       & info [ "where" ] ~docv:"EXPR"
           ~doc:"Row filter \"col OP value\" with OP one of = == != < <= > \
                 >= ~ (substring). Repeatable; filters AND together.")

let group_by_arg =
  Arg.(value & opt (some string) None
       & info [ "group-by" ] ~docv:"COLS"
           ~doc:"Grouping key columns for aggregate --select items.")

let order_by_arg =
  Arg.(value & opt (some string) None
       & info [ "order-by" ] ~docv:"COLS"
           ~doc:"Sort keys, each col or col:desc, comma-separated.")

let limit_arg =
  Arg.(value & opt (some int) None
       & info [ "limit" ] ~docv:"N" ~doc:"Keep only the first N rows.")

let format_arg =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: text table or QUERY_v1 json.")

let keep_last_arg =
  Arg.(value & opt int 3
       & info [ "keep-last" ] ~docv:"N"
           ~doc:"gc-candidates: newest epochs per process to retain.")

let keep_days_arg =
  Arg.(value & opt (some float) None
       & info [ "keep-days" ] ~docv:"D"
           ~doc:"gc-candidates: also retain epochs the journal dates within \
                 D simulated days.")

let term =
  Term.(
    const run_query $ report_arg $ store_dir_arg $ journal_arg $ trace_arg
    $ metrics_arg $ bench_arg $ select_arg $ where_arg $ group_by_arg
    $ order_by_arg $ limit_arg $ format_arg $ keep_last_arg $ keep_days_arg)

let info =
  Cmd.info "query" ~doc:"Interrogate store, journal, trace, metrics and bench artifacts."
    ~man:
      [
        `S Manpage.s_description;
        `P
          "A typed relational pipeline over the fleet's on-disk artifacts. \
           Canned reports answer the standing operational questions; the \
           --select/--where/--group-by/--order-by/--limit flags compose \
           ad-hoc queries over the base tables. Output is deterministic: \
           same inputs, same bytes. See docs/QUERY.md.";
      ]

let cmd : int Cmd.t = Cmd.v info term
