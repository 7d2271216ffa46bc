(** The observability layer: metrics registry, trace buffer, and the
    guarantees that matter — instrumentation is inert without a sink,
    deterministic with one, and the exported numbers are the same
    counters the stats records already carry. *)

open Hpm_core
open Hpm_net
open Util
module Obs = Hpm_obs.Obs
module Json = Hpm_obs.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let with_sinks f =
  Obs.reset ();
  let tr = Obs.Trace.create () and reg = Obs.Metrics.create () in
  Obs.set_trace (Some tr);
  Obs.set_metrics (Some reg);
  Fun.protect ~finally:Obs.reset (fun () -> f tr reg)

(* ---- metrics registry ---- *)

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.inc m "hpm_msrlt_searches_total" [];
  Obs.Metrics.inc m ~by:41.0 "hpm_msrlt_searches_total" [];
  check_bool "counter accumulates" true
    (Obs.Metrics.value m "hpm_msrlt_searches_total" [] = Some 42.0);
  check_bool "untouched series absent" true
    (Obs.Metrics.value m "hpm_msrlt_updates_total" [] = None);
  Obs.Metrics.set m "hpm_store_gc_live_chunks" [ ("proc", "p") ] 7.0;
  Obs.Metrics.set m "hpm_store_gc_live_chunks" [ ("proc", "p") ] 3.0;
  check_bool "gauge overwrites" true
    (Obs.Metrics.value m "hpm_store_gc_live_chunks" [ ("proc", "p") ] = Some 3.0);
  Obs.Metrics.observe m "hpm_handoff_time_seconds" [] 0.5;
  Obs.Metrics.observe m "hpm_handoff_time_seconds" [] 2.0;
  check_bool "histogram counts observations" true
    (Obs.Metrics.value m "hpm_handoff_time_seconds" [] = Some 2.0)

let test_label_canonicalisation () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.inc m "hpm_sched_events_total" [ ("b", "2"); ("a", "1") ];
  Obs.Metrics.inc m "hpm_sched_events_total" [ ("a", "1"); ("b", "2") ];
  check_bool "label order does not split the series" true
    (Obs.Metrics.value m "hpm_sched_events_total" [ ("b", "2"); ("a", "1") ] = Some 2.0);
  Obs.Metrics.inc m "hpm_cluster_events_total" [ ("k", "x"); ("k", "y") ];
  check_bool "duplicate keys: first occurrence wins" true
    (Obs.Metrics.value m "hpm_cluster_events_total" [ ("k", "x") ] = Some 1.0)

let test_render_deterministic () =
  let build order =
    let m = Obs.Metrics.create () in
    List.iter (fun (name, ls, v) -> Obs.Metrics.inc m ~by:v name ls) order;
    Obs.Metrics.render m
  in
  let series =
    [
      ("hpm_xdr_encoded_bytes_total", [], 10.0);
      ("hpm_msrlt_searches_total", [ ("proc", "a") ], 1.0);
      ("hpm_msrlt_searches_total", [ ("proc", "b") ], 2.0);
    ]
  in
  let r = build series in
  check_string "insertion order does not change the text" r (build (List.rev series));
  check_bool "TYPE line" true (contains r "# TYPE hpm_msrlt_searches_total counter");
  check_bool "HELP line" true (contains r "# HELP hpm_msrlt_searches_total");
  check_bool "labelled series" true (contains r "hpm_msrlt_searches_total{proc=\"a\"} 1")

let test_histogram_render () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "hpm_handoff_time_seconds" [] 0.05;
  Obs.Metrics.observe m "hpm_handoff_time_seconds" [] 5.0;
  let r = Obs.Metrics.render m in
  check_bool "buckets rendered" true
    (contains r "hpm_handoff_time_seconds_bucket{le=\"0.1\"} 1");
  check_bool "+Inf bucket" true (contains r "le=\"+Inf\"} 2");
  check_bool "sum rendered" true (contains r "hpm_handoff_time_seconds_sum 5.05");
  check_bool "count rendered" true (contains r "hpm_handoff_time_seconds_count 2")

let test_label_escaping () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.inc m "hpm_sched_events_total" [ ("proc", "a\"b\\c\nd") ];
  let r = Obs.Metrics.render m in
  check_bool "quote, backslash, and newline escaped" true
    (contains r "proc=\"a\\\"b\\\\c\\nd\"")

let test_non_finite_samples () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set m "hpm_store_gc_live_bytes" [ ("proc", "a") ] nan;
  Obs.Metrics.set m "hpm_store_gc_live_bytes" [ ("proc", "b") ] infinity;
  Obs.Metrics.set m "hpm_store_gc_live_bytes" [ ("proc", "c") ] neg_infinity;
  Obs.Metrics.observe m "hpm_handoff_time_seconds" [] infinity;
  let r = Obs.Metrics.render m in
  check_bool "NaN gauge" true (contains r "hpm_store_gc_live_bytes{proc=\"a\"} NaN\n");
  check_bool "+Inf gauge" true (contains r "hpm_store_gc_live_bytes{proc=\"b\"} +Inf\n");
  check_bool "-Inf gauge" true (contains r "hpm_store_gc_live_bytes{proc=\"c\"} -Inf\n");
  check_bool "+Inf histogram sum" true (contains r "hpm_handoff_time_seconds_sum +Inf\n");
  let values =
    Hpm_query.Source.metrics_of_string r
    |> Hpm_query.Rel.rows
    |> List.filter_map (fun row ->
           match row.(6) with Hpm_query.Rel.Float f -> Some f | _ -> None)
  in
  check_bool "the query reader reads them back" true
    (List.exists Float.is_nan values
    && List.mem infinity values
    && List.mem neg_infinity values)

let test_fmt_float () =
  check_string "integral stays integral" "42" (Json.num 42.0);
  check_string "zero" "0" (Json.num 0.0);
  check_string "negative integral" "-3" (Json.num (-3.0));
  check_string "fraction" "0.5" (Json.num 0.5)

(* Every catalogued name has a row in the docs/OBSERVABILITY.md metric
   table: a `prefix` row whose metric column names the rest.  The doc is
   a dep of the test stanza; the path is relative to the repo root under
   `dune exec` and to _build/default/test under `dune runtest`. *)
let test_catalog_documented () =
  let path =
    List.find Sys.file_exists [ "docs/OBSERVABILITY.md"; "../docs/OBSERVABILITY.md" ]
  in
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let rows =
    List.filter_map
      (fun line ->
        match String.split_on_char '|' line with
        | [ ""; prefix; metrics; _; "" ] ->
            let p = String.trim prefix in
            let n = String.length p in
            if n > 2 && p.[0] = '`' && p.[n - 1] = '`' then Some (String.sub p 1 (n - 2), metrics)
            else None
        | _ -> None)
      (String.split_on_char '\n' doc)
  in
  List.iter
    (fun (name, _, _) ->
      let documented (prefix, metrics) =
        String.starts_with ~prefix name
        &&
        let rest = String.sub name (String.length prefix) (String.length name - String.length prefix) in
        contains metrics ("`" ^ rest ^ "`") || contains metrics ("`" ^ rest ^ "{")
      in
      check_bool (name ^ " is in the docs table") true (List.exists documented rows))
    Obs.Metrics.catalog

(* ---- the one JSON codec ---- *)

let json_str_roundtrip_prop =
  qt ~count:200 "json: parse (str s) = Str s for any byte string"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size (int_range 0 300) ~gen:(map Char.chr (int_range 0 255))))
    (fun s -> Json.parse (Json.str s) = Json.Str s)

(* JSON has no NaN or infinity: the writer refuses them where they are
   written, and the reader refuses a literal that overflows to one. *)
let test_json_non_finite () =
  let invalid = function Invalid_argument _ -> true | _ -> false in
  List.iter
    (fun f -> expect_raise (Printf.sprintf "num %h" f) invalid (fun () -> Json.num f))
    [ nan; infinity; neg_infinity ];
  expect_raise "overflowing literal"
    (function Json.Error _ -> true | _ -> false)
    (fun () -> Json.parse "[1e999]");
  let t = Obs.Trace.create () in
  Obs.Trace.emit_i t ~ts:infinity ~cat:"x" "x";
  expect_raise "trace with an infinite timestamp" invalid (fun () ->
      Obs.Trace.to_json t)

(* Every producer's output parses with the one reader, and a string
   holding each byte the escaper must handle comes back intact. *)
let test_every_producer_parses () =
  let nasty = "q\"b\\s\nn\rr\x01." in
  let loc = { Hpm_lang.Ast.line = 3; col = 4 } in
  let diags = [ Hpm_ir.Diag.make ~code:"HPM-W105" ~loc "%s" nasty ] in
  let analysis =
    Hpm_ir.Lint.analyze_source "int main() { int i; i = 0; while (i < 2) { i = i + 1; } return i; }"
  in
  let prog, polls = Option.get analysis.Hpm_ir.Lint.a_prog in
  let footprint = Hpm_ir.Lint.footprint prog polls Hpm_arch.Arch.ultra5 in
  let trace =
    let t = Obs.Trace.create () in
    Obs.Trace.emit_i t ~ts:0.5 ~cat:nasty nasty ~args:[ (nasty, Obs.Trace.S nasty) ];
    t
  in
  let sched =
    {
      Hpm_bench.Bench_json.s_scenario = nasty; s_nodes = 1; s_procs = 2; s_seed = 3;
      s_events = 4; s_finished = 2; s_migrations = 1; s_requested = 1; s_failed = 0;
      s_requeued = 0; s_recovered = 0; s_crashes = 0; s_peak_inflight = 1;
      s_makespan_s = 0.25; s_journal_bytes = 100;
    }
  in
  let rel =
    Hpm_query.Rel.make ~name:"t"
      ~schema:[ (nasty, Hpm_query.Rel.Tstr); ("f", Hpm_query.Rel.Tfloat) ]
      [ [| Hpm_query.Rel.Str nasty; Hpm_query.Rel.Float nan |] ]
  in
  let m = Json.member and nth i v = List.nth (Json.to_list v) i in
  let cases =
    [
      ("Diag.to_json", Hpm_ir.Diag.to_json ~file:nasty diags,
       fun v -> m "message" (nth 0 (m "diagnostics" v)));
      ("Lint.report_json", Hpm_ir.Lint.report_json ~file:nasty diags (Some footprint),
       m "file");
      ("Compat.render_json",
       Hpm_core.Compat.render_json (Hpm_core.Compat.create prog polls) ~workload:nasty (),
       m "workload");
      ("Rel.to_json", Hpm_query.Rel.to_json ~report:nasty rel,
       fun v -> nth 0 (nth 0 (m "rows" v)));
      ("Obs.Trace.to_json", Obs.Trace.to_json trace,
       fun v -> m nasty (m "args" (nth 0 (m "traceEvents" v))));
      ("Bench_json.to_json", Hpm_bench.Bench_json.to_json ~sched:[ sched ] [],
       fun v -> m "scenario" (nth 0 (m "sched" v)));
      ("Journal.encode_entry",
       Hpm_store.Journal.encode_entry
         (Hpm_store.Journal.entry ~ts:1.5 ~ev:Hpm_store.Journal.Spawned ~proc:"p"
            ~note:nasty ()),
       m "note");
    ]
  in
  List.iter
    (fun (name, doc, pick) ->
      match Json.parse doc with
      | v -> check_bool (name ^ " keeps the string") true (pick v = Json.Str nasty)
      | exception Json.Error e -> Alcotest.failf "%s: %s in %s" name e doc)
    cases;
  check_bool "a NaN cell is null in QUERY_v1" true
    (Json.parse (Hpm_query.Rel.to_json rel) |> m "rows" |> nth 0 |> nth 1 = Json.Null)

(* ---- trace buffer ---- *)

let test_trace_events_and_json () =
  let t = Obs.Trace.create () in
  Obs.Trace.emit_b t ~ts:0.0 ~cat:"handoff" "migration"
    ~args:[ ("epoch", Obs.Trace.I 1) ];
  Obs.Trace.emit_i t ~ts:0.5e-6 ~cat:"sched" "sched.spawned"
    ~args:[ ("proc", Obs.Trace.S "p") ];
  Obs.Trace.emit_e t ~ts:1e-6 "migration";
  check_int "three events" 3 (Obs.Trace.event_count t);
  (match Obs.Trace.events t with
  | [ b; i; e ] ->
      check_bool "emission order preserved" true
        (b.Obs.Trace.e_ph = 'B' && i.Obs.Trace.e_ph = 'i' && e.Obs.Trace.e_ph = 'E')
  | _ -> Alcotest.fail "wrong event list");
  let j = Obs.Trace.to_json t in
  check_bool "traceEvents wrapper" true (contains j "{\"traceEvents\":[");
  check_bool "microsecond timestamps" true (contains j "\"ts\":1,");
  check_bool "instants carry a scope" true (contains j "\"s\":\"t\"");
  check_bool "args serialized" true (contains j "\"args\":{\"epoch\":1}");
  check_bool "simulated-clock marker" true (contains j "\"clock\":\"simulated\"")

(* ---- guarded helpers are inert without sinks ---- *)

let test_inert_without_sinks () =
  Obs.reset ();
  check_bool "no sinks installed" true (not (Obs.on ()));
  Obs.inc "hpm_msrlt_searches_total" [];
  Obs.observe "hpm_handoff_time_seconds" [] 1.0;
  Obs.set_gauge "hpm_store_gc_live_chunks" [] 1.0;
  Obs.span_b ~ts:0.0 ~cat:"x" "x";
  Obs.span_e ~ts:0.0 "x";
  Obs.instant ~ts:0.0 ~cat:"x" "x";
  check_bool "still off, nothing recorded" true (not (Obs.on ()))

let test_ambient_labels () =
  with_sinks (fun _ reg ->
      Obs.set_labels [ ("proc", "p1") ];
      Obs.with_labels
        [ ("epoch", "3") ]
        (fun () -> Obs.inc "hpm_sched_events_total" []);
      check_bool "ambient + scoped labels applied" true
        (Obs.Metrics.value reg "hpm_sched_events_total"
           [ ("proc", "p1"); ("epoch", "3") ]
        = Some 1.0);
      Obs.inc "hpm_sched_events_total" [];
      check_bool "scoped labels popped" true
        (Obs.Metrics.value reg "hpm_sched_events_total" [ ("proc", "p1") ]
        = Some 1.0))

(* ---- end to end: an instrumented handoff ---- *)

let bitonic =
  lazy
    (Migration.prepare
       ((Hpm_workloads.Registry.find_exn "bitonic").Hpm_workloads.Registry.source 500))

let suspend m after =
  let p = Migration.start m Hpm_arch.Arch.dec5000 in
  Hpm_machine.Interp.request_migration_after p after;
  match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RPolled _ -> p
  | _ -> Alcotest.fail "finished before the poll"

let run_handoff () =
  let m = Lazy.force bitonic in
  let src = suspend m 1500 in
  Handoff.execute ~channel:(Netsim.ethernet_10 ()) ~epoch:1 m src Hpm_arch.Arch.sparc20

let test_handoff_spans_and_metrics () =
  let res, phases, reg =
    with_sinks (fun tr reg ->
        let res = run_handoff () in
        let phases =
          List.map (fun e -> (e.Obs.Trace.e_ph, e.Obs.Trace.e_name)) (Obs.Trace.events tr)
        in
        (res, phases, reg))
  in
  let bs = List.filter_map (fun (ph, n) -> if ph = 'B' then Some n else None) phases in
  check_bool "span sequence follows the state machine" true
    (bs = [ "migration"; "collect"; "encode"; "transfer"; "restore"; "verify"; "commit" ]);
  check_int "every span closed"
    (List.length bs)
    (List.length (List.filter (fun (ph, _) -> ph = 'E') phases));
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      let lab = [ ("arch_pair", "dec5000->sparc20"); ("epoch", "1") ] in
      let v n = Obs.Metrics.value reg n lab in
      check_bool "wire-byte metric equals transport stats" true
        (v "hpm_transport_wire_bytes_total"
        = Some (float_of_int c.Handoff.c_tstats.Transport.t_wire_bytes));
      check_bool "search metric equals collect stats" true
        (v "hpm_msrlt_searches_total"
        = Some (float_of_int c.Handoff.c_cstats.Cstats.c_searches));
      check_bool "update metric equals restore stats" true
        (v "hpm_msrlt_updates_total"
        = Some (float_of_int c.Handoff.c_rstats.Cstats.r_updates));
      check_bool "outcome counted" true
        (Obs.Metrics.value reg "hpm_handoff_outcomes_total"
           (("outcome", "committed") :: lab)
        = Some 1.0);
      check_bool "handoff time observed once" true
        (Obs.Metrics.value reg "hpm_handoff_time_seconds" lab = Some 1.0)
  | _ -> Alcotest.fail "handoff did not commit"

let test_handoff_trace_deterministic () =
  let j1 = with_sinks (fun tr _ -> ignore (run_handoff ()); Obs.Trace.to_json tr) in
  let j2 = with_sinks (fun tr _ -> ignore (run_handoff ()); Obs.Trace.to_json tr) in
  check_string "same-seed traces byte-identical" j1 j2

let test_timing_unchanged_by_instrumentation () =
  let t_of r =
    match r.Handoff.outcome with
    | Handoff.Committed c -> c.Handoff.c_time_s
    | _ -> Alcotest.fail "no commit"
  in
  Obs.reset ();
  let plain = t_of (run_handoff ()) in
  let traced = with_sinks (fun _ _ -> t_of (run_handoff ())) in
  check_bool "simulated protocol time identical with and without sinks" true
    (plain = traced)

(* Golden trace: MD5 of the Chrome-JSON export of one fixed instrumented
   handoff (bitonic:2000, dec5000→sparc20, epoch 1, clean 10 Mb/s link,
   trace sink only), captured from the pre-optimization implementation.
   The interval index, batch encoders, and buffer reuse must leave the
   simulated timeline — and therefore these bytes — untouched. *)
let test_golden_trace () =
  Obs.reset ();
  let tr = Obs.Trace.create () in
  Obs.set_trace (Some tr);
  Fun.protect ~finally:Obs.reset (fun () ->
      let m =
        Migration.prepare
          ((Hpm_workloads.Registry.find_exn "bitonic").Hpm_workloads.Registry.source 2000)
      in
      let p = Migration.start m Hpm_arch.Arch.dec5000 in
      Hpm_machine.Interp.request_migration_after p 6000;
      (match Hpm_machine.Interp.run p with
      | Hpm_machine.Interp.RPolled _ -> ()
      | _ -> Alcotest.fail "finished before the poll");
      ignore
        (Handoff.execute ~channel:(Netsim.ethernet_10 ()) ~epoch:1 m p
           Hpm_arch.Arch.sparc20);
      let j = Obs.Trace.to_json tr in
      check_int "trace length" 2368 (String.length j);
      check_string "trace md5" "b8861d2e7adf08e88e0ffff26bf585ee"
        (Digest.to_hex (Digest.string j)))

let suite =
  [
    tc "metrics counters, gauges, histograms" test_metrics_basics;
    tc "label canonicalisation" test_label_canonicalisation;
    tc "render is insertion-order independent" test_render_deterministic;
    tc "histogram exposition" test_histogram_render;
    tc "every catalogued metric is documented" test_catalog_documented;
    tc "label escaping" test_label_escaping;
    tc "deterministic float formatting" test_fmt_float;
    tc "non-finite samples render as Prometheus NaN/+Inf/-Inf" test_non_finite_samples;
    json_str_roundtrip_prop;
    tc "json: non-finite numbers refused" test_json_non_finite;
    tc "json: every producer parses" test_every_producer_parses;
    tc "trace events and Chrome JSON" test_trace_events_and_json;
    tc "no sink, no effect" test_inert_without_sinks;
    tc "ambient and scoped labels" test_ambient_labels;
    tc "handoff spans and metric identities" test_handoff_spans_and_metrics;
    tc "handoff trace byte-identical across runs" test_handoff_trace_deterministic;
    tc "instrumentation never shifts protocol time" test_timing_unchanged_by_instrumentation;
    tc_slow "golden handoff trace unchanged" test_golden_trace;
  ]
