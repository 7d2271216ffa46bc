(** The fleet console (lib/query): the typed relational engine, the
    HPMJ journal round-trip, canned-report determinism over a seeded
    fleet, the dedup-vs-Cstats oracle, and the retention predicate
    shared with `hpmrun --store-gc --gc-dry-run`. *)

open Util
open Hpm_query
module Store = Hpm_store.Store
module Journal = Hpm_store.Journal
module Obs = Hpm_obs.Obs
module Json = Hpm_obs.Json

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpm_query_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* Rel: the engine                                                   *)
(* ---------------------------------------------------------------- *)

let mini () =
  Rel.make ~name:"mini"
    ~schema:
      [ ("proc", Rel.Tstr); ("epoch", Rel.Tint); ("ratio", Rel.Tfloat);
        ("ok", Rel.Tbool) ]
    [
      [| Rel.Str "alpha"; Rel.Int 1; Rel.Float 0.5; Rel.Bool true |];
      [| Rel.Str "b"; Rel.Int 12; Rel.Null; Rel.Bool false |];
    ]

let test_text_golden () =
  check_string "text table bytes"
    "proc   epoch  ratio  ok\n\
     -----  -----  -----  -----\n\
     alpha      1    0.5  true\n\
     b         12      -  false\n\
     (2 rows)\n"
    (Rel.to_text (mini ()))

let test_json_golden () =
  check_string "QUERY_v1 bytes"
    ("{\"schema\":\"QUERY_v1\",\"version\":1,\"report\":\"mini\",\
      \"columns\":[{\"name\":\"proc\",\"type\":\"str\"},\
      {\"name\":\"epoch\",\"type\":\"int\"},\
      {\"name\":\"ratio\",\"type\":\"float\"},\
      {\"name\":\"ok\",\"type\":\"bool\"}],\
      \"rows\":[[\"alpha\",1,0.5,true],[\"b\",12,null,false]]}\n")
    (Rel.to_json (mini ()))

let test_cell_order () =
  let open Rel in
  check_bool "Null < Bool" true (compare_cells Null (Bool false) < 0);
  check_bool "Bool < Int" true (compare_cells (Bool true) (Int (-5)) < 0);
  check_bool "Int < Str" true (compare_cells (Int max_int) (Str "") < 0);
  check_bool "Int/Float numeric" true (compare_cells (Int 2) (Float 2.5) < 0);
  check_bool "Float/Int numeric" true (compare_cells (Float 2.5) (Int 3) < 0);
  check_int "Int/Int exact" 0 (compare_cells (Int 7) (Int 7))

let test_pipeline_ops () =
  let t =
    Rel.make ~name:"t"
      ~schema:[ ("k", Rel.Tstr); ("v", Rel.Tint) ]
      (List.map
         (fun (k, v) -> [| Rel.Str k; Rel.Int v |])
         [ ("a", 3); ("b", 1); ("a", 5); ("b", 2); ("a", 4) ])
  in
  let g =
    t
    |> Rel.group ~by:[ "k" ]
         ~aggs:
           [ ("n", Rel.Count); ("total", Rel.Sum "v"); ("lo", Rel.Min "v");
             ("hi", Rel.Max "v"); ("mean", Rel.Avg "v");
             ("p50", Rel.Percentile (50, "v")) ]
  in
  check_string "grouped table"
    "k  n  total  lo  hi  mean  p50\n\
     -  -  -----  --  --  ----  ---\n\
     a  3     12   3   5     4    4\n\
     b  2      3   1   2   1.5    1\n\
     (2 rows)\n"
    (Rel.to_text g);
  (* filter + sort + limit, stable and deterministic *)
  let top =
    t
    |> Rel.filter (fun r -> match r.(1) with Rel.Int v -> v > 1 | _ -> false)
    |> Rel.sort [ ("v", `Desc) ]
    |> Rel.limit 2
  in
  check_string "filter/sort/limit"
    "k  v\n-  -\na  5\na  4\n(2 rows)\n" (Rel.to_text top)

let test_join () =
  let l =
    Rel.make ~name:"l"
      ~schema:[ ("proc", Rel.Tstr); ("epoch", Rel.Tint) ]
      [ [| Rel.Str "a"; Rel.Int 1 |]; [| Rel.Str "a"; Rel.Int 2 |];
        [| Rel.Str "z"; Rel.Int 9 |] ]
  in
  let r =
    Rel.make ~name:"sizes"
      ~schema:[ ("p", Rel.Tstr); ("epoch", Rel.Tint); ("bytes", Rel.Tint) ]
      [ [| Rel.Str "a"; Rel.Int 2; Rel.Int 40 |];
        [| Rel.Str "a"; Rel.Int 1; Rel.Int 10 |] ]
  in
  let j = Rel.join ~on:[ ("proc", "p"); ("epoch", "epoch") ] l r in
  (* the unmatched "z" row vanishes; right key columns are dropped *)
  check_string "inner equi-join drops right keys, keeps payload"
    "proc  epoch  bytes\n\
     ----  -----  -----\n\
     a         1     10\n\
     a         2     40\n\
     (2 rows)\n"
    (Rel.to_text j);
  check_int "join cardinality" 2 (Rel.cardinality j);
  check_bool "unknown column rejected" true
    (match Rel.col_index j "p" with
    | exception Rel.Error _ -> true
    | _ -> false)

let test_percentile_nearest_rank () =
  let t =
    Rel.make ~name:"t"
      ~schema:[ ("g", Rel.Tstr); ("v", Rel.Tint) ]
      (List.init 10 (fun i -> [| Rel.Str "g"; Rel.Int (i + 1) |]))
  in
  let g =
    Rel.group t ~by:[ "g" ]
      ~aggs:
        [ ("p1", Rel.Percentile (1, "v")); ("p50", Rel.Percentile (50, "v"));
          ("p99", Rel.Percentile (99, "v")) ]
  in
  match Rel.rows g with
  | [ [| _; p1; p50; p99 |] ] ->
      check_int "p1 nearest-rank" 1 (match p1 with Rel.Int i -> i | _ -> -1);
      check_int "p50 nearest-rank" 5 (match p50 with Rel.Int i -> i | _ -> -1);
      check_int "p99 nearest-rank" 10 (match p99 with Rel.Int i -> i | _ -> -1)
  | _ -> Alcotest.fail "expected one group row"

let test_work_counters () =
  Rel.reset_stats ();
  ignore (Rel.scan (mini ()));
  check_int "rows charged" 2 !Rel.rows_scanned;
  check_int "cells charged" 8 !Rel.cells_touched;
  check_bool "model cost positive" true
    (Obs.Model.query_s ~rows:2 ~cells:8 > 0.0)

(* ---------------------------------------------------------------- *)
(* Journal: HPMJ round-trip                                          *)
(* ---------------------------------------------------------------- *)

(* Strings exercising the escaper: quotes, backslashes, control and
   high-bit bytes all travel through the \u escapes of docs/FORMAT.md. *)
let gen_note =
  QCheck.Gen.(
    string_size (int_range 0 10)
      ~gen:(oneofl [ 'a'; 'z'; 'Q'; '_'; ' '; '"'; '\\'; '\n'; '\t'; '\xe9' ]))

(* Eighths render in few digits under %.9g, so parse(encode e) = e holds
   exactly — arbitrary doubles are covered by the canonical-form test. *)
let gen_q8 = QCheck.Gen.(map (fun n -> float_of_int n /. 8.0) (int_range 0 80_000))

let gen_entry =
  QCheck.Gen.(
    gen_note >>= fun proc ->
    gen_note >>= fun note ->
    oneofl Journal.all_evs >>= fun ev ->
    gen_q8 >>= fun ts ->
    gen_q8 >>= fun time_s ->
    int_range 0 1000 >>= fun epoch ->
    int_range 0 5 >>= fun incarnation ->
    int_range 0 100_000 >>= fun stream_bytes ->
    int_range 0 100 >>= fun shipped ->
    int_range 0 100 >>= fun reused ->
    return
      (Journal.entry ~ts ~ev ~proc ~src:"n1" ~dst:"n2" ~node:"n3" ~epoch
         ~incarnation ~stream_bytes ~collected_bytes:7 ~restored_bytes:9
         ~retries:1 ~time_s ~delta_bytes:11 ~chunks_shipped:shipped
         ~chunks_reused:reused ~note ()))

let journal_roundtrip_prop =
  qt ~count:60 "HPMJ: append+load round-trips every field"
    (QCheck.make
       ~print:(fun es -> string_of_int (List.length es) ^ " entries")
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 8) gen_entry))
    (fun entries ->
      with_dir (fun dir ->
          let path = Filename.concat dir "j.hpmj" in
          let j = Journal.open_journal path in
          List.iter (Journal.append j) entries;
          Journal.load path = entries))

(* Finite doubles round-trip; NaN and the infinities have no JSON form
   and are refused by the encoder. *)
let encode_canonical_prop =
  qt ~count:100 "HPMJ: encode is a fixpoint of parse (any double)"
    (QCheck.make
       ~print:(fun f -> Printf.sprintf "%h" f)
       QCheck.Gen.(oneof [ float; oneofl [ nan; infinity; neg_infinity ] ]))
    (fun f ->
      let e = Journal.entry ~ts:f ~ev:Journal.Checkpointed ~proc:"p" ~time_s:f () in
      if Float.is_finite f then
        let line = Journal.encode_entry e in
        Journal.encode_entry (Journal.parse_entry line) = line
      else
        match Journal.encode_entry e with
        | exception Invalid_argument _ -> true
        | _ -> false)

let test_journal_non_finite_append () =
  with_dir (fun dir ->
      let path = Filename.concat dir "j.hpmj" in
      let j = Journal.open_journal path in
      let ok = Journal.entry ~ts:1.0 ~ev:Journal.Spawned ~proc:"p" () in
      Journal.append j ok;
      expect_raise "NaN ts refused at append"
        (function Invalid_argument _ -> true | _ -> false)
        (fun () -> Journal.append j (Journal.entry ~ts:nan ~ev:Journal.Finished ~proc:"p" ()));
      List.iter
        (fun epoch ->
          expect_raise
            (Printf.sprintf "integer field %d refused at append" epoch)
            (function Invalid_argument _ -> true | _ -> false)
            (fun () ->
              Journal.append j
                (Journal.entry ~ts:2.0 ~ev:Journal.Finished ~proc:"p" ~epoch ())))
        [ 1 lsl 53; -(1 lsl 53); max_int ];
      let edge =
        Journal.entry ~ts:3.0 ~ev:Journal.Finished ~proc:"p" ~epoch:((1 lsl 53) - 1) ()
      in
      Journal.append j edge;
      Journal.close j;
      check_bool "earlier records still load" true (Journal.load path = [ ok; edge ]))

(* Each line breaks one rule of the HPMJ reader (docs/FORMAT.md). *)
let test_journal_malformed_records () =
  let head = {|{"hpmj":1,"ts":0,"ev":"spawned","proc":"p"|} in
  List.iter
    (fun (why, line) ->
      expect_raise why
        (function Journal.Corrupt _ -> true | _ -> false)
        (fun () -> Journal.parse_entry line))
    [
      ("missing version", {|{"ts":0,"ev":"spawned"}|});
      ("version 2", {|{"hpmj":2,"ev":"spawned"}|});
      ("string version", {|{"hpmj":"1","ev":"spawned"}|});
      ("unknown ev", {|{"hpmj":1,"ev":"exploded"}|});
      ("number in a string field", head ^ {|,"node":5}|});
      ("string in a number field", head ^ {|,"time_s":"1"}|});
      ("fractional integer field", head ^ {|,"epoch":1.5}|});
      ("integer field past 2^53", head ^ {|,"epoch":9007199254740992}|});
      ("nested value", head ^ {|,"extra":[1]}|});
      ("boolean value", head ^ {|,"extra":true}|});
      ("overflowing number", head ^ {|,"ts":1e999}|});
      ("trailing bytes", head ^ "} x");
      ("truncated record", head);
      ("not an object", "[1]");
    ];
  check_bool "a well-formed record still parses" true
    ((Journal.parse_entry (head ^ {|,"epoch":3}|})).Journal.j_epoch = 3)

let test_journal_truncated_tail () =
  with_dir (fun dir ->
      let path = Filename.concat dir "j.hpmj" in
      let j = Journal.open_journal path in
      for i = 1 to 3 do
        Journal.append j
          (Journal.entry ~ts:(float_of_int i) ~ev:Journal.Checkpointed
             ~proc:"p" ~epoch:i ())
      done;
      let whole =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic; s
      in
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 (String.length whole - 4));
      close_out oc;
      check_bool "truncated tail is a typed error" true
        (match Journal.load path with
        | exception Journal.Corrupt _ -> true
        | _ -> false);
      (* a wrong version number is refused, not guessed at *)
      let oc = open_out_bin path in
      output_string oc "{\"hpmj\":9,\"ts\":0,\"ev\":\"spawned\",\"proc\":\"p\"}\n";
      close_out oc;
      check_bool "future version is a typed error" true
        (match Journal.load path with
        | exception Journal.Corrupt _ -> true
        | _ -> false);
      check_bool "absent journal is empty, not an error" true
        (Journal.load (Filename.concat dir "nope.hpmj") = []))

let test_journal_torn_tail_reopens () =
  with_dir (fun dir ->
      let path = Filename.concat dir "j.hpmj" in
      let entry i =
        Journal.entry ~ts:(float_of_int i) ~ev:Journal.Checkpointed ~proc:"p" ~epoch:i ()
      in
      let j = Journal.open_journal path in
      List.iter (fun i -> Journal.append j (entry i)) [ 1; 2; 3 ];
      Journal.close j;
      (* a crashed append: half of the fourth line, no newline *)
      let half =
        let line = Journal.encode_entry (entry 9) in
        String.sub line 0 (String.length line / 2)
      in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc half;
      close_out oc;
      let reg = Obs.Metrics.create () in
      Obs.set_metrics (Some reg);
      let j =
        Fun.protect ~finally:Obs.reset (fun () -> Journal.open_journal path)
      in
      check_int "torn tail counted" (String.length half)
        (int_of_float
           (Option.value ~default:0.0
              (Obs.Metrics.value reg "hpm_journal_torn_tail_bytes_total" [])));
      check_bool "three entries survive the torn tail" true
        (Journal.entries j = List.map entry [ 1; 2; 3 ]);
      Journal.append j (entry 4);
      Journal.close j;
      check_bool "a fourth append round-trips" true
        (Journal.load path = List.map entry [ 1; 2; 3; 4 ]))

(* ---------------------------------------------------------------- *)
(* A deterministic fleet: migrations + checkpoints + one promotion   *)
(* ---------------------------------------------------------------- *)

let nqueens n = Util.prepare (Hpm_workloads.Nqueens.source n)
let jacobi n = Util.prepare (Hpm_workloads.Jacobi.source n)

(* Run the fixed fleet into [dir]; return the five canned reports
   (text and QUERY_v1 bytes) plus the scheduler's own Cstats totals
   for the dedup oracle. *)
let run_fleet dir =
  let open Hpm_sched in
  let st = Store.open_store (Filename.concat dir "store") in
  let jpath = Filename.concat dir "fleet.hpmj" in
  let journal = Journal.open_journal jpath in
  let now0 = Obs.now () in
  let prev_trace = !Obs.cur_trace in
  let tr = Obs.Trace.create () in
  Obs.set_now 0.0;
  Obs.set_trace (Some tr);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace prev_trace;
      Obs.set_now now0)
    (fun () ->
      let src = Sched.node "src" Hpm_arch.Arch.dec5000 in
      let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
      let sb0 = Sched.node "sb0" Hpm_arch.Arch.sparc20 in
      let sim =
        Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~store:st
          ~journal ~ckpt_every_s:0.05 [ src; fast; sb0 ]
      in
      (* one migration *)
      let p = Sched.spawn sim src "q7" (nqueens 7) in
      Sched.request_migration sim p fast;
      let _ = Sched.run sim in
      (* checkpoints + replication + a promotion drill *)
      let p2 = Sched.spawn sim src "j8" (jacobi 8) in
      let r = Sched.replicate sim p2 ~standbys:[ sb0 ] in
      (match Sched.stream_replica sim p2 r ~epochs:3 with
      | Hpm_store.Replica.Streamed 3 -> ()
      | _ -> Alcotest.fail "fleet: expected 3 streamed epochs");
      let _pm = Sched.promote_standby sim p2 r in
      Hpm_store.Replica.close r;
      let _ = Sched.run sim in
      let shipped, reused =
        List.fold_left
          (fun (s, u) e ->
            match e.Journal.j_ev with
            | Journal.Checkpointed | Journal.Migrated ->
                (s + e.Journal.j_chunks_shipped, u + e.Journal.j_chunks_reused)
            | _ -> (s, u))
          (0, 0) (Sched.events sim)
      in
      let qsrc =
        {
          Report.empty_sources with
          Report.s_store = Some st;
          s_journal = Some (Journal.load jpath);
          s_trace = Some (Json.parse (Obs.Trace.to_json tr));
        }
      in
      let reports =
        List.map
          (fun name ->
            let t = Report.run ~keep_last:1 qsrc name in
            (name, Rel.to_text t, Rel.to_json ~report:name t))
          Report.canned
      in
      (reports, shipped, reused))

let test_fleet_reports_byte_identical () =
  with_dir (fun d1 ->
      with_dir (fun d2 ->
          let r1, _, _ = run_fleet d1 in
          let r2, _, _ = run_fleet d2 in
          List.iter2
            (fun (n1, txt1, js1) (n2, txt2, js2) ->
              check_string "report name" n1 n2;
              check_string (n1 ^ " text identical across runs") txt1 txt2;
              check_string (n1 ^ " json identical across runs") js1 js2;
              check_bool (n1 ^ " text non-trivial") true
                (String.length txt1 > 0))
            r1 r2))

let test_fleet_reports_have_rows () =
  with_dir (fun dir ->
      let reports, _, _ = run_fleet dir in
      List.iter
        (fun (name, txt, js) ->
          let nonempty = not (contains_sub txt "(0 rows)") in
          (match name with
          | "top-churn" | "dedup" | "handoff-p99" | "promotions" ->
              check_bool (name ^ " found fleet activity") true nonempty
          | _ -> ());
          check_bool (name ^ " is a QUERY_v1 document") true
            (contains_sub js "\"schema\":\"QUERY_v1\""))
        reports)

let test_dedup_report_matches_cstats () =
  with_dir (fun dir ->
      let reports, shipped, reused = run_fleet dir in
      let _, _, js = List.find (fun (n, _, _) -> n = "dedup") reports in
      (* sum the shipped/reused columns back out of the rendered rows *)
      let doc = Json.parse js in
      let cols =
        List.map
          (fun c -> Json.to_string (Json.member "name" c))
          (Json.to_list (Json.member "columns" doc))
      in
      let idx name =
        let rec go i = function
          | [] -> Alcotest.fail ("dedup report lost column " ^ name)
          | c :: _ when c = name -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 cols
      in
      let is_, iu = (idx "chunks_shipped", idx "chunks_reused") in
      let ts, tu =
        List.fold_left
          (fun (s, u) row ->
            let cells = Json.to_list row in
            ( s + Json.to_int (List.nth cells is_),
              u + Json.to_int (List.nth cells iu) ))
          (0, 0)
          (Json.to_list (Json.member "rows" doc))
      in
      check_bool "fleet shipped chunks" true (shipped > 0);
      check_int "dedup report shipped ≡ scheduler Cstats" shipped ts;
      check_int "dedup report reused ≡ scheduler Cstats" reused tu)

(* ---------------------------------------------------------------- *)
(* Retention: gc-candidates never lists pinned or retained manifests *)
(* ---------------------------------------------------------------- *)

let test_retention_respects_keep_and_pins () =
  with_dir (fun dir ->
      let st = Store.open_store (Filename.concat dir "store") in
      let m = Util.prepare (Hpm_workloads.Jacobi.source 8) in
      let r =
        Hpm_store.Replica.create ~channel:(Hpm_net.Netsim.ethernet_10 ())
          ~store:st ~proc:"j"
          ~standbys:[ ("sb0", Hpm_arch.Arch.sparc20) ]
          m
          (fst (Util.suspend m Hpm_arch.Arch.dec5000 1))
      in
      (match Hpm_store.Replica.run r ~epochs:4 with
      | Hpm_store.Replica.Streamed 4 -> ()
      | _ -> Alcotest.fail "expected 4 epochs");
      Hpm_store.Replica.close r;
      let epochs = Store.manifest_epochs st ~proc:"j" in
      check_int "store holds 4 epochs" 4 (List.length epochs);
      (* keep_last alone: the newest 2 epochs must never be listed *)
      let victims keep =
        Report.retention_victims ~store:st ~keep_last:keep ()
        |> List.map (fun (_, e, _) -> e)
      in
      check_bool "newest epochs retained" true
        (List.for_all (fun e -> e <= 2) (victims 2));
      check_int "keep 2 of 4 leaves 2 candidates" 2 (List.length (victims 2));
      check_int "keep_last 0 condemns everything unpinned" 4
        (List.length (victims 0));
      (* pin epoch 1's chunks: it must vanish from the candidates *)
      let mf1 = Store.load_manifest st ~proc:"j" ~epoch:1 in
      Store.pin st (Store.manifest_hashes mf1);
      let v = Report.retention_victims ~store:st ~keep_last:1 () in
      List.iter
        (fun (proc, epoch, _) ->
          let mf = Store.load_manifest st ~proc ~epoch in
          check_bool
            (Printf.sprintf "victim %s/%d references no pinned chunk" proc epoch)
            false
            (List.exists (Store.is_pinned st) (Store.manifest_hashes mf)))
        v;
      check_bool "pinned epoch 1 no longer a candidate" true
        (not (List.exists (fun (_, e, _) -> e = 1) v));
      (* chunks are shared across incremental epochs, so pinning epoch 1
         transitively protects neighbours that reference the same chunks;
         release the pins before exercising the time window *)
      Store.unpin st (Store.manifest_hashes mf1);
      check_int "pins released" 0 (Store.pinned_chunks st);
      (* keep_days: a journal dating every epoch recently keeps them all;
         undatable epochs are kept, never silently condemned *)
      let j e ts =
        Journal.entry ~ts ~ev:Journal.Checkpointed ~proc:"j" ~epoch:e ()
      in
      let recent = [ j 1 0.0; j 2 1.0; j 3 2.0; j 4 3.0 ] in
      check_int "all inside the window survive" 0
        (List.length
           (Report.retention_victims ~store:st ~journal:recent ~keep_last:1
              ~keep_days:1.0 ()));
      let stale = [ j 1 0.0; j 2 1.0; j 4 200_000.0 ] in
      let v =
        Report.retention_victims ~store:st ~journal:stale ~keep_last:1
          ~keep_days:1.0 ()
      in
      (* epochs 1,2 aged out (>1 day before the newest record); epoch 3
         is undatable so it is kept *)
      check_bool "undatable epoch kept" true
        (not (List.exists (fun (_, e, _) -> e = 3) v));
      (match v with
      | [ ("j", 1, Some a1); ("j", 2, Some a2) ] ->
          check_bool "ages are newest-record-relative" true
            (a1 > 86_400.0 && a2 > 86_400.0 && a1 > a2)
      | _ -> Alcotest.fail "expected exactly j/1 and j/2 with ages"))

(* ---------------------------------------------------------------- *)
(* Suite                                                             *)
(* ---------------------------------------------------------------- *)

let suite =
  [
    tc "rel: text rendering golden" test_text_golden;
    tc "rel: QUERY_v1 rendering golden" test_json_golden;
    tc "rel: total order over cells" test_cell_order;
    tc "rel: group/aggregate pipeline" test_pipeline_ops;
    tc "rel: inner equi-join" test_join;
    tc "rel: nearest-rank percentiles" test_percentile_nearest_rank;
    tc "rel: work counters feed the cost model" test_work_counters;
    journal_roundtrip_prop;
    encode_canonical_prop;
    tc "journal: a value the reader refuses is refused at append" test_journal_non_finite_append;
    tc "journal: every malformed record is a typed error" test_journal_malformed_records;
    tc "journal: truncated tail and bad version are typed errors"
      test_journal_truncated_tail;
    tc "journal: reopen drops and counts a torn tail" test_journal_torn_tail_reopens;
    tc_slow "fleet: five canned reports byte-identical across runs"
      test_fleet_reports_byte_identical;
    tc_slow "fleet: reports see the seeded activity" test_fleet_reports_have_rows;
    tc_slow "fleet: dedup report ≡ scheduler Cstats oracle"
      test_dedup_report_matches_cstats;
    tc "retention: keep-last, pins and keep-days" test_retention_respects_keep_and_pins;
  ]
