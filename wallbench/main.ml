(* Wall-clock benchmark of the migration library, driven from outside
   through its public entry points.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-check

   Each workload is one process and one thread: a closed loop with a
   single client and a fixed, seeded number of ops (the op count is
   [seconds] times a per-workload rate, so a run measures about
   [seconds] seconds here).  --trace 0 prints the end-to-end metrics of
   an untraced pass; --trace 1 replays the same seeded ops twice,
   interleaved op by op, once untraced and once with each layer call
   timed, and prints the per-layer metrics.  The last line of standard output is one JSON
   object; see README.md for every metric. *)

open Meter

type instance = {
  prepare_s : float;  (** Migration.prepare, inside the setup *)
  ops : int;
  run : traced:bool -> cursor;  (** one pass; an instance is used once *)
}

type workload = {
  name : string;
  ops_per_s : float;
      (** ops per measured second on the reference machine, which fixes
          the op count of a run *)
  inputs : Random.State.t -> dir:string -> ops:int -> instance;
      (** draws the seeded inputs, and returns the setup that the
          benchmark times *)
}

let srand_to rng ~stock source =
  Migrate.replace_once ~sub:(Printf.sprintf "srand(%d)" stock)
    ~by:(Printf.sprintf "srand(%d)" (1 + Random.State.int rng 1_000_000_000))
    source

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let migrate_instance (prog : Migrate.program) ~ops =
  let m, reference, p, ops, prepare_s = Migrate.setup prog ~ops in
  if not (contains ~sub:"PASS" reference) then
    failwith "the generated program fails its own check";
  { prepare_s; ops; run = (fun ~traced -> Migrate.run_pass m ~reference ~prog ~ops ~traced p) }

let workloads =
  [
    {
      name = "migrate-pointer";
      ops_per_s = 50.0;
      inputs =
        (fun rng ->
          let n = 1500 + Random.State.int rng 16 in
          let source = srand_to rng ~stock:20010423 (Hpm_workloads.Bitonic.source n) in
          (* the last inserts before the walk: tree_walk runs once per
             node and once per null child, 2n + 1 polls, and from its
             first poll on liveness drops every finished subtree *)
          let prog =
            { Migrate.source; window = Before_last ((2 * n) + 1); polls_between = 2 }
          in
          fun ~dir:_ ~ops -> migrate_instance prog ~ops);
    };
    {
      name = "migrate-bulk";
      ops_per_s = 50.0;
      inputs =
        (fun rng ->
          let n = 80 + Random.State.int rng 2 in
          let source = srand_to rng ~stock:1325 (Hpm_workloads.Linpack.source n) in
          let prog = { Migrate.source; window = Enter "dgefa"; polls_between = 1 } in
          fun ~dir:_ ~ops -> migrate_instance prog ~ops);
    };
    {
      name = "checkpoint-store";
      ops_per_s = 28.0;
      inputs =
        (fun rng ->
          let n = 12_000 + Random.State.int rng 200 in
          let source = srand_to rng ~stock:777 (Hpm_workloads.Hashtab.source n) in
          fun ~dir ~ops ->
            let polls_between = 30 and read_every = 8 in
            let t, prepare_s =
              Checkpoint.setup ~source ~start_frac:0.6 ~polls_between ~dir ~ops
            in
            {
              prepare_s;
              ops = t.Checkpoint.ops;
              run = (fun ~traced -> Checkpoint.run_pass t ~polls_between ~read_every ~traced);
            });
    };
    {
      name = "fleet-churn";
      ops_per_s = 21.0;
      inputs =
        (fun rng ->
          let base = Random.State.bits rng in
          let fleet i =
            Fleet.config ~nodes:20 ~procs:200
              (Random.State.bits (Random.State.make [| base; i |]))
          in
          fun ~dir ~ops ->
            let configs = Array.init ops fleet in
            (* warm-up fleet, so the first timed op finds caches and the
               heap in their steady state *)
            ignore (drive (Fleet.run_pass ~configs:[| fleet (-1) |] ~dir ~traced:false) : pass);
            { prepare_s = 0.0; ops;
              run = (fun ~traced -> Fleet.run_pass ~configs ~dir ~traced) });
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metric catalogs                                                     *)
(* ------------------------------------------------------------------ *)

type layer = {
  l_name : string;
  l_unit : string;
  l_exact : bool;  (** a work count: repeats exactly at a fixed seed *)
  l_moves : string;  (** the end-to-end metric it should move *)
  l_on : string;  (** where *)
}

let layer ?(exact = false) l_name l_unit l_moves l_on =
  { l_name; l_unit; l_exact = exact; l_moves; l_on }

let layers =
  let pointer_bulk = "migrate-pointer, migrate-bulk" in
  [
    layer "prepare.ms" "ms" "setup_s" "all except fleet-churn (small on all)";
    layer "interp.run_ms" "ms" "run_s" "migrate-pointer, checkpoint-store (~0 on migrate-bulk)";
    layer ~exact:true "interp.instrs" "count" "run_s" "migrate-pointer, checkpoint-store";
    layer "interp.ns_per_instr" "ns" "run_s" "migrate-pointer, checkpoint-store";
    layer "collect.ms" "ms" "op_p50_ms, ops_per_s" pointer_bulk;
    layer ~exact:true "collect.searches" "count" "op_p50_ms, ops_per_s" "migrate-pointer";
    layer "collect.ns_per_search" "ns" "op_p50_ms, ops_per_s" "migrate-pointer";
    layer "collect.ns_per_data_byte" "ns" "op_p50_ms, ops_per_s" "migrate-bulk";
    layer "transport.ms" "ms" "op_p50_ms" "migrate-bulk (small on migrate-pointer)";
    layer ~exact:true "transport.frames" "count" "op_p50_ms" "migrate-bulk";
    layer "transport.ns_per_wire_byte" "ns" "op_p50_ms" "migrate-bulk";
    layer "restore.ms" "ms" "op_p50_ms" pointer_bulk;
    layer "restore.ns_per_update" "ns" "op_p50_ms" "migrate-pointer";
    layer "restore.ns_per_data_byte" "ns" "op_p50_ms" "migrate-bulk";
    layer "verify.ms" "ms" "op_p50_ms, op_p90_ms" pointer_bulk;
    layer ~exact:true "verify.pointers" "count" "op_p50_ms, op_p90_ms" "migrate-pointer";
    layer "verify.ns_per_pointer" "ns" "op_p50_ms, op_p90_ms" "migrate-pointer";
    layer "verify.ns_per_data_byte" "ns" "op_p50_ms, op_p90_ms" "migrate-bulk";
    layer "handoff.self_ms" "ms" "op_p50_ms" pointer_bulk;
    layer "snapshot.collect_ms" "ms" "op_p50_ms" "checkpoint-store";
    layer ~exact:true "snapshot.cache_hit_ratio" "ratio" "op_p50_ms" "checkpoint-store";
    layer ~exact:true "snapshot.dirty_ratio" "ratio" "op_p50_ms" "checkpoint-store";
    layer "store.apply_ms" "ms" "op_p50_ms (writes)" "checkpoint-store";
    layer ~exact:true "store.dedup_ratio" "ratio" "op_p50_ms (writes)" "checkpoint-store";
    layer "store.disk_bytes_per_data_byte" "ratio" "op_p50_ms (writes)" "checkpoint-store";
    layer "store.restore_latest_ms" "ms" "op_p90_ms (reads)" "checkpoint-store";
    layer "replica.epoch_self_ms" "ms" "op_p50_ms" "checkpoint-store";
    layer ~exact:true "replica.delta_bytes" "B" "op_p50_ms" "checkpoint-store";
    layer "journal.append_us" "us" "op_p50_ms" "fleet-churn (small on checkpoint-store)";
    layer ~exact:true "journal.bytes_per_entry" "B" "op_p50_ms" "fleet-churn, checkpoint-store";
    layer "journal.load_ms" "ms" "op_p50_ms" "fleet-churn";
    layer "cluster.run_ms" "ms" "op_p50_ms, ops_per_s" "fleet-churn";
    layer ~exact:true "cluster.events" "count" "op_p50_ms, ops_per_s" "fleet-churn";
    layer "cluster.events_per_s" "1/s" "op_p50_ms, ops_per_s" "fleet-churn";
    layer "policy.decide_us" "us" "op_p50_ms" "fleet-churn";
    layer ~exact:true "policy.decisions" "count" "op_p50_ms" "fleet-churn";
    layer "query.report_ms" "ms" "op_p50_ms" "fleet-churn";
    layer ~exact:true "query.rows_scanned" "count" "op_p50_ms" "fleet-churn";
    layer "query.ns_per_row" "ns" "op_p50_ms" "fleet-churn";
    layer "gc.major_collections" "count" "run_s, peak_rss_mb" "all";
    layer "gc.heap_mb" "MiB" "peak_rss_mb, run_s" "all";
    layer "model.collect_ratio" "ratio" "none (informational)" pointer_bulk;
    layer "model.restore_ratio" "ratio" "none (informational)" pointer_bulk;
    layer "model.encode_ratio" "ratio" "none (informational)" "migrate-*, checkpoint-store";
    layer "model.verify_ratio" "ratio" "none (informational)" pointer_bulk;
    layer "model.query_ratio" "ratio" "none (informational)" "fleet-churn";
    layer "trace.overhead_ms" "ms" "none (traced minus untraced op_p50_ms)" "all";
  ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Time [setup_reps] setups of the same seeded inputs under [dir];
   return the median setup time and the instances [keep] asks for,
   others being dropped as soon as they are timed. *)
let setups (w : workload) ~seed ~dir ~ops ~keep =
  let setup = w.inputs (Random.State.make [| seed |]) in
  let kept = ref [] and times = ref [] and prepares = ref [] in
  for k = 1 to setup_reps do
    let d = Filename.concat dir (Printf.sprintf "setup-%d" k) in
    Hpm_store.Store.mkdir_p d;
    let inst, dt = time (fun () -> setup ~dir:d ~ops) in
    times := dt :: !times;
    prepares := inst.prepare_s :: !prepares;
    if keep k then kept := inst :: !kept
  done;
  (median (Array.of_list !times), median (Array.of_list !prepares), List.rev !kept)

let op_p50_ms (p : pass) = 1e3 *. median p.op_s

let end_to_end ~setup_s (p : pass) =
  let p90 =
    match Meter.p90 p.op_s with
    | Some v -> 1e3 *. v
    | None ->
        failwith
          (Printf.sprintf "%d ops leave fewer than %d samples beyond the p90"
             (Array.length p.op_s) min_tail)
  in
  [
    ("setup_s", setup_s, "s");
    ("op_p50_ms", op_p50_ms p, "ms");
    ("op_p90_ms", p90, "ms");
    ("ops_per_s", float_of_int (Array.length p.op_s) /. sum p.op_s, "1/s");
    ("run_s", p.run_s, "s");
    ("bytes_per_op", p.bytes_per_op, "B");
    ("peak_rss_mb", peak_rss_mb (), "MiB");
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "a metric is not a finite number"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let run (w : workload) ~seed ~seconds ~trace ~dir =
  let ops = max 110 (int_of_float (Float.round (w.ops_per_s *. seconds))) in
  let passes = if trace then 2 else 1 in
  let setup_s, prepare_s, insts =
    setups w ~seed ~dir ~ops ~keep:(fun k -> k > setup_reps - passes)
  in
  let ops = (List.hd insts).ops in
  Printf.printf "%s seed=%d: %d ops per pass, %d setups\n%!" w.name seed ops setup_reps;
  let results, metrics =
    match insts with
    | [ i ] ->
        let p = drive (i.run ~traced:false) in
        ([ p ], end_to_end ~setup_s p)
    | [ base; traced ] ->
        (* interleaved, so both passes see the same machine state and
           their difference is the tracing overhead *)
        let b, t = drive_pair (base.run ~traced:false) (traced.run ~traced:true) in
        let measured =
          [
            ("prepare.ms", 1e3 *. prepare_s);
            ("gc.heap_mb", heap_mb ());
            ("trace.overhead_ms", op_p50_ms t -. op_p50_ms b);
          ]
          @ t.layers
        in
        let value l = Option.value ~default:0.0 (List.assoc_opt l.l_name measured) in
        Printf.printf "%-32s %14s %-6s  %-38s %s\n" "layer metric" "value" "unit"
          "should move" "on";
        List.iter
          (fun l ->
            Printf.printf "%-32s %14.4f %-6s  %-38s %s\n" l.l_name (value l) l.l_unit
              l.l_moves l.l_on)
          layers;
        ([ b; t ], List.map (fun l -> (l.l_name, value l, l.l_unit)) layers)
    | _ -> assert false
  in
  if not trace then
    List.iter (fun (n, v, u) -> Printf.printf "%-14s %14.4f %s\n" n v u) metrics;
  let attempted = List.fold_left (fun a (p : pass) -> a + Array.length p.op_s) 0 results in
  let failed = List.fold_left (fun a (p : pass) -> a + p.failed) 0 results in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  failed = 0

(* ------------------------------------------------------------------ *)
(* Self-checks                                                         *)
(* ------------------------------------------------------------------ *)

let self_check ~dir =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%-66s %s\n%!" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  expect "p90 withheld with 9 samples beyond it (99 samples)" (p90 (samples 99) = None);
  expect "p90 of 1..100 is 90, with 10 samples beyond it" (p90 (samples 100) = Some 90.0);
  expect "median of 1..100 is 50 (nearest rank)" (median (samples 100) = 50.0);
  expect "self time: 10 - (2 + 3 + 1) = 4" (self_time 10.0 [ 2.0; 3.0; 1.0 ] = 4.0);
  expect "self time without children is the span" (self_time 2.5 [] = 2.5);
  expect "generated input: srand substituted once"
    (Migrate.replace_once ~sub:"srand(7)" ~by:"srand(9)" "a srand(7) b" = "a srand(9) b");
  (* every count repeats exactly at one seed and moves under another *)
  let counts w seed k =
    let d = Filename.concat dir (Printf.sprintf "%s-%d-%d" w.name seed k) in
    Hpm_store.Store.mkdir_p d;
    let i = w.inputs (Random.State.make [| seed |]) ~dir:d ~ops:24 in
    let p = drive (i.run ~traced:true) in
    rm_rf d;
    ( p.failed,
      p.bytes_per_op,
      List.filter (fun (n, _) -> List.exists (fun l -> l.l_exact && l.l_name = n) layers) p.layers )
  in
  List.iter
    (fun w ->
      let f1, b1, c1 = counts w 1 1 and f2, b2, c2 = counts w 1 2 and _, b3, _ = counts w 2 1 in
      expect (w.name ^ ": no failed ops") (f1 = 0 && f2 = 0);
      expect (w.name ^ ": bytes_per_op and counts repeat at one seed") (b1 = b2 && c1 = c2);
      expect (w.name ^ ": bytes_per_op changes under a second seed") (b1 <> b3))
    workloads;
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1)
  and check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S about how long one pass measures (1..600)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--self-check", Arg.Set check, " check the benchmark's own helpers");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let dir = Filename.concat ".bench_run" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Hpm_store.Store.mkdir_p dir;
  at_exit (fun () ->
      rm_rf dir;
      try Sys.rmdir ".bench_run" with Sys_error _ -> ());
  let ok =
    if !check then self_check ~dir
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | None ->
          prerr_endline
            ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2
      | Some _ when !seed < 0 || !seconds < 1 || !seconds > 600 || (!trace <> 0 && !trace <> 1) ->
          prerr_endline "need --seed N >= 0, --seconds 1..600 and --trace 0|1";
          exit 2
      | Some w -> run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) ~dir
  in
  exit (if ok then 0 else 1)
