(** Machine-readable bench trajectory: the [BENCH_v1] document.

    Every value here is derived from deterministic sources only — the §4
    cost counters ({!Hpm_core.Cstats}), the modelled per-operation costs
    ({!Hpm_obs.Obs.Model}), and the network simulator's virtual clock.
    No wall-clock time enters the document, so two runs of the same build
    emit byte-identical JSON and a committed baseline ([BENCH_0006.json])
    can gate regressions in CI: a code change that does more MSRLT
    searches, ships more wire bytes, or stretches the simulated handoff
    shows up as a >10% delta against the baseline.

    The mapping back to the paper's §4.2 cost terms:

    - [collect.model_s]  = MSRLT_search + per-block + encode Σ Dᵢ
    - [restore.model_s]  = MSRLT_update + per-block + decode Σ Dᵢ
    - [handoff.sim_s]    = end-to-end protocol time on the simulated link
    - [*.bytes]          = the Σ Dᵢ / stream / delta size terms

    See [docs/BENCH.md] for the schema and the baseline-update
    procedure. *)

open Hpm_arch
open Hpm_core
module Json = Hpm_obs.Json

let version = 1
let schema = "BENCH_v1"

(** One benchmark configuration: a workload suspended at a fixed poll,
    migrated from [src] to [dst]. *)
type case = {
  w_name : string;
  w_n : int;      (** problem size *)
  w_poll : int;   (** suspend at the (poll+1)-th poll event *)
  src : Arch.t;
  dst : Arch.t;
  advance : int;  (** polls to run between the two snapshot epochs *)
}

(** Fixed suite: the three ROADMAP workloads across the ILP32/LP64 and
    endianness axes.  Sizes are small enough for CI but large enough that
    the §4 cost terms dominate. *)
let default_cases =
  let case w n poll src dst =
    { w_name = w; w_n = n; w_poll = poll; src; dst; advance = 7 }
  in
  [
    case "jacobi" 40 8 Arch.dec5000 Arch.sparc20;
    case "jacobi" 40 8 Arch.ultra5 Arch.x86_64;
    case "jacobi" 40 8 Arch.x86_64 Arch.i386;
    case "hashtab" 2000 6000 Arch.dec5000 Arch.sparc20;
    case "hashtab" 2000 6000 Arch.ultra5 Arch.x86_64;
    case "hashtab" 2000 6000 Arch.x86_64 Arch.i386;
    case "bitonic" 2000 6000 Arch.dec5000 Arch.sparc20;
    case "bitonic" 2000 6000 Arch.ultra5 Arch.x86_64;
    case "bitonic" 2000 6000 Arch.x86_64 Arch.i386;
  ]

(** The measured entry for one case.  Only counters and simulated
    seconds. *)
type entry = {
  e_case : case;
  (* collect: §4.2 MSRLT_search + Encode_and_Copy *)
  c_model_s : float;
  c_searches : int;
  c_blocks : int;
  c_data_bytes : int;
  c_stream_bytes : int;
  c_pointers : int;
  (* restore: §4.2 MSRLT_update + Decode_and_Copy *)
  r_model_s : float;
  r_updates : int;
  r_blocks : int;
  r_data_bytes : int;
  (* handoff: two-phase protocol on a clean simulated 10 Mb/s link *)
  h_sim_s : float;
  h_stream_bytes : int;
  (* delta: chunked snapshot, full then incremental after [advance] *)
  d_full_bytes : int;
  d_incr_bytes : int;
  d_cache_hits : int;
  d_chunks_shipped : int;
  (* compat: full 8x8 portability matrix of the workload — analysis
     (pre-compile) time on the model clock plus the verdict census *)
  p_model_s : float;
  p_polls : int;
  p_entries : int;
  p_checks : int;
  p_illegal : int;
  p_lossy : int;
  (* replication: continuous per-epoch delta streaming to a warm standby
     (docs/REPLICATION.md).  The planned-migration claim is
     final_delta_bytes << full_bytes; the lag model is the catch-up cost
     as a function of epochs behind. *)
  rep_final_bytes : int;    (** newest epoch's delta wire *)
  rep_full_bytes : int;     (** the standby's full materialized state *)
  rep_lag1_bytes : int;     (** catch-up cost at lag 1 *)
  rep_lag3_bytes : int;     (** catch-up cost at lag 3 *)
  rep_ship_s : float;       (** simulated seconds spent shipping deltas *)
  (* query: the management plane (lib/query) — every canned report run
     over the case's own seeded store, journal and handoff trace, costed
     on the model clock from the engine's row/cell work counters *)
  q_rows : int;             (** rows scanned across all canned reports *)
  q_top_churn_s : float;
  q_dedup_s : float;
  q_handoff_p99_s : float;
  q_gc_candidates_s : float;
  q_promotions_s : float;
}

let err fmt = Fmt.kstr failwith fmt

(* Run [f] on a fresh temp-dir path (not yet created) and remove
   whatever it leaves there. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  let rec rm_rf path =
    if Sys.is_directory path then (
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path)
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let suspend (m : Migration.migratable) arch after =
  let p = Migration.start m arch in
  Hpm_machine.Interp.request_migration_after p after;
  match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RPolled _ -> p
  | _ -> err "bench: process finished before poll %d" after

(** Run one case.  Deterministic: depends only on the workload, the two
    architectures, and the code under test. *)
let run_case (c : case) : entry =
  let w = Hpm_workloads.Registry.find_exn c.w_name in
  let m = Migration.prepare (w.Hpm_workloads.Registry.source c.w_n) in
  (* collect + restore on a fresh process *)
  let p = suspend m c.src c.w_poll in
  let stream, cs = Collect.collect p m.Migration.ti in
  let _, rs = Restore.restore m.Migration.prog c.dst m.Migration.ti stream in
  let module Model = Hpm_obs.Obs.Model in
  let c_model_s =
    Model.collect_s ~searches:cs.Cstats.c_searches ~blocks:cs.Cstats.c_blocks
      ~bytes:cs.Cstats.c_data_bytes
  in
  let r_model_s =
    Model.restore_s ~updates:rs.Cstats.r_updates ~blocks:rs.Cstats.r_blocks
      ~bytes:rs.Cstats.r_data_bytes
  in
  (* chunked snapshot: full delta at the first epoch, incremental after
     [advance] more polls with a warm cache *)
  let cache = Hpm_store.Snapshot.new_cache () in
  let mf1, chunks1, _ =
    Hpm_store.Snapshot.collect ~epoch:1 ~proc:c.w_name ~cache p m.Migration.ti
  in
  let lookup tbl h =
    match Hashtbl.find_opt tbl h with
    | Some payload -> payload
    | None -> err "bench: chunk of %s missing" c.w_name
  in
  let full_wire = Hpm_store.Store.encode_delta ~lookup:(lookup chunks1) mf1 in
  Hpm_machine.Interp.request_migration_after p c.advance;
  (match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RPolled _ -> ()
  | _ -> err "bench: %s finished before the incremental epoch" c.w_name);
  let mf2, chunks2, d2 =
    Hpm_store.Snapshot.collect ~epoch:2 ~proc:c.w_name ~cache p m.Migration.ti
  in
  Hashtbl.iter (Hashtbl.replace chunks1) chunks2;
  let incr_wire =
    Hpm_store.Store.encode_delta ~base:mf1 ~stats:d2 ~lookup:(lookup chunks1) mf2
  in
  (* portability matrix over the whole catalog: deterministic work
     counters through the same model clock as collect/restore *)
  let pa = Hpm_ir.Portability.create m.Migration.prog m.Migration.polls in
  let reports = Hpm_ir.Portability.analyze_matrix pa Arch.all in
  let pstats = Hpm_ir.Portability.stats pa in
  let count v =
    List.length
      (List.filter (fun r -> r.Hpm_ir.Portability.p_verdict = v) reports)
  in
  let p_model_s =
    Model.compat_s ~polls:pstats.Hpm_ir.Portability.st_polls
      ~entries:pstats.Hpm_ir.Portability.st_entries
      ~checks:pstats.Hpm_ir.Portability.st_checks
  in
  (* replication: a fresh process streams 4 short epochs to one warm
     standby through a throwaway store on a clean 10 Mb/s link.  Only
     sizes and the simulated clock enter the document, so the temp-dir
     name does not break determinism. *)
  let rep_epochs = 4 in
  let ( rep_final_bytes, rep_full_bytes, rep_lag1_bytes, rep_lag3_bytes,
        rep_ship_s, h, q_rows, q_top_churn_s, q_dedup_s, q_handoff_p99_s,
        q_gc_candidates_s, q_promotions_s ) =
    with_temp_dir "hpmbench_rep" (fun dir ->
        let st = Hpm_store.Store.open_store dir in
        let jpath = Filename.concat dir "fleet.hpmj" in
        let journal = Hpm_store.Journal.open_journal jpath in
        let p3 = suspend m c.src c.w_poll in
        let config =
          { Hpm_store.Replica.default_config with
            Hpm_store.Replica.epoch_polls = 4 }
        in
        let r =
          Hpm_store.Replica.create ~config ~journal
            ~channel:(Hpm_net.Netsim.ethernet_10 ())
            ~store:st ~proc:c.w_name
            ~standbys:[ ("sb0", c.dst) ]
            m p3
        in
        (match Hpm_store.Replica.run r ~epochs:rep_epochs with
        | Hpm_store.Replica.Streamed _ -> ()
        | _ -> err "bench: %s did not stream %d replication epochs" c.w_name rep_epochs);
        let per_epoch =
          List.filter_map
            (function
              | Hpm_store.Replica.Ev_store { es_epoch; es_bytes } ->
                  Some (es_epoch, es_bytes)
              | _ -> None)
            (Hpm_store.Replica.events r)
        in
        let catchup k =
          List.fold_left
            (fun acc (e, b) -> if e > rep_epochs - k then acc + b else acc)
            0 per_epoch
        in
        let full_bytes =
          match Hpm_store.Replica.standbys r with
          | sb :: _ -> String.length (Hpm_store.Replica.standby_stream r sb)
          | [] -> err "bench: %s replica lost its standby" c.w_name
        in
        let rep_ship_s = Hpm_store.Replica.time_s r in
        (* a drill promotion, so the journal carries a failover record
           for the promotions report *)
        ignore (Hpm_store.Replica.promote r : Hpm_store.Replica.promotion);
        Hpm_store.Replica.close r;
        (* handoff on a second fresh process, clean 10 Mb/s ethernet —
           captured as a Chrome trace so the query engine has migration
           spans to aggregate.  The ambient clock is restored afterwards,
           keeping repeated generate() calls byte-identical. *)
        let module Obs = Hpm_obs.Obs in
        let now0 = Obs.now () in
        let prev_trace = !Obs.cur_trace in
        let tr = Obs.Trace.create () in
        Obs.set_trace (Some tr);
        let p2 = suspend m c.src c.w_poll in
        let h =
          match
            (Handoff.execute ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~epoch:1 m p2 c.dst)
              .Handoff.outcome
          with
          | Handoff.Committed h -> h
          | o ->
              err "bench: handoff of %s did not commit: %s" c.w_name
                (Handoff.outcome_name o)
        in
        Obs.set_trace prev_trace;
        Obs.set_now now0;
        (* the management plane: every canned report over this case's
           seeded store, journal and trace, costed from the engine's
           work counters *)
        let qsrc =
          {
            Hpm_query.Report.empty_sources with
            Hpm_query.Report.s_store = Some st;
            s_journal = Some (Hpm_store.Journal.load jpath);
            s_trace = Some (Json.parse (Obs.Trace.to_json tr));
          }
        in
        let q_rows = ref 0 in
        let timed name =
          Hpm_query.Rel.reset_stats ();
          let t =
            Hpm_query.Report.run ~keep_last:1 qsrc name
          in
          ignore (Hpm_query.Rel.cardinality t : int);
          q_rows := !q_rows + !Hpm_query.Rel.rows_scanned;
          Model.query_s ~rows:!Hpm_query.Rel.rows_scanned
            ~cells:!Hpm_query.Rel.cells_touched
        in
        let q_top_churn_s = timed "top-churn" in
        let q_dedup_s = timed "dedup" in
        let q_handoff_p99_s = timed "handoff-p99" in
        let q_gc_candidates_s = timed "gc-candidates" in
        let q_promotions_s = timed "promotions" in
        ( List.assoc rep_epochs per_epoch,
          full_bytes,
          catchup 1,
          catchup 3,
          rep_ship_s,
          h,
          !q_rows,
          q_top_churn_s,
          q_dedup_s,
          q_handoff_p99_s,
          q_gc_candidates_s,
          q_promotions_s ))
  in
  {
    e_case = c;
    c_model_s;
    c_searches = cs.Cstats.c_searches;
    c_blocks = cs.Cstats.c_blocks;
    c_data_bytes = cs.Cstats.c_data_bytes;
    c_stream_bytes = cs.Cstats.c_stream_bytes;
    c_pointers = cs.Cstats.c_pointers;
    r_model_s;
    r_updates = rs.Cstats.r_updates;
    r_blocks = rs.Cstats.r_blocks;
    r_data_bytes = rs.Cstats.r_data_bytes;
    h_sim_s = h.Handoff.c_time_s;
    h_stream_bytes = h.Handoff.c_stream_bytes;
    d_full_bytes = String.length full_wire;
    d_incr_bytes = String.length incr_wire;
    d_cache_hits = d2.Cstats.d_cache_hits;
    d_chunks_shipped = d2.Cstats.d_chunks_shipped;
    p_model_s;
    p_polls = pstats.Hpm_ir.Portability.st_polls;
    p_entries = pstats.Hpm_ir.Portability.st_entries;
    p_checks = pstats.Hpm_ir.Portability.st_checks;
    p_illegal = count Hpm_ir.Portability.Illegal;
    p_lossy = count Hpm_ir.Portability.Lossy;
    rep_final_bytes;
    rep_full_bytes;
    rep_lag1_bytes;
    rep_lag3_bytes;
    rep_ship_s;
    q_rows;
    q_top_churn_s;
    q_dedup_s;
    q_handoff_p99_s;
    q_gc_candidates_s;
    q_promotions_s;
  }

let run ?(cases = default_cases) () : entry list = List.map run_case cases

(* ------------------------------------------------------------------ *)
(* The sched section: cluster-scale churn scenarios (docs/SCHED.md)    *)
(* ------------------------------------------------------------------ *)

(** One churn scenario's deterministic outcome.  Everything is either a
    counter or the simulated clock; journal bytes are what the run
    appended to its HPMJ log (the journal itself lands in a throwaway
    temp dir — only its size enters the document). *)
type sched_entry = {
  s_scenario : string;
  s_nodes : int;
  s_procs : int;
  s_seed : int;
  s_events : int;
  s_finished : int;
  s_migrations : int;
  s_requested : int;
  s_failed : int;
  s_requeued : int;
  s_recovered : int;
  s_crashes : int;
  s_peak_inflight : int;
  s_makespan_s : float;
  s_journal_bytes : int;
}

(** The standing churn scenarios of the [sched] section: two warm-up
    sizes and the full ROADMAP churn target.  [bench json] prints one
    line per scenario. *)
let sched_cases : (string * Hpm_sched.Cluster.config) list =
  let module C = Hpm_sched.Cluster in
  [
    ( "small-50x500",
      { C.default_churn with C.c_nodes = 50; c_procs = 500;
        c_crash_nodes = 2; c_max_moves = 25 } );
    ( "medium-200x2000",
      { C.default_churn with C.c_nodes = 200; c_procs = 2000;
        c_crash_nodes = 5; c_max_moves = 60 } );
    ("churn-1k", C.default_churn);
  ]

let run_sched_case ((name, cfg) : string * Hpm_sched.Cluster.config) :
    sched_entry =
  let module C = Hpm_sched.Cluster in
  with_temp_dir "hpmbench_sched" (fun dir ->
      Unix.mkdir dir 0o755;
      let journal =
        Hpm_store.Journal.open_journal (Filename.concat dir "fleet.hpmj")
      in
      let t = C.run (C.create ~journal cfg) in
      let s = C.stats t in
      Hpm_store.Journal.close journal;
      {
        s_scenario = name;
        s_nodes = cfg.C.c_nodes;
        s_procs = cfg.C.c_procs;
        s_seed = cfg.C.c_seed;
        s_events = s.C.cs_events;
        s_finished = s.C.cs_finished;
        s_migrations = s.C.cs_migrations;
        s_requested = s.C.cs_requested;
        s_failed = s.C.cs_failed;
        s_requeued = s.C.cs_requeued;
        s_recovered = s.C.cs_recovered;
        s_crashes = s.C.cs_crashes;
        s_peak_inflight = s.C.cs_peak_inflight;
        s_makespan_s = s.C.cs_makespan_s;
        s_journal_bytes = s.C.cs_journal_bytes;
      })

let run_sched ?(cases = sched_cases) () : sched_entry list =
  List.map run_sched_case cases

(* JSON rendering.  The byte layout is fixed here — key order,
   indentation, newline termination — while strings and floats come
   from the one codec. *)

let entry_json (b : Buffer.t) (e : entry) : unit =
  let c = e.e_case in
  Buffer.add_string b
    (Printf.sprintf
       "    {\n\
       \      \"workload\": %s, \"n\": %d, \"poll\": %d,\n\
       \      \"src_arch\": %s, \"dst_arch\": %s,\n\
       \      \"collect\": { \"model_s\": %s, \"searches\": %d, \"blocks\": %d, \
        \"data_bytes\": %d, \"stream_bytes\": %d, \"pointers\": %d },\n\
       \      \"restore\": { \"model_s\": %s, \"updates\": %d, \"blocks\": %d, \
        \"data_bytes\": %d },\n\
       \      \"handoff\": { \"sim_s\": %s, \"stream_bytes\": %d },\n\
       \      \"delta\": { \"full_bytes\": %d, \"incr_bytes\": %d, \"cache_hits\": \
        %d, \"chunks_shipped\": %d },\n\
       \      \"compat\": { \"model_s\": %s, \"polls\": %d, \"entries\": %d, \
        \"checks\": %d, \"illegal_pairs\": %d, \"lossy_pairs\": %d },\n\
       \      \"replication\": { \"final_delta_bytes\": %d, \"full_bytes\": %d, \
        \"catchup_lag1_bytes\": %d, \"catchup_lag3_bytes\": %d, \"ship_sim_s\": \
        %s },\n\
       \      \"query\": { \"rows_scanned\": %d, \"top_churn_s\": %s, \
        \"dedup_s\": %s, \"handoff_p99_s\": %s, \"gc_candidates_s\": %s, \
        \"promotions_s\": %s }\n\
       \    }"
       (Json.str c.w_name) c.w_n c.w_poll (Json.str c.src.Arch.name)
       (Json.str c.dst.Arch.name) (Json.num e.c_model_s) e.c_searches e.c_blocks
       e.c_data_bytes e.c_stream_bytes e.c_pointers (Json.num e.r_model_s)
       e.r_updates e.r_blocks e.r_data_bytes (Json.num e.h_sim_s)
       e.h_stream_bytes e.d_full_bytes e.d_incr_bytes e.d_cache_hits
       e.d_chunks_shipped (Json.num e.p_model_s) e.p_polls e.p_entries e.p_checks
       e.p_illegal e.p_lossy e.rep_final_bytes e.rep_full_bytes e.rep_lag1_bytes
       e.rep_lag3_bytes (Json.num e.rep_ship_s) e.q_rows
       (Json.num e.q_top_churn_s) (Json.num e.q_dedup_s)
       (Json.num e.q_handoff_p99_s) (Json.num e.q_gc_candidates_s)
       (Json.num e.q_promotions_s))

let sched_entry_json (b : Buffer.t) (s : sched_entry) : unit =
  Buffer.add_string b
    (Printf.sprintf
       "    {\n\
       \      \"scenario\": %s, \"nodes\": %d, \"procs\": %d, \"seed\": %d,\n\
       \      \"events\": %d, \"finished\": %d, \"migrations\": %d, \
        \"requested\": %d,\n\
       \      \"failed\": %d, \"requeued\": %d, \"recovered\": %d, \
        \"crashes\": %d,\n\
       \      \"peak_inflight\": %d, \"makespan_s\": %s, \"journal_bytes\": %d\n\
       \    }"
       (Json.str s.s_scenario) s.s_nodes s.s_procs s.s_seed s.s_events
       s.s_finished s.s_migrations s.s_requested s.s_failed s.s_requeued s.s_recovered
       s.s_crashes s.s_peak_inflight (Json.num s.s_makespan_s) s.s_journal_bytes)

(** Render the versioned document.  Deterministic for a given build.
    [sched], when non-empty, adds the cluster-churn section; older
    documents simply lack the key (the gate skips it null-safely). *)
let to_json ?(sched : sched_entry list = []) (entries : entry list) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema\": %s,\n  \"version\": %d,\n  \"entries\": [\n"
       (Json.str schema) version);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      entry_json b e)
    entries;
  Buffer.add_string b "\n  ]";
  if sched <> [] then begin
    Buffer.add_string b ",\n  \"sched\": [\n";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string b ",\n";
        sched_entry_json b s)
      sched;
    Buffer.add_string b "\n  ]"
  end;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(** Run the default suite and render it — the body of
    [bench/main.exe json]. *)
let generate () : string = to_json ~sched:(run_sched ()) (run ())
