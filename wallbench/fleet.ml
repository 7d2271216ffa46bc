(* fleet-churn: each op is one seeded Cluster fleet on the modelled data
   plane, with the default hysteresis(gang(least-loaded)) policy and a
   node crash, journalled to a fresh HPMJ file that the journal-reading
   canned Hpm_query reports then scan. *)

open Hpm_store
open Meter
module Cluster = Hpm_sched.Cluster
module Policy = Hpm_sched.Policy
module Report = Hpm_query.Report
module Rel = Hpm_query.Rel
module Model = Hpm_obs.Obs.Model

(* The canned reports that read the journal alone; handoff-p99 needs a
   Chrome trace and gc-candidates a checkpoint store, and a fleet on the
   modelled data plane produces neither. *)
let reports = [ "top-churn"; "dedup"; "promotions" ]

let config ~nodes ~procs seed =
  {
    Cluster.default_churn with
    Cluster.c_nodes = nodes;
    c_procs = procs;
    c_seed = seed;
    c_max_moves = max 1 (procs / 60);
    c_gang_groups = 1;
    c_crash_nodes = 1;
  }

(* Cluster.create's default policy, with every decide call timed. *)
let timed_policy s (c : Cluster.config) : Policy.t =
  let module P =
    (val Policy.with_hysteresis ~cooldown_s:c.Cluster.c_cooldown_s
           (Policy.gang (Policy.least_loaded ~max_moves:c.Cluster.c_max_moves ())))
  in
  (module struct
    let name = P.name

    let decide ~now nodes procs =
      let r, dt = time (fun () -> P.decide ~now nodes procs) in
      add s "policy.s" dt;
      r
  end)

let remove_journal path =
  List.iter Sys.remove (Journal.segment_paths path @ [ path ])

(* Every process finished, each with exactly one Finished record. *)
let check (st : Cluster.stats) entries =
  let finished = Hashtbl.create 256 in
  List.iter
    (fun (e : Journal.entry) ->
      if e.Journal.j_ev = Journal.Finished then
        Hashtbl.replace finished e.Journal.j_proc
          (1 + Option.value ~default:0 (Hashtbl.find_opt finished e.Journal.j_proc)))
    entries;
  st.Cluster.cs_finished = st.Cluster.cs_spawned
  && Hashtbl.length finished = st.Cluster.cs_spawned
  && Hashtbl.fold (fun _ n ok -> ok && n = 1) finished true

(* One op: run the fleet into a fresh journal, load it back, run the
   reports.  With [s], the layer calls are timed into it. *)
let op ?s cfg path =
  let j = Journal.open_journal path in
  let policy = Option.map (fun s -> timed_policy s cfg) s in
  let t, run = time (fun () -> Cluster.run (Cluster.create ~journal:j ?policy cfg)) in
  Journal.close j;
  let entries, load = time (fun () -> Journal.load path) in
  Rel.reset_stats ();
  let src = { Report.empty_sources with Report.s_journal = Some entries } in
  let (), query =
    time (fun () -> List.iter (fun r -> ignore (Report.run src r : Rel.t)) reports)
  in
  let st = Cluster.stats t in
  (match s with
  | None -> ()
  | Some s ->
      List.iter
        (fun (k, v) -> add s k v)
        [
          ("cluster.s", run);
          ("cluster.events", float_of_int st.Cluster.cs_events);
          ("journal.load_s", load);
          ("journal.records", float_of_int (Journal.length j));
          ("query.s", query);
          ("query.rows", float_of_int !Rel.rows_scanned);
          ("model.query_s", Model.query_s ~rows:!Rel.rows_scanned ~cells:!Rel.cells_touched);
        ]);
  (st, entries)

let run_pass ~configs ~dir ~traced : cursor =
  let rc = run_clock () in
  let s = new_samples () in
  let ops = Array.length configs in
  let op_s = Array.make ops 0.0 and failed = ref 0 and bytes = ref 0 in
  let step i =
    let cfg = configs.(i - 1) in
    let path = Filename.concat dir (Printf.sprintf "fleet-%05d.hpmj" i) in
    settle ();
    let gc0 = gc_collections () in
    let (st, entries), dt =
      timed rc (fun () -> op ?s:(if traced then Some s else None) cfg path)
    in
    op_s.(i - 1) <- dt;
    bytes := !bytes + st.Cluster.cs_journal_bytes;
    if not (check st entries) then incr failed;
    remove_journal path;
    if traced then begin
      add s "gc.collections" (float_of_int (gc_collections () - gc0));
      (* journal append cost: the same seeded fleet without a journal *)
      settle ();
      let _, bare = time (fun () -> Cluster.run (Cluster.create cfg)) in
      add s "cluster.bare_s" bare
    end
  in
  let finish () =
    let layers =
      if not traced then []
      else
        let per_op name = total s name /. float_of_int ops in
        let decides = float_of_int (Array.length (get s "policy.s")) in
        [
          ("cluster.run_ms", 1e3 *. med s "cluster.s");
          ("cluster.events", per_op "cluster.events");
          ("cluster.events_per_s", ratio (total s "cluster.events") (total s "cluster.s"));
          ("policy.decide_us", 1e6 *. ratio (total s "policy.s") decides);
          ("policy.decisions", decides /. float_of_int ops);
          ("journal.append_us",
           1e6
           *. ratio (total s "cluster.s" -. total s "cluster.bare_s") (total s "journal.records"));
          ("journal.bytes_per_entry", ratio (float_of_int !bytes) (total s "journal.records"));
          ("journal.load_ms", 1e3 *. med s "journal.load_s");
          ("query.report_ms", 1e3 *. med s "query.s");
          ("query.rows_scanned", per_op "query.rows");
          ("query.ns_per_row", 1e9 *. ratio (total s "query.s") (total s "query.rows"));
          ("model.query_ratio", ratio (total s "query.s") (total s "model.query_s"));
          ("gc.major_collections", per_op "gc.collections");
        ]
    in
    { op_s; run_s = rc.acc; failed = !failed;
      bytes_per_op = float_of_int !bytes /. float_of_int ops; layers }
  in
  { ops; step; finish }
