(** Continuous delta replication: warm standbys, the replication fault
    matrix (partition / drop / dup / reorder / crash-mid-apply /
    heartbeat loss / source crash per phase), promotion-on-failure with
    fencing, and exactly-once output throughout. *)

open Util
open Hpm_core
open Hpm_net
open Hpm_machine
open Hpm_store

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpm_replica_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let with_store f =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f st)

let workload name = (Hpm_workloads.Registry.find_exn name).Hpm_workloads.Registry.source

let dec = Hpm_arch.Arch.dec5000
let sparc = Hpm_arch.Arch.sparc20

(* A replica over [standbys] (name, arch) running the jacobi workload. *)
let make_replica ?config ?faults ?(n = 8) ?(standbys = [ ("sb0", sparc) ]) st =
  let m = prepare (workload "jacobi" n) in
  let expected, _, _ = Migration.run_plain m dec in
  let src, _ = suspend m dec 1 in
  let r =
    Replica.create ?config ?faults ~channel:(Netsim.ethernet_10 ())
      ~store:st ~proc:"j" ~standbys m src
  in
  (m, expected, r)

(* Finish the promoted interpreter and check combined output is exactly
   one plain run. *)
let check_exactly_once name expected (r : Replica.t) (pm : Replica.promotion) =
  let rest =
    match Interp.run pm.Replica.pm_interp with
    | Interp.RDone _ -> Interp.output pm.Replica.pm_interp
    | _ -> Alcotest.fail "promoted standby did not finish"
  in
  check_string name expected (Replica.released_output r ^ rest)

(* ---------------------------------------------------------------- *)
(* Streaming basics                                                  *)
(* ---------------------------------------------------------------- *)

let test_stream_ships_and_commits () =
  with_store (fun st ->
      let _m, _expected, r =
        make_replica st ~standbys:[ ("sb0", sparc); ("sb1", dec) ]
      in
      (match Replica.run r ~epochs:4 with
      | Replica.Streamed 4 -> ()
      | _ -> Alcotest.fail "expected 4 streamed epochs");
      check_int "store holds epochs 1..4" 4
        (List.length (Store.manifest_epochs st ~proc:"j"));
      List.iter
        (fun sb ->
          check_int
            (Printf.sprintf "%s caught up" sb.Replica.sb_name)
            4 sb.Replica.sb_epoch;
          check_int
            (Printf.sprintf "%s lag" sb.Replica.sb_name)
            0 (Replica.lag r sb);
          check_int
            (Printf.sprintf "%s applied each epoch once" sb.Replica.sb_name)
            4 sb.Replica.sb_applied;
          (* the standby's materialized state is byte-identical to the
             source's own checkpoint of the same epoch *)
          let mf = Store.load_manifest st ~proc:"j" ~epoch:4 in
          let from_store =
            Snapshot.materialize ~ti:_m.Migration.ti
              ~lookup:(Store.get_chunk st) mf
          in
          check_string
            (Printf.sprintf "%s state byte-identical" sb.Replica.sb_name)
            from_store
            (Replica.standby_stream r sb))
        (Replica.standbys r);
      (* incremental epochs ship less than the initial full snapshot *)
      let full, incr =
        List.fold_left
          (fun (f, i) e ->
            match e with
            | Replica.Ev_delta { ed_kind = `Full; ed_bytes; _ } -> (max f ed_bytes, i)
            | Replica.Ev_delta { ed_kind = `Delta; ed_bytes; _ } -> (f, max i ed_bytes)
            | _ -> (f, i))
          (0, 0) (Replica.events r)
      in
      check_bool "delta epochs ship less than the full epoch" true
        (incr > 0 && full > 0 && incr < full))

let test_source_finish_ends_stream () =
  with_store (fun st ->
      let _, expected, r = make_replica st ~n:4 in
      let rec drain () =
        match Replica.stream_epoch r with
        | Replica.Streamed _ -> drain ()
        | s -> s
      in
      (match drain () with
      | Replica.Source_finished -> ()
      | _ -> Alcotest.fail "stream should end with Source_finished");
      check_string "output exactly once on completion" expected (Replica.output r))

(* ---------------------------------------------------------------- *)
(* The replication fault matrix: every cell resolves to exactly-once  *)
(* ---------------------------------------------------------------- *)

(* Kill the source at its next stream attempt and promote; the promoted
   run must produce exactly one program's output. *)
let kill_and_promote r epochs =
  Replica.set_faults r
    (Some (Netsim.rep_faults ~crash_source_at:(Netsim.Rp_stream, epochs + 1) ()));
  (match Replica.stream_epoch r with
  | Replica.Source_crashed Netsim.Rp_stream -> ()
  | _ -> Alcotest.fail "expected a source crash");
  Replica.promote r

let matrix_cell name faults ?(config = Replica.default_config) ?(epochs = 3) () =
  with_store (fun st ->
      let _, expected, r = make_replica ~config ~faults st in
      (match Replica.run r ~epochs with
      | Replica.Streamed _ -> ()
      | _ -> Alcotest.fail (name ^ ": stream did not survive the fault"));
      let pm = kill_and_promote r epochs in
      check_int (name ^ ": promotion resumes at the newest durable epoch")
        (Replica.epoch r) pm.Replica.pm_epoch;
      check_exactly_once (name ^ ": exactly-once") expected r pm)

let test_cell_drop () =
  matrix_cell "drop" (Netsim.rep_faults ~drop:[ ("sb0", 2) ] ()) ();
  (* the gap surfaced and was answered with a full resync *)
  with_store (fun st ->
      let _, _, r =
        make_replica ~faults:(Netsim.rep_faults ~drop:[ ("sb0", 2) ] ()) st
      in
      ignore (Replica.run r ~epochs:3);
      let evs = Replica.events r in
      check_bool "gap recorded" true
        (List.exists (function Replica.Ev_gap _ -> true | _ -> false) evs);
      check_bool "resync served" true
        (List.exists (function Replica.Ev_resync _ -> true | _ -> false) evs);
      let sb = List.hd (Replica.standbys r) in
      check_int "standby converged" 3 sb.Replica.sb_epoch)

let test_cell_dup () =
  matrix_cell "dup" (Netsim.rep_faults ~dup:[ ("sb0", 2) ] ()) ();
  with_store (fun st ->
      let _, _, r =
        make_replica ~faults:(Netsim.rep_faults ~dup:[ ("sb0", 2) ] ()) st
      in
      ignore (Replica.run r ~epochs:3);
      let sb = List.hd (Replica.standbys r) in
      check_int "duplicate was a no-op" 1 sb.Replica.sb_dups;
      check_int "each epoch applied once" 3 sb.Replica.sb_applied)

let test_cell_reorder () =
  matrix_cell "reorder" (Netsim.rep_faults ~reorder:[ ("sb0", 2) ] ()) ();
  with_store (fun st ->
      let _, _, r =
        make_replica ~faults:(Netsim.rep_faults ~reorder:[ ("sb0", 2) ] ()) st
      in
      ignore (Replica.run r ~epochs:3);
      let evs = Replica.events r in
      (* epoch 3 arrived first (gap -> resync), then the held epoch-2
         delta landed as a duplicate: state never regressed *)
      check_bool "late delta was a duplicate" true
        (List.exists (function Replica.Ev_dup _ -> true | _ -> false) evs);
      let sb = List.hd (Replica.standbys r) in
      check_int "standby at the newest epoch" 3 sb.Replica.sb_epoch)

let test_cell_crash_apply () =
  matrix_cell "crash-apply" (Netsim.rep_faults ~crash_apply:[ ("sb0", 2) ] ()) ();
  with_store (fun st ->
      let _, _, r =
        make_replica ~faults:(Netsim.rep_faults ~crash_apply:[ ("sb0", 2) ] ()) st
      in
      ignore (Replica.run r ~epochs:3);
      let evs = Replica.events r in
      check_bool "standby crash recorded" true
        (List.exists (function Replica.Ev_standby_crash _ -> true | _ -> false) evs);
      check_bool "restart triggered a full resync" true
        (List.exists (function Replica.Ev_resync _ -> true | _ -> false) evs);
      let sb = List.hd (Replica.standbys r) in
      check_int "standby recovered to the newest epoch" 3 sb.Replica.sb_epoch)

let test_cell_partition_heals () =
  (* a short partition queues deltas in the outbox and flushes them in
     order once it heals *)
  let config = { Replica.default_config with Replica.miss_limit = 10 } in
  matrix_cell "partition"
    (Netsim.rep_faults ~partition:[ ("sb0", 2, 2) ] ())
    ~config ~epochs:5 ();
  with_store (fun st ->
      let _, _, r =
        make_replica ~config
          ~faults:(Netsim.rep_faults ~partition:[ ("sb0", 2, 2) ] ())
          st
      in
      ignore (Replica.run r ~epochs:5);
      let evs = Replica.events r in
      check_int "two epochs queued behind the partition" 2
        (List.length
           (List.filter (function Replica.Ev_partition _ -> true | _ -> false) evs));
      check_bool "no degrade within the outbox bound" false
        (List.exists (function Replica.Ev_degraded _ -> true | _ -> false) evs);
      let sb = List.hd (Replica.standbys r) in
      check_int "outbox flushed in order; standby converged" 5 sb.Replica.sb_epoch;
      check_int "nothing left in flight" 0 sb.Replica.sb_outbox_bytes)

let test_cell_partition_degrades () =
  (* a long partition overflows the bounded outbox: the subscriber
     degrades to store-only shipping instead of buffering unboundedly *)
  let config = { Replica.default_config with Replica.miss_limit = 99 } in
  with_store (fun st ->
      let _, expected, r =
        make_replica ~config
          ~faults:(Netsim.rep_faults ~partition:[ ("sb0", 2, 6) ] ())
          st
      in
      ignore (Replica.run r ~epochs:6);
      let sb = List.hd (Replica.standbys r) in
      check_bool "subscriber degraded" true (sb.Replica.sb_state = Replica.Sub_degraded);
      check_bool "degrade event recorded" true
        (List.exists
           (function Replica.Ev_degraded _ -> true | _ -> false)
           (Replica.events r));
      check_int "outbox was dropped, not grown" 0 sb.Replica.sb_outbox_bytes;
      check_bool "standby froze behind" true (sb.Replica.sb_epoch < 6);
      let frozen = sb.Replica.sb_epoch in
      (* the store kept shipping: promotion still resumes at the newest
         durable epoch and replays exactly once *)
      let pm = kill_and_promote r 6 in
      check_int "catch-up covered the degraded lag" (6 - frozen)
        pm.Replica.pm_catchup;
      check_int "resumed at the newest durable epoch" 6 pm.Replica.pm_epoch;
      check_exactly_once "degraded standby still exactly-once" expected r pm)

let test_cell_heartbeat_loss () =
  (* miss_limit consecutive heartbeat losses declare the standby lost *)
  with_store (fun st ->
      let _, expected, r =
        make_replica
          ~standbys:[ ("sb0", sparc); ("sb1", dec) ]
          ~faults:(Netsim.rep_faults ~lose_heartbeat:[ ("sb0", 2); ("sb0", 3) ] ())
          st
      in
      ignore (Replica.run r ~epochs:4);
      let sb0 = Replica.find_standby r "sb0" in
      let sb1 = Replica.find_standby r "sb1" in
      check_bool "sb0 declared lost" true (sb0.Replica.sb_state = Replica.Sub_lost);
      check_bool "loss event recorded" true
        (List.exists
           (function Replica.Ev_standby_lost _ -> true | _ -> false)
           (Replica.events r));
      check_int "sb1 unaffected" 4 sb1.Replica.sb_epoch;
      (* promotion prefers the freshest committed standby: sb1 *)
      let pm = kill_and_promote r 4 in
      check_string "freshest standby promoted" "sb1" pm.Replica.pm_sub;
      check_exactly_once "exactly-once past a lost standby" expected r pm)

let test_single_miss_recovers () =
  with_store (fun st ->
      let _, _, r =
        make_replica ~faults:(Netsim.rep_faults ~lose_heartbeat:[ ("sb0", 2) ] ()) st
      in
      ignore (Replica.run r ~epochs:4);
      let sb = List.hd (Replica.standbys r) in
      check_bool "one miss below the limit stays live" true
        (sb.Replica.sb_state = Replica.Sub_live);
      check_int "miss counter reset by the next heartbeat" 0 sb.Replica.sb_hb_misses)

(* ---------------------------------------------------------------- *)
(* Promotion race matrix: lag x crash phase                           *)
(* ---------------------------------------------------------------- *)

(* Hold sb0 [lag] epochs behind with a partition that never heals, crash
   the source during [phase], and check promotion is exactly-once. *)
let promotion_race ~lag ~phase () =
  with_store (fun st ->
      let epochs = 4 in
      let config =
        { Replica.default_config with Replica.miss_limit = 99; Replica.max_lag = 99;
          Replica.outbox_limit = 99 }
      in
      let faults =
        Netsim.rep_faults
          ?partition:(if lag > 0 then Some [ ("sb0", epochs - lag + 1, 99) ] else None)
          ()
      in
      let _, expected, r = make_replica ~config ~faults st in
      let sb = List.hd (Replica.standbys r) in
      match phase with
      | Netsim.Rp_stream ->
          ignore (Replica.run r ~epochs);
          check_int "standby lags as configured" lag (Replica.lag r sb);
          (match r.Replica.r_faults with
          | Some rf ->
              rf.Netsim.rp_crash_source_at <- Some (Netsim.Rp_stream, epochs + 1)
          | None -> assert false);
          (match Replica.stream_epoch r with
          | Replica.Source_crashed Netsim.Rp_stream -> ()
          | _ -> Alcotest.fail "expected a stream-phase crash");
          let pm = Replica.promote r in
          check_int "caught up from the store" lag pm.Replica.pm_catchup;
          check_int "resumed at the newest durable epoch" epochs pm.Replica.pm_epoch;
          check_exactly_once "stream-crash exactly-once" expected r pm;
          (* the old incarnation is fenced: a recovering source must
             discard itself *)
          (match Replica.source_recover r with
          | Replica.Recovery_fenced 2 -> ()
          | _ -> Alcotest.fail "recovering source should find the fence");
          expect_raise "fenced source cannot stream"
            (function Replica.Fenced 2 -> true | _ -> false)
            (fun () -> ignore (Replica.stream_epoch r))
      | Netsim.Rp_final_delta ->
          ignore (Replica.run r ~epochs);
          (match r.Replica.r_faults with
          | Some rf ->
              rf.Netsim.rp_crash_source_at <- Some (Netsim.Rp_final_delta, epochs + 1)
          | None -> assert false);
          (match Replica.migrate r ~sub:"sb0" with
          | Replica.Crashed_before_handoff Netsim.Rp_final_delta -> ()
          | _ -> Alcotest.fail "expected a final-delta crash");
          (* nothing of the final epoch became durable *)
          check_int "final epoch never committed" epochs (Replica.epoch r);
          let pm = Replica.promote r in
          check_int "resumed at the last committed epoch" epochs pm.Replica.pm_epoch;
          check_exactly_once "final-delta-crash exactly-once" expected r pm
      | Netsim.Rp_commit ->
          ignore (Replica.run r ~epochs);
          (* the commit-phase crash is the two-phase handoff's own cell:
             the destination already holds the final delta, the probe
             discovers the commit, and the migration stands *)
          let nf =
            Netsim.node_faults ~crash_source_after:Netsim.Ph_commit ()
          in
          (match Replica.migrate r ~faults:nf ~sub:"sb0" with
          | Replica.Migrated hres -> (
              match hres.Handoff.outcome with
              | Handoff.Committed c ->
                  check_bool "source crashed after commit" true
                    c.Handoff.c_src_crashed;
                  let rest =
                    match Interp.run c.Handoff.c_dst with
                    | Interp.RDone _ -> Interp.output c.Handoff.c_dst
                    | _ -> Alcotest.fail "destination did not finish"
                  in
                  check_string "commit-crash exactly-once" expected
                    (Replica.released_output r ^ rest)
              | _ -> Alcotest.fail "commit-phase crash must still commit")
          | _ -> Alcotest.fail "expected the migration to run"))

let test_promotion_races () =
  List.iter
    (fun lag ->
      List.iter
        (fun phase -> promotion_race ~lag ~phase ())
        Netsim.all_rep_phases)
    [ 0; 1; 3 ]

let test_promote_requires_committed_standby () =
  with_store (fun st ->
      let _, _, r = make_replica st in
      expect_raise "no committed standby"
        (function Store.Error _ -> true | _ -> false)
        (fun () -> ignore (Replica.promote r)))

(* ---------------------------------------------------------------- *)
(* Planned migration: final delta + two-phase handoff                 *)
(* ---------------------------------------------------------------- *)

let test_planned_migration_final_delta () =
  with_store (fun st ->
      let _, expected, r = make_replica st in
      ignore (Replica.run r ~epochs:3);
      match Replica.migrate r ~sub:"sb0" with
      | Replica.Migrated { Handoff.outcome = Handoff.Committed c; _ } ->
          (* no stop-the-world collect: the final delta is much smaller
             than the standby's full state *)
          let full_bytes =
            match List.hd (Replica.standbys r) with
            | sb -> String.length (Replica.standby_stream r sb)
          in
          let final_bytes =
            List.fold_left
              (fun acc e ->
                match e with
                | Replica.Ev_store { es_epoch = 4; es_bytes } -> es_bytes
                | _ -> acc)
              0 (Replica.events r)
          in
          check_bool
            (Printf.sprintf "final delta %dB < full state %dB" final_bytes full_bytes)
            true
            (final_bytes > 0 && final_bytes < full_bytes);
          (* the collect stats describe the full materialised stream, as
             Collect.collect's do; the delta wire is [final_bytes] *)
          check_int "collect stats report the full stream" full_bytes
            c.Handoff.c_cstats.Cstats.c_stream_bytes;
          check_int "the handoff's stream is the full stream" full_bytes
            c.Handoff.c_stream_bytes;
          check_int "store's newest durable point is the final epoch" 4
            (Replica.epoch r);
          let rest =
            match Interp.run c.Handoff.c_dst with
            | Interp.RDone _ -> Interp.output c.Handoff.c_dst
            | _ -> Alcotest.fail "destination did not finish"
          in
          check_string "planned migration exactly-once" expected
            (Replica.released_output r ^ rest)
      | _ -> Alcotest.fail "planned migration did not commit")

(* ---------------------------------------------------------------- *)
(* Determinism: same seed, same trace                                 *)
(* ---------------------------------------------------------------- *)

let trace_of r =
  String.concat "\n" (List.map (Fmt.str "%a" Replica.pp_event) (Replica.events r))

let test_deterministic_traces () =
  let run_once () =
    with_store (fun st ->
        let faults =
          Netsim.rep_faults ~drop:[ ("sb0", 2) ] ~dup:[ ("sb1", 3) ]
            ~lose_heartbeat:[ ("sb1", 2) ] ()
        in
        let _, _, r =
          make_replica ~faults ~standbys:[ ("sb0", sparc); ("sb1", dec) ] st
        in
        ignore (Replica.run r ~epochs:4);
        let pm = kill_and_promote r 4 in
        (trace_of r, pm.Replica.pm_sub, Replica.time_s r))
  in
  let t1, s1, d1 = run_once () in
  let t2, s2, d2 = run_once () in
  check_string "same seed, same event trace" t1 t2;
  check_string "same promotion choice" s1 s2;
  check_bool "same simulated time" true (d1 = d2)

(* ---------------------------------------------------------------- *)
(* QCheck: out-of-order / duplicate / gapped delta sequences          *)
(* ---------------------------------------------------------------- *)

(* Pre-compute one lineage of delta wires (and reference checkpoints)
   by streaming a real replica, reading the deltas back from the store. *)
let lineage =
  lazy
    (let dir = fresh_dir () in
     let st = Store.open_store dir in
     let m = prepare (workload "jacobi" 8) in
     let src, _ = suspend m dec 1 in
     let r =
       Replica.create ~channel:(Netsim.ethernet_10 ()) ~store:st ~proc:"j"
         ~standbys:[ ("sb0", sparc) ] m src
     in
     ignore (Replica.run r ~epochs:5);
     let wires =
       List.map
         (fun e ->
           let mf = Store.load_manifest st ~proc:"j" ~epoch:e in
           let base =
             if e = 1 then None
             else Some (Store.load_manifest st ~proc:"j" ~epoch:(e - 1))
           in
           (e, Store.encode_delta ?base ~lookup:(Store.get_chunk st) mf))
         (Store.manifest_epochs st ~proc:"j")
     in
     let refs =
       List.map
         (fun e ->
           let mf = Store.load_manifest st ~proc:"j" ~epoch:e in
           (e, Snapshot.materialize ~ti:m.Migration.ti ~lookup:(Store.get_chunk st) mf))
         (Store.manifest_epochs st ~proc:"j")
     in
     (m, wires, refs))

let prop_fuzz_delta_sequences =
  qt ~count:200 "fuzz: any delta sequence leaves byte-identical state or typed resync"
    QCheck.(list_of_size (Gen.int_range 0 12) (int_bound 20))
    (fun picks ->
      let m, wires, refs = Lazy.force lineage in
      let n = List.length wires in
      let sb = Replica.fresh_standby ~arch:sparc "fz" in
      List.iter
        (fun i ->
          let _, wire = List.nth wires (i mod n) in
          match Replica.standby_apply sb wire with
          | Replica.Applied _ | Replica.Duplicate -> ()
          | Replica.Resync_required { rr_have; _ } ->
              (* typed resync: the standby still reports the newest state
                 it holds, and that state (if any) is intact *)
              assert (rr_have = sb.Replica.sb_epoch))
        picks;
      (* invariant: whatever was applied, the standby's materialized
         state is byte-identical to the source's checkpoint of exactly
         that epoch *)
      match sb.Replica.sb_manifest with
      | None -> true
      | Some mf ->
          let reference = List.assoc mf.Store.mf_epoch refs in
          let got =
            Snapshot.materialize ~ti:m.Migration.ti
              ~lookup:(fun h -> Hashtbl.find sb.Replica.sb_chunks h)
              mf
          in
          String.equal reference got)

(* ---------------------------------------------------------------- *)
(* Store pins: GC must not eat an in-flight delta's base              *)
(* ---------------------------------------------------------------- *)

let test_pin_protects_delta_base () =
  with_store (fun st ->
      let m = prepare (workload "jacobi" 8) in
      let src, _ = suspend m dec 1 in
      let cache = Snapshot.new_cache () in
      let mf1, ch1, st1 = Snapshot.collect ~epoch:1 ~proc:"p" ~cache src m.Migration.ti in
      Snapshot.persist st mf1 ch1 st1;
      (* the delta for epoch 2 is in flight: its wire is encoded but not
         yet applied, and nothing else references epoch 1 *)
      Interp.request_migration_after src 0;
      ignore (Interp.run src);
      let mf2, ch2, _ = Snapshot.collect ~epoch:2 ~proc:"p" ~cache src m.Migration.ti in
      Hashtbl.iter (Hashtbl.replace ch1) ch2;
      let wire2 =
        Store.encode_delta ~base:mf1 ~lookup:(Hashtbl.find ch1) mf2
      in
      (* without a pin, retain+gc would collect epoch-1-only chunks and
         the in-flight application could never materialize its manifest *)
      Store.pin st (Store.manifest_hashes mf1);
      let removed_mfs = Store.retain st ~proc:"p" ~keep:0 in
      check_bool "retain dropped the old manifest" true (removed_mfs > 0);
      let g = Store.gc st in
      check_bool "gc kept the pinned base chunks" true (g.Store.gc_pinned_chunks > 0);
      check_int "nothing pinned was collected" 0 g.Store.gc_reclaimed_chunks;
      (* the in-flight delta now applies and materializes *)
      let applied = Store.apply st ~expect_base:mf1 wire2 in
      check_int "delta applied against the pinned base" 2 applied.Store.mf_epoch;
      Store.unpin st (Store.manifest_hashes mf1);
      check_int "pin table drained" 0 (Store.pinned_chunks st);
      (* with the pin gone (and epoch 2 the only retained manifest), the
         epoch-1-only chunks are collectable *)
      ignore (Store.retain st ~proc:"p" ~keep:1);
      ignore (Store.gc st))

let test_pin_released_on_crash () =
  with_store (fun st ->
      let m = prepare (workload "jacobi" 8) in
      let src, _ = suspend m dec 1 in
      let mf, ch, sts = Snapshot.collect ~epoch:1 ~proc:"p" src m.Migration.ti in
      Snapshot.persist st mf ch sts;
      (* a crash in the middle of the pinned window must not leak pins *)
      (try
         Store.with_pins st (Store.manifest_hashes mf) (fun () ->
             check_bool "pins held inside the window" true
               (Store.pinned_chunks st > 0);
             failwith "injected crash")
       with Failure _ -> ());
      check_int "crash released every pin" 0 (Store.pinned_chunks st))

let test_apply_is_pinned_against_gc () =
  (* Replica streaming holds retention pins for the newest manifest and
     every standby base: an operator retain+gc between epochs cannot
     break a later catch-up or resync *)
  with_store (fun st ->
      let _, expected, r = make_replica st in
      ignore (Replica.run r ~epochs:2);
      check_bool "subscription holds retention pins" true
        (Store.pinned_chunks st > 0);
      ignore (Store.retain st ~proc:"j" ~keep:1);
      let g = Store.gc st in
      check_bool "gc ran with pins live" true (g.Store.gc_pinned_chunks >= 0);
      ignore (Replica.run r ~epochs:2);
      let pm = kill_and_promote r 4 in
      check_exactly_once "gc between epochs stays exactly-once" expected r pm;
      Replica.close r;
      check_int "close releases the retention pins" 0 (Store.pinned_chunks st))

let suite =
  [
    tc "stream: ships, commits, standbys byte-identical" test_stream_ships_and_commits;
    tc "stream: source completion ends the stream" test_source_finish_ends_stream;
    tc "matrix: delta drop -> gap -> resync" test_cell_drop;
    tc "matrix: duplicate delta is a no-op" test_cell_dup;
    tc "matrix: reordered delta never regresses state" test_cell_reorder;
    tc "matrix: standby crash mid-apply resyncs" test_cell_crash_apply;
    tc "matrix: short partition queues and flushes" test_cell_partition_heals;
    tc "matrix: long partition degrades to store-only" test_cell_partition_degrades;
    tc "matrix: heartbeat loss declares the standby lost" test_cell_heartbeat_loss;
    tc "matrix: a single miss recovers" test_single_miss_recovers;
    tc_slow "promotion races: lag {0,1,3} x crash {stream,final-delta,commit}"
      test_promotion_races;
    tc "promotion: requires a committed standby" test_promote_requires_committed_standby;
    tc "planned migration: final delta only, no stop-the-world" test_planned_migration_final_delta;
    tc "determinism: same seed, same trace" test_deterministic_traces;
    prop_fuzz_delta_sequences;
    tc "store: pin protects an in-flight delta base from gc" test_pin_protects_delta_base;
    tc "store: crash inside the pin window releases pins" test_pin_released_on_crash;
    tc "store: gc during a live subscription stays exactly-once" test_apply_is_pinned_against_gc;
  ]
