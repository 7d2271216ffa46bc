(** Iterative pre-copy migration and the scheduler's store-backed
    durability: convergence, round failures, crash recovery from the
    newest committed manifest, and exactly-once output throughout. *)

open Util
open Hpm_core
open Hpm_net
open Hpm_machine
open Hpm_store
open Hpm_sched

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpm_precopy_%d_%d" (Unix.getpid ()) !n)

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

(* ---------------------------------------------------------------- *)
(* Precopy.execute                                                   *)
(* ---------------------------------------------------------------- *)

let test_precopy_commits () =
  with_store (fun st ->
      let m = prepare (workload "jacobi" 8) in
      let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.dec5000 in
      let src, _ = suspend m Hpm_arch.Arch.dec5000 2 in
      let pres =
        Precopy.execute ~channel:(Netsim.ethernet_10 ()) ~dst_store:st ~proc:"j"
          m src Hpm_arch.Arch.sparc20
      in
      check_bool "at least full + final rounds" true (List.length pres.Precopy.p_rounds >= 2);
      (* every non-full round's wire is smaller than round 0's full wire *)
      (match pres.Precopy.p_rounds with
      | first :: rest ->
          check_bool "round 0 is the full snapshot" true (first.Precopy.pr_kind = `Full);
          List.iter
            (fun r ->
              check_bool
                (Printf.sprintf "round %d wire %dB < full %dB" r.Precopy.pr_epoch
                   r.Precopy.pr_wire_bytes first.Precopy.pr_wire_bytes)
                true
                (r.Precopy.pr_wire_bytes < first.Precopy.pr_wire_bytes))
            rest
      | [] -> Alcotest.fail "no rounds recorded");
      match pres.Precopy.p_outcome with
      | Precopy.Handed_off { Handoff.outcome = Handoff.Committed c; _ } -> (
          check_int "collect stats report the full stream"
            pres.Precopy.p_stats.Cstats.d_full_bytes c.Handoff.c_cstats.Cstats.c_stream_bytes;
          check_int "the handoff's stream is the full stream" c.Handoff.c_stream_bytes
            c.Handoff.c_cstats.Cstats.c_stream_bytes;
          (* resume the destination copy: combined output is exactly one run *)
          let pre = Interp.output src in
          let out =
            match Interp.run c.Handoff.c_dst with
            | Interp.RDone _ -> Interp.output c.Handoff.c_dst
            | _ -> Alcotest.fail "destination did not finish"
          in
          check_string "output exactly once" expected (pre ^ out);
          (* the destination store holds a committed manifest at the final epoch *)
          match Store.latest_manifest st ~proc:"j" with
          | Some mf ->
              check_int "store manifest at the final epoch" pres.Precopy.p_final_epoch
                mf.Store.mf_epoch
          | None -> Alcotest.fail "no manifest committed")
      | _ -> Alcotest.fail "pre-copy did not commit")

let test_round_failure_source_resumes () =
  with_store (fun st ->
      let m = prepare (workload "jacobi" 8) in
      let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.dec5000 in
      let faults = Netsim.fault_model ~corrupt_rate:1.0 ~seed:3 () in
      let src, _ = suspend m Hpm_arch.Arch.dec5000 2 in
      let pres =
        Precopy.execute ~channel:(Netsim.ethernet_10 ~faults ()) ~dst_store:st
          ~proc:"j" m src Hpm_arch.Arch.sparc20
      in
      (match pres.Precopy.p_outcome with
      | Precopy.Round_link_failed { rl_round; _ } ->
          check_int "round 0 (the full ship) failed" 0 rl_round
      | _ -> Alcotest.fail "expected Round_link_failed");
      (* the source keeps running locally: request cleared, output intact *)
      match Interp.run src with
      | Interp.RDone _ -> check_string "source finishes alone" expected (Interp.output src)
      | _ -> Alcotest.fail "source did not resume to completion")

let test_final_round_dst_crash_recoverable () =
  (* the destination dies in the final two-phase round: the durable
     artifact is the full materialized stream, so the retained checkpoint
     resumes anywhere *)
  with_store (fun st ->
      let m = prepare (workload "jacobi" 8) in
      let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.dec5000 in
      let src, _ = suspend m Hpm_arch.Arch.dec5000 2 in
      let pres =
        Precopy.execute
          ~faults:(Netsim.node_faults ~crash_dest_after:Netsim.Ph_restore ())
          ~channel:(Netsim.ethernet_10 ()) ~dst_store:st ~proc:"j" m src
          Hpm_arch.Arch.sparc20
      in
      match pres.Precopy.p_outcome with
      | Precopy.Handed_off { Handoff.outcome = Handoff.Abort_requeue q; _ } -> (
          let interp, _ =
            Handoff.resume_from_checkpoint m Hpm_arch.Arch.i386
              ~epoch:q.Handoff.q_epoch q.Handoff.q_ckpt
          in
          let pre = Interp.output src in
          match Interp.run interp with
          | Interp.RDone _ ->
              check_string "requeued checkpoint finishes exactly once" expected
                (pre ^ Interp.output interp)
          | _ -> Alcotest.fail "requeued copy did not finish")
      | _ -> Alcotest.fail "expected Abort_requeue from the dead destination")

let test_finished_before_handoff () =
  with_store (fun st ->
      let m = prepare (workload "jacobi" 4) in
      let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.dec5000 in
      let src, _ = suspend m Hpm_arch.Arch.dec5000 0 in
      (* rounds long enough that the program completes mid-pre-copy *)
      let config = { Precopy.default_config with Precopy.round_polls = 1_000_000 } in
      let pres =
        Precopy.execute ~config ~channel:(Netsim.ethernet_10 ()) ~dst_store:st
          ~proc:"j" m src Hpm_arch.Arch.sparc20
      in
      (match pres.Precopy.p_outcome with
      | Precopy.Finished_before_handoff -> ()
      | _ -> Alcotest.fail "expected Finished_before_handoff");
      check_string "source holds the full output" expected (Interp.output src))

(* ---------------------------------------------------------------- *)
(* Scheduler: periodic checkpoints, crash recovery, pre-copy moves   *)
(* ---------------------------------------------------------------- *)

let nqueens n = prepare (Hpm_workloads.Nqueens.source n)

let test_sched_periodic_checkpoints () =
  with_store (fun st ->
      let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
      let sim =
        Sched.create ~channel:(Netsim.ethernet_10 ()) ~store:st ~ckpt_every_s:0.05
          [ slow ]
      in
      let p = Sched.spawn sim slow "q7" (nqueens 7) in
      let _ = Sched.run sim in
      check_string "output exactly once" "40\n" (Sched.output p);
      let epochs =
        List.filter_map
          (fun e ->
            if e.Journal.j_ev = Journal.Checkpointed then Some e.Journal.j_epoch
            else None)
          (Sched.events sim)
      in
      check_bool
        (Printf.sprintf "several checkpoints taken (%d)" (List.length epochs))
        true
        (List.length epochs >= 2);
      check_bool "epochs strictly increase" true
        (List.for_all (fun x -> x) (List.map2 ( < )
           (List.filteri (fun i _ -> i < List.length epochs - 1) epochs)
           (List.tl epochs)));
      check_bool "manifests committed" true
        (List.length (Store.manifest_epochs st ~proc:"q7") >= 2))

let test_sched_crash_recovery_from_store () =
  with_store (fun st ->
      let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
      let sim =
        Sched.create ~channel:(Netsim.ethernet_10 ()) ~store:st ~ckpt_every_s:0.05
          [ slow ]
      in
      let p = Sched.spawn sim slow "q7" (nqueens 7) in
      check_bool "no recovery without any durable state" false
        (Sched.recover_from_store sim p);
      (* run until at least two checkpoints are durable, then "crash" and
         recover from the store *)
      while List.length (Store.manifest_epochs st ~proc:"q7") < 2 do
        Sched.tick sim
      done;
      check_bool "not finished yet" true
        (match p.Sched.p_state with Sched.Finished _ -> false | _ -> true);
      (* damage the newest manifest: recovery must skip it and use the
         previous committed epoch *)
      let epochs = List.rev (Store.manifest_epochs st ~proc:"q7") in
      let newest = List.hd epochs in
      let path =
        Filename.concat (Filename.concat st.Store.dir "manifests")
          (Printf.sprintf "q7.%08d.mf" newest)
      in
      let oc = open_out path in
      output_string oc "torn write";
      close_out oc;
      check_bool "recovered" true (Sched.recover_from_store sim p);
      check_int "one recovery counted" 1 p.Sched.p_recoveries;
      let _ = Sched.run sim in
      check_string "output exactly once after crash" "40\n" (Sched.output p);
      check_bool "recovery event names the surviving epoch" true
        (List.exists
           (fun e ->
             e.Journal.j_ev = Journal.Recovered
             && e.Journal.j_note
                = Printf.sprintf "crash recovery: store manifest epoch %d"
                    (List.nth epochs 1))
           (Sched.events sim)))

let test_sched_precopy_migration () =
  with_store (fun st ->
      let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
      let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
      let sim =
        Sched.create ~channel:(Netsim.ethernet_10 ()) ~store:st
          ~precopy:{ Precopy.default_config with Precopy.round_polls = 5 }
          [ slow; fast ]
      in
      let p = Sched.spawn sim slow "q7" (nqueens 7) in
      Sched.request_migration sim p fast;
      let _ = Sched.run sim in
      check_string "output exactly once" "40\n" (Sched.output p);
      check_int "one migration" 1 p.Sched.p_migrations;
      check_bool "ends on fast" true (p.Sched.p_node == fast);
      match
        List.find_opt (fun e -> e.Journal.j_ev = Journal.Migrated) (Sched.events sim)
      with
      | Some e ->
          check_bool "pre-copy shipped chunks" true (e.Journal.j_chunks_shipped > 0)
      | None -> Alcotest.fail "no Migrated event")

let suite =
  [
    tc "pre-copy converges and commits" test_precopy_commits;
    tc "failed round resumes the source" test_round_failure_source_resumes;
    tc "final-round destination crash is recoverable" test_final_round_dst_crash_recoverable;
    tc "source finishing mid-pre-copy aborts the move" test_finished_before_handoff;
    tc "scheduler takes periodic checkpoints" test_sched_periodic_checkpoints;
    tc "scheduler crash recovery skips a torn manifest" test_sched_crash_recovery_from_store;
    tc "scheduler pre-copy migration" test_sched_precopy_migration;
  ]
