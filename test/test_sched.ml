(** Scheduler / distributed-environment tests. *)

open Hpm_sched
open Util
module Journal = Hpm_store.Journal
module Obs = Hpm_obs.Obs

let logged sim kind = List.exists (fun e -> e.Journal.j_ev = kind) (Sched.events sim)

let nqueens n = Util.prepare (Hpm_workloads.Nqueens.source n)

let mk_env () =
  let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
  let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
  let sim = Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) [ slow; fast ] in
  (sim, slow, fast)

let test_run_to_completion () =
  let sim, slow, _ = mk_env () in
  let p = Sched.spawn sim slow "q6" (nqueens 6) in
  let _ = Sched.run sim in
  check_bool "finished" true (match p.Sched.p_state with Sched.Finished _ -> true | _ -> false);
  check_string "correct output" "4\n" (Sched.output p);
  check_int "no migrations" 0 p.Sched.p_migrations

let test_explicit_migration () =
  let sim, slow, fast = mk_env () in
  let p = Sched.spawn sim slow "q7" (nqueens 7) in
  Sched.request_migration sim p fast;
  let _ = Sched.run sim in
  check_string "output survives" "40\n" (Sched.output p);
  check_int "one migration" 1 p.Sched.p_migrations;
  check_bool "ends on fast" true (p.Sched.p_node == fast);
  (* the event log records request, migrate, finish in order *)
  let kinds = List.map (fun e -> e.Journal.j_ev) (Sched.events sim) in
  check_bool "event order" true
    (kinds = Journal.[ Spawned; Requested; Migrated; Finished ])

let test_migration_to_same_node_ignored () =
  let sim, slow, _ = mk_env () in
  let p = Sched.spawn sim slow "q5" (nqueens 5) in
  Sched.request_migration sim p slow;
  let _ = Sched.run sim in
  check_int "no self-migration" 0 p.Sched.p_migrations;
  check_string "still correct" "10\n" (Sched.output p)

let test_load_balance_beats_none () =
  let run policy =
    let sim, slow, _ = mk_env () in
    let procs = List.init 4 (fun i -> Sched.spawn sim slow (Printf.sprintf "j%d" i) (nqueens 7)) in
    let _ = Sched.run ~policy sim in
    List.iter (fun p -> check_string "each job correct" "40\n" (Sched.output p)) procs;
    List.fold_left
      (fun acc p -> max acc (Option.value ~default:infinity p.Sched.p_finish_time))
      0.0 procs
  in
  let t_none = run (fun _ -> ()) in
  let t_lb = run Sched.load_balance in
  check_bool
    (Printf.sprintf "load balancing helps (%.2f vs %.2f)" t_lb t_none)
    true (t_lb < t_none)

let test_seek_fastest () =
  let sim, slow, fast = mk_env () in
  let p = Sched.spawn sim slow "solo" (nqueens 8) in
  let _ = Sched.run ~policy:Sched.seek_fastest sim in
  check_string "correct" "92\n" (Sched.output p);
  check_bool "moved to the fast node" true (p.Sched.p_node == fast);
  check_int "exactly one migration" 1 p.Sched.p_migrations

let test_heterogeneous_cluster () =
  (* all five architectures in one cluster; a job hops through explicit
     requests and still computes the right answer *)
  let nodes = List.map (fun a -> Sched.node a.Hpm_arch.Arch.name a) Hpm_arch.Arch.all in
  let sim = Sched.create ~channel:(Hpm_net.Netsim.ethernet_100 ()) nodes in
  let p = Sched.spawn sim (List.hd nodes) "tour" (nqueens 8) in
  (* chain requests: after each migration completes, request the next *)
  let rec chase = function
    | [] -> fun _ -> ()
    | nd :: rest ->
        fun sim ->
          if p.Sched.p_node != nd && p.Sched.p_pending_dst = None
             && p.Sched.p_state = Sched.Runnable
          then Sched.request_migration sim p nd
          else if p.Sched.p_node == nd then (chase rest) sim
  in
  let _ = Sched.run ~policy:(chase (List.tl nodes)) sim in
  check_string "toured output" "92\n" (Sched.output p);
  check_bool "migrated several times" true (p.Sched.p_migrations >= 2)

let test_cpu_sharing () =
  (* two processes on one node each get half the CPU: the pair's makespan
     is roughly twice a solo run's *)
  let solo =
    let sim, slow, _ = mk_env () in
    let p = Sched.spawn sim slow "solo" (nqueens 7) in
    let _ = Sched.run sim in
    Option.get p.Sched.p_finish_time
  in
  let paired =
    let sim, slow, _ = mk_env () in
    let ps = List.init 2 (fun i -> Sched.spawn sim slow (Printf.sprintf "p%d" i) (nqueens 7)) in
    let _ = Sched.run sim in
    List.fold_left (fun acc p -> max acc (Option.get p.Sched.p_finish_time)) 0.0 ps
  in
  check_bool
    (Printf.sprintf "timesharing (solo %.2f, paired %.2f)" solo paired)
    true
    (paired > 1.5 *. solo && paired < 3.0 *. solo)

let test_failed_migration_requeues_on_source () =
  (* a dead link: the transfer aborts and the scheduler re-queues the
     process on its source node, which finishes it correctly *)
  let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
  let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
  let faults = Hpm_net.Netsim.fault_model ~corrupt_rate:1.0 ~seed:7 () in
  let sim =
    Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ~faults ()) [ slow; fast ]
  in
  let p = Sched.spawn sim slow "doomed" (nqueens 7) in
  Sched.request_migration sim p fast;
  let _ = Sched.run sim in
  check_string "output still correct" "40\n" (Sched.output p);
  check_bool "stayed on source" true (p.Sched.p_node == slow);
  check_int "no migration counted" 0 p.Sched.p_migrations;
  check_int "one failed migration" 1 p.Sched.p_failed_migrations;
  check_bool "failure event logged" true (logged sim Journal.Failed)

let test_lossy_migration_still_succeeds () =
  (* a merely bad link: retries absorb the faults and the migration lands *)
  let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
  let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
  let faults = Hpm_net.Netsim.fault_model ~loss_rate:0.15 ~corrupt_rate:0.15 ~seed:11 () in
  let sim =
    Sched.create
      ~channel:(Hpm_net.Netsim.ethernet_10 ~faults ())
      ~transport:{ Hpm_net.Transport.default_config with Hpm_net.Transport.chunk_size = 512 }
      [ slow; fast ]
  in
  let p = Sched.spawn sim slow "bumpy" (nqueens 7) in
  Sched.request_migration sim p fast;
  let _ = Sched.run sim in
  check_string "output survives faults" "40\n" (Sched.output p);
  check_int "migration succeeded" 1 p.Sched.p_migrations;
  check_bool "ends on fast" true (p.Sched.p_node == fast)

let test_compat_gate_blocks_illegal_destination () =
  (* a double-heavy job on an x86_64 node; the cluster also has a
     wasm32-style node that stores doubles at f32 precision.  With the
     compat gate installed the scheduler must refuse to place the job
     there — and still honour a legal request to an aarch64 node. *)
  let src =
    {|int main() {
  double d;
  int i;
  d = 0.1;
  for (i = 0; i < 100; i = i + 1) {
    d = d + 0.1;
  }
  print_int(i);
  return 0;
}
|}
  in
  let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
  let cramped = Sched.node "cramped" Hpm_arch.Arch.wasm32_le_ilp32 in
  let arm = Sched.node "arm" Hpm_arch.Arch.aarch64_le_lp64 in
  let compat (m : Hpm_core.Migration.migratable) ~src ~dst =
    let c = Hpm_core.Compat.create m.Hpm_core.Migration.prog m.Hpm_core.Migration.polls in
    Hpm_core.Compat.ok c ~src ~dst
  in
  let sim =
    Sched.create ~compat ~channel:(Hpm_net.Netsim.ethernet_10 ())
      [ fast; cramped; arm ]
  in
  let p = Sched.spawn sim fast "fp" (Util.prepare src) in
  Sched.request_migration sim p cramped;
  check_int "rejection counted" 1 (Sched.count sim p Journal.Compat_rejected);
  check_bool "no pending destination" true (p.Sched.p_pending_dst = None);
  check_bool "rejection event logged" true (logged sim Journal.Compat_rejected);
  (* the same job may still move to a hard-double machine *)
  Sched.request_migration sim p arm;
  let _ = Sched.run sim in
  check_string "answer survives" "100\n" (Sched.output p);
  check_int "legal migration went through" 1 p.Sched.p_migrations;
  check_bool "ends on arm" true (p.Sched.p_node == arm);
  check_int "still exactly one rejection" 1 (Sched.count sim p Journal.Compat_rejected)

let test_network_accounting () =
  let sim, slow, fast = mk_env () in
  let p = Sched.spawn sim slow "acct" (nqueens 7) in
  Sched.request_migration sim p fast;
  let _ = Sched.run sim in
  check_int "one message on the wire" 1 sim.Sched.channel.Hpm_net.Netsim.messages;
  check_bool "bytes accounted" true (sim.Sched.channel.Hpm_net.Netsim.bytes_sent > 100)

(* ---------------------------------------------------------------- *)
(* Continuous replication through the scheduler                      *)
(* ---------------------------------------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpm_sched_rep_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let with_rep_env f =
  let dir = fresh_dir () in
  let st = Hpm_store.Store.open_store dir in
  let src = Sched.node "src" Hpm_arch.Arch.dec5000 in
  let sb0 = Sched.node "sb0" Hpm_arch.Arch.sparc20 in
  let sb1 = Sched.node "sb1" Hpm_arch.Arch.x86_64 in
  let sim =
    Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~store:st
      [ src; sb0; sb1 ]
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with _ -> ())
    (fun () -> f sim src (sb0, sb1))

let jacobi n = Util.prepare (Hpm_workloads.Jacobi.source n)

let test_replicate_promote_exactly_once () =
  with_rep_env (fun sim src (sb0, sb1) ->
      let expected, _, _ =
        Hpm_core.Migration.run_plain (jacobi 8) Hpm_arch.Arch.dec5000
      in
      let p = Sched.spawn sim src "j" (jacobi 8) in
      let r =
        Sched.replicate sim p ~standbys:[ sb0; sb1 ]
          ~faults:(Hpm_net.Netsim.rep_faults ~drop:[ ("sb0", 2) ] ())
      in
      (match Sched.stream_replica sim p r ~epochs:3 with
      | Hpm_store.Replica.Streamed 3 -> ()
      | _ -> Alcotest.fail "expected 3 streamed epochs");
      (* the dropped delta surfaced as a scheduler Resynced event *)
      check_int "resync counted on the process" 1 (Sched.count sim p Journal.Resynced);
      check_bool "Resynced event logged" true
        (List.exists
           (fun e ->
             e.Journal.j_ev = Journal.Resynced && e.Journal.j_proc = "j"
             && e.Journal.j_node = "sb0")
           (Sched.events sim));
      (* the source dies mid-stream; the scheduler fails over *)
      Hpm_store.Replica.set_faults r
        (Some
           (Hpm_net.Netsim.rep_faults
              ~crash_source_at:(Hpm_net.Netsim.Rp_stream, 4) ()));
      (match Sched.stream_replica sim p r ~epochs:1 with
      | Hpm_store.Replica.Source_crashed _ -> ()
      | _ -> Alcotest.fail "expected the injected source crash");
      let pm = Sched.promote_standby sim p r in
      (* the resync healed sb0 before the crash, so both standbys tie at
         epoch 3 and the first one wins *)
      check_string "a fully caught-up standby promoted" "sb0"
        pm.Hpm_store.Replica.pm_sub;
      ignore sb1;
      check_bool "process re-homed onto the standby's node" true
        (p.Sched.p_node == sb0);
      check_int "promotion counted" 1 (Sched.count sim p Journal.Promoted);
      check_bool "Promoted event logged" true
        (List.exists
           (fun e ->
             e.Journal.j_ev = Journal.Promoted && e.Journal.j_proc = "j"
             && e.Journal.j_src = "src" && e.Journal.j_dst = "sb0"
             && e.Journal.j_epoch = 3)
           (Sched.events sim));
      (* the scheduler runs the promoted copy to completion: combined
         output is exactly one program *)
      let _ = Sched.run sim in
      check_string "exactly-once across promotion" expected (Sched.output p);
      check_int "handoff epochs stay monotonic" 4 p.Sched.p_epoch)

(* One promotion is one event: the replica counts its own promotion and
   the scheduler counts its one Promoted entry, each exactly once. *)
let test_promotion_counted_once () =
  with_rep_env (fun sim src (sb0, _) ->
      let p = Sched.spawn sim src "j" (jacobi 8) in
      let r = Sched.replicate sim p ~standbys:[ sb0 ] in
      ignore (Sched.stream_replica sim p r ~epochs:2 : Hpm_store.Replica.step);
      let reg = Obs.Metrics.create () in
      Fun.protect ~finally:Obs.reset (fun () ->
          Obs.set_metrics (Some reg);
          ignore (Sched.promote_standby sim p r : Hpm_store.Replica.promotion));
      check_int "one Promoted entry" 1 (Sched.count sim p Journal.Promoted);
      let value name labels =
        Obs.Metrics.value reg name (("proc", "j") :: labels)
      in
      check_bool "replica family reads 1" true
        (value "hpm_replica_promotions_total" [] = Some 1.0);
      check_bool "scheduler family reads 1" true
        (value "hpm_sched_events_total" [ ("kind", "promoted") ] = Some 1.0))

(* The event log and the journal are one record: a run with a pre-copy
   migration and a promotion reloads from disk entry for entry, and the
   pre-copy move carries its incremental stats. *)
let test_events_are_the_journal () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with _ -> ())
    (fun () ->
      let st = Hpm_store.Store.open_store dir in
      let jpath = Filename.concat dir "fleet.hpmj" in
      let journal = Journal.open_journal jpath in
      let src = Sched.node "src" Hpm_arch.Arch.dec5000 in
      let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
      let sb0 = Sched.node "sb0" Hpm_arch.Arch.sparc20 in
      let sim =
        Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~store:st ~journal
          ~precopy:{ Hpm_store.Precopy.default_config with Hpm_store.Precopy.round_polls = 5 }
          [ src; fast; sb0 ]
      in
      let q = Sched.spawn sim src "q7" (nqueens 7) in
      Sched.request_migration sim q fast;
      let _ = Sched.run sim in
      let j = Sched.spawn sim src "j8" (jacobi 8) in
      let r = Sched.replicate sim j ~standbys:[ sb0 ] in
      ignore (Sched.stream_replica sim j r ~epochs:3 : Hpm_store.Replica.step);
      ignore (Sched.promote_standby sim j r : Hpm_store.Replica.promotion);
      Hpm_store.Replica.close r;
      let _ = Sched.run sim in
      Journal.close journal;
      check_string "pre-copied output" "40\n" (Sched.output q);
      let events = Sched.events sim in
      let loaded = Journal.load jpath in
      check_int "as many journal lines as events" (List.length events)
        (List.length loaded);
      (* the journal prints floats to 9 digits, so compare encodings *)
      List.iter2
        (fun e l ->
          check_string "entry for entry" (Journal.encode_entry e)
            (Journal.encode_entry l))
        events loaded;
      check_int "one promotion" 1 (Sched.count sim j Journal.Promoted);
      match
        List.find_opt
          (fun e -> e.Journal.j_ev = Journal.Migrated && e.Journal.j_proc = "q7")
          events
      with
      | Some e ->
          check_bool "pre-copy Migrated entry shipped chunks" true
            (e.Journal.j_chunks_shipped > 0)
      | None -> Alcotest.fail "no Migrated entry for the pre-copy move")

let test_replicate_source_finishes () =
  with_rep_env (fun sim src (sb0, _) ->
      let expected, _, _ =
        Hpm_core.Migration.run_plain (jacobi 4) Hpm_arch.Arch.dec5000
      in
      let p = Sched.spawn sim src "jf" (jacobi 4) in
      let r = Sched.replicate sim p ~standbys:[ sb0 ] in
      let rec drain () =
        match Sched.stream_replica sim p r ~epochs:1 with
        | Hpm_store.Replica.Streamed _ -> drain ()
        | s -> s
      in
      (match drain () with
      | Hpm_store.Replica.Source_finished -> ()
      | _ -> Alcotest.fail "source should finish");
      check_bool "process finished" true
        (match p.Sched.p_state with Sched.Finished _ -> true | _ -> false);
      check_string "output exactly once" expected (Sched.output p))

let test_replicate_requires_store () =
  let sim, slow, fast = mk_env () in
  let p = Sched.spawn sim slow "q" (nqueens 5) in
  expect_raise "no store refused"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Sched.replicate sim p ~standbys:[ fast ]))

let suite =
  [
    tc "run to completion" test_run_to_completion;
    tc "explicit migration" test_explicit_migration;
    tc "self-migration ignored" test_migration_to_same_node_ignored;
    tc_slow "load balancing beats no policy" test_load_balance_beats_none;
    tc "seek-fastest policy" test_seek_fastest;
    tc "five-arch cluster tour" test_heterogeneous_cluster;
    tc "CPU timesharing" test_cpu_sharing;
    tc "failed migration re-queues on source" test_failed_migration_requeues_on_source;
    tc "lossy migration still succeeds" test_lossy_migration_still_succeeds;
    tc "compat gate blocks illegal destination" test_compat_gate_blocks_illegal_destination;
    tc "network accounting" test_network_accounting;
    tc "replication: stream, crash, promote, exactly-once"
      test_replicate_promote_exactly_once;
    tc "replication: one promotion counts once per metric family"
      test_promotion_counted_once;
    tc "the event log is the journal, entry for entry" test_events_are_the_journal;
    tc "replication: source completion finishes the process"
      test_replicate_source_finishes;
    tc "replication requires a store" test_replicate_requires_store;
  ]
