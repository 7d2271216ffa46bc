(** Crash-consistent handoff protocol tests: exactly-once semantics under
    node crashes at every protocol phase, lost-ack resolution by epoch
    probe, checkpoint re-queuing, 2PC blocking, and the restore-side MSR
    integrity verifier ({!Hpm_core.Verify}). *)

open Hpm_lang
open Hpm_machine
open Hpm_core
open Hpm_net
open Util

let src_arch = Hpm_arch.Arch.dec5000
let dst_arch = Hpm_arch.Arch.sparc20

(* the three workloads of the crash matrix (all same-width archs, so
   expected output is host-independent) *)
let workloads =
  [
    ("nqueens", Hpm_workloads.Nqueens.source 6);
    ("listops", Hpm_workloads.Listops.source 30);
    ("bitonic", Hpm_workloads.Bitonic.source 64);
  ]

let expected_output src =
  let out, _, _ = Migration.run_plain (prepare src) src_arch in
  out

(* Run a handoff for [src] with the given faults; return (result, pre,
   m, p) where [pre] is the output the source produced before the poll. *)
let handoff ?faults ?config ?tamper src =
  let m = prepare src in
  let p, _ = suspend m src_arch 3 in
  let pre = Interp.output p in
  let channel = Netsim.ethernet_100 () in
  let res = Handoff.execute ?config ?faults ?tamper ~channel ~epoch:1 m p dst_arch in
  (res, pre, m, p)

(* ------------------------------------------------------------------ *)
(* Clean path                                                          *)
(* ------------------------------------------------------------------ *)

let test_clean_commit () =
  List.iter
    (fun (name, src) ->
      let res, pre, _, _ = handoff src in
      match res.Handoff.outcome with
      | Handoff.Committed c ->
          check_bool (name ^ " no recovery flags") false
            (c.Handoff.c_ack_recovered || c.Handoff.c_dest_restarted
           || c.Handoff.c_src_crashed);
          check_int (name ^ " epoch") 1 c.Handoff.c_epoch;
          check_bool (name ^ " verified blocks") true (c.Handoff.c_verify.Verify.v_blocks > 0);
          check_bool (name ^ " lands on dst") true
            (c.Handoff.c_dst.Interp.arch == dst_arch);
          check_string (name ^ " exactly-once output") (expected_output src)
            (finish_output pre c.Handoff.c_dst)
      | o -> Alcotest.failf "%s: expected Committed, got %s" name (Handoff.outcome_name o))
    workloads

(* ------------------------------------------------------------------ *)
(* Crash matrix: every crash point × every workload, exactly once      *)
(* ------------------------------------------------------------------ *)

let crash_cases =
  [
    (* who, phase, expected outcome head *)
    ("src-collect", `Src, Netsim.Ph_collect, "source-recovered");
    ("src-transfer", `Src, Netsim.Ph_transfer, "committed");
    ("src-commit", `Src, Netsim.Ph_commit, "committed");
    ("src-release", `Src, Netsim.Ph_release, "committed");
    ("dst-transfer", `Dst, Netsim.Ph_transfer, "abort-requeue");
    ("dst-restore", `Dst, Netsim.Ph_restore, "abort-requeue");
    ("dst-commit", `Dst, Netsim.Ph_commit, "committed");
  ]

let test_crash_matrix () =
  List.iter
    (fun (wname, src) ->
      let expected = expected_output src in
      List.iter
        (fun (cname, who, phase, want) ->
          let faults =
            match who with
            | `Src -> Netsim.node_faults ~crash_source_after:phase ()
            | `Dst -> Netsim.node_faults ~crash_dest_after:phase ()
          in
          let res, pre, m, p = handoff ~faults src in
          let got = Handoff.outcome_name res.Handoff.outcome in
          check_string (Printf.sprintf "%s/%s outcome" wname cname) want got;
          (* one-shot hooks were consumed by the crash *)
          check_bool (Printf.sprintf "%s/%s hook consumed" wname cname) true
            (faults.Netsim.crash_source_after = None
            && faults.Netsim.crash_dest_after = None);
          (* exactly-once: the surviving copy completes with precisely the
             expected output — a doubled or dropped run would change it *)
          check_string (Printf.sprintf "%s/%s exactly-once" wname cname) expected
            (finish_output pre (Handoff.survivor m p res)))
        crash_cases)
    workloads

let test_src_crash_flags () =
  (* a post-transfer source crash still commits, flagged as recovered *)
  let res, _, _, _ =
    handoff ~faults:(Netsim.node_faults ~crash_source_after:Netsim.Ph_transfer ()) (snd (List.hd workloads))
  in
  match res.Handoff.outcome with
  | Handoff.Committed c -> check_bool "src-crashed flag" true c.Handoff.c_src_crashed
  | o -> Alcotest.failf "expected Committed, got %s" (Handoff.outcome_name o)

let test_dst_crash_post_commit_restarts () =
  let res, pre, _, _ =
    handoff ~faults:(Netsim.node_faults ~crash_dest_after:Netsim.Ph_commit ())
      (snd (List.hd workloads))
  in
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      check_bool "dest-restarted flag" true c.Handoff.c_dest_restarted;
      check_string "rebuilt from durable image" (expected_output (snd (List.hd workloads)))
        (finish_output pre c.Handoff.c_dst)
  | o -> Alcotest.failf "expected Committed, got %s" (Handoff.outcome_name o)

(* ------------------------------------------------------------------ *)
(* Lost-ack ambiguity                                                  *)
(* ------------------------------------------------------------------ *)

let test_lost_ack_resolved_by_probe () =
  let src = snd (List.hd workloads) in
  let res, pre, _, _ = handoff ~faults:(Netsim.node_faults ~drop_commit_acks:1 ()) src in
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      check_bool "ack-recovered flag" true c.Handoff.c_ack_recovered;
      check_bool "paid the watchdog deadline" true
        (c.Handoff.c_time_s >= Handoff.default_config.Handoff.ack_deadline_s);
      check_string "exactly-once" (expected_output src) (finish_output pre c.Handoff.c_dst)
  | o -> Alcotest.failf "expected Committed, got %s" (Handoff.outcome_name o)

let test_lost_ack_plus_source_crash () =
  (* the worst ambiguity: ack lost AND the source crashes; the restarted
     source's probe must still find the commit — never run twice *)
  let src = snd (List.hd workloads) in
  let res, pre, _, _ =
    handoff
      ~faults:
        (Netsim.node_faults ~drop_commit_acks:1 ~crash_source_after:Netsim.Ph_commit ())
      src
  in
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      check_bool "src-crashed" true c.Handoff.c_src_crashed;
      check_string "exactly-once" (expected_output src) (finish_output pre c.Handoff.c_dst)
  | o -> Alcotest.failf "expected Committed, got %s" (Handoff.outcome_name o)

let test_stalled_retains_checkpoint () =
  (* destination dead and every probe reply lost: the protocol must block
     with the checkpoint retained, not guess *)
  let src = snd (List.hd workloads) in
  let res, pre, m, _ =
    handoff
      ~faults:
        (Netsim.node_faults ~crash_dest_after:Netsim.Ph_transfer ~drop_probe_replies:99 ())
      src
  in
  match res.Handoff.outcome with
  | Handoff.Stalled { s_ckpt; s_epoch; s_time_s } ->
      check_int "epoch" 1 s_epoch;
      check_bool "checkpoint retained" true (String.length s_ckpt > 0);
      check_bool "waited out the probes" true
        (s_time_s
        >= float_of_int (1 + Handoff.default_config.Handoff.probe_retries)
           *. Handoff.default_config.Handoff.ack_deadline_s);
      (* the retained checkpoint is complete: resuming it finishes the job *)
      let interp, _ = Handoff.resume_from_checkpoint m src_arch ~epoch:s_epoch s_ckpt in
      check_string "checkpoint resumable" (expected_output src) (finish_output pre interp)
  | o -> Alcotest.failf "expected Stalled, got %s" (Handoff.outcome_name o)

let test_link_failure_resumes_source () =
  let src = snd (List.hd workloads) in
  let m = prepare src in
  let p, _ = suspend m src_arch 3 in
  let channel =
    Netsim.ethernet_10 ~faults:(Netsim.fault_model ~corrupt_rate:1.0 ~seed:5 ()) ()
  in
  let res = Handoff.execute ~channel ~epoch:1 m p dst_arch in
  match res.Handoff.outcome with
  | Handoff.Link_failed l ->
      check_bool "retries spent" true (l.Handoff.l_attempts > 1);
      Interp.clear_migration_request p;
      check_string "source resumes" (expected_output src) (finish_output "" p)
  | o -> Alcotest.failf "expected Link_failed, got %s" (Handoff.outcome_name o)

(* ------------------------------------------------------------------ *)
(* Epochs                                                              *)
(* ------------------------------------------------------------------ *)

let test_epoch_stamped_and_checked () =
  let m = prepare (Hpm_workloads.Nqueens.source 6) in
  let p, _ = suspend m src_arch 3 in
  let data, _ = Collect.collect ~epoch:5 p m.Migration.ti in
  let hdr = Stream.get_header (Hpm_xdr.Xdr.reader_of_string data) in
  check_int "epoch in header" 5 hdr.Stream.epoch;
  (* matching epoch restores; a mismatch is refused *)
  let _ = Restore.restore ~expect_epoch:5 m.Migration.prog dst_arch m.Migration.ti data in
  expect_raise "epoch mismatch refused"
    (function Restore.Error msg -> contains_sub msg "epoch mismatch" | _ -> false)
    (fun () -> Restore.restore ~expect_epoch:6 m.Migration.prog dst_arch m.Migration.ti data)

let test_fingerprint_per_prepared_program () =
  (* the fingerprint is computed once per prepared program: two programs
     prepared from one source carry equal fingerprints, and migrating
     them alternately, op by op, commits every handoff with that
     fingerprint in its stream; a stream from another program is still
     refused *)
  let src = Hpm_workloads.Bitonic.source 64 in
  let ms = [| prepare src; prepare src |] in
  let fp m = m.Migration.ti.Hpm_msr.Ti.fingerprint in
  check_bool "one source, one fingerprint" true (Int64.equal (fp ms.(0)) (fp ms.(1)));
  let procs = Array.map (fun m -> fst (suspend m src_arch 0)) ms in
  let outs = Array.map Interp.output procs in
  let channel = Netsim.ethernet_100 () in
  for op = 1 to 6 do
    let k = op mod 2 in
    let p = procs.(k) in
    let streams = ref [] in
    let encode s = streams := s :: !streams; s in
    let dst = if p.Interp.arch == src_arch then dst_arch else src_arch in
    match (Handoff.execute ~channel ~epoch:op ~encode ms.(k) p dst).Handoff.outcome with
    | Handoff.Committed c ->
        List.iter
          (fun s ->
            let h = Stream.get_header (Hpm_xdr.Xdr.reader_of_string s) in
            check_bool
              (Printf.sprintf "op %d: stream carries the fingerprint" op)
              true
              (Int64.equal h.Stream.prog_hash (fp ms.(k))))
          !streams;
        let q = c.Handoff.c_dst in
        Interp.request_migration_after q 2;
        (match Interp.run q with
        | Interp.RPolled _ -> ()
        | _ -> Alcotest.failf "op %d: finished before the next poll" op);
        procs.(k) <- q;
        outs.(k) <- outs.(k) ^ Interp.output q;
        Buffer.clear q.Interp.out
    | o -> Alcotest.failf "op %d: expected Committed, got %s" op (Handoff.outcome_name o)
  done;
  let other = prepare (Hpm_workloads.Nqueens.source 6) in
  let data, _ = Collect.collect procs.(0) ms.(0).Migration.ti in
  expect_raise "another program's stream refused"
    (function Restore.Error msg -> contains_sub msg "fingerprint mismatch" | _ -> false)
    (fun () -> Restore.restore other.Migration.prog dst_arch other.Migration.ti data);
  (* the TI table carries the fingerprint, so it must be the table of the
     program that will run, not merely an equal one *)
  expect_raise "a TI table of another prepared program refused"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Restore.restore ms.(0).Migration.prog dst_arch ms.(1).Migration.ti data);
  Array.iteri
    (fun k p ->
      Interp.clear_migration_request p;
      check_string (Printf.sprintf "program %d exactly-once output" k) (expected_output src)
        (finish_output outs.(k) p))
    procs

let test_negative_epoch_rejected () =
  let m = prepare (Hpm_workloads.Nqueens.source 6) in
  let p, _ = suspend m src_arch 3 in
  expect_raise "negative epoch"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Collect.collect ~epoch:(-1) p m.Migration.ti)

let test_fault_plan_validation () =
  expect_raise "negative ack drops"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Netsim.node_faults ~drop_commit_acks:(-1) ());
  expect_raise "negative probe drops"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Netsim.node_faults ~drop_probe_replies:(-3) ());
  let m = prepare (Hpm_workloads.Nqueens.source 5) in
  let p, _ = suspend m src_arch 1 in
  expect_raise "non-positive deadline"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      Handoff.execute
        ~config:{ Handoff.default_config with Handoff.ack_deadline_s = 0.0 }
        ~channel:(Netsim.ethernet_100 ()) ~epoch:1 m p dst_arch)

(* ------------------------------------------------------------------ *)
(* The MSR integrity verifier                                          *)
(* ------------------------------------------------------------------ *)

(* a suspended test_pointer process: a rich pointer web over heap structs
   (the heap is populated by the 20th poll event) *)
let pointer_image () =
  let m = prepare (Hpm_workloads.Test_pointer.source 0) in
  let p, _ = suspend m src_arch 20 in
  (m, p)

(* first initialized data-pointer slot, preferring one whose target is a
   heap block (so the dangling test can free it) *)
let find_ptr_slot ?(want_heap = false) (p : Interp.t) =
  let mem = p.Interp.mem in
  let candidates =
    List.concat_map
      (fun (b : Mem.block) ->
        let elems = Layout.elems mem.Mem.layout b.Mem.ty in
        List.filter_map
          (fun ord ->
            match Layout.kind_of_ordinal elems ord with
            | Ty.KPtr _ as k -> (
                let off = Layout.byte_of_ordinal elems ord in
                match Mem.load_scalar mem b off k with
                | Mem.Vptr a
                  when (not (Int64.equal a 0L))
                       && not (Interp.is_func_addr p.Interp.prog a) -> (
                    match Mem.find_block mem a with
                    | dst when (not want_heap) || dst.Mem.seg = Mem.Heap -> Some (b, off, k, dst)
                    | _ -> None
                    | exception Mem.Fault _ -> None)
                | _ -> None)
            | _ -> None)
          (List.init (Layout.elem_count elems) Fun.id))
      (Mem.live_blocks mem)
  in
  match candidates with
  | slot :: _ -> slot
  | [] -> Alcotest.fail "no pointer slot found in the image"

let expect_violation name needle f =
  expect_raise name
    (function Verify.Violation msg -> contains_sub msg needle | _ -> false)
    f

let test_verify_clean_image () =
  let m, p = pointer_image () in
  let r = Verify.check p m.Migration.ti in
  check_bool "blocks checked" true (r.Verify.v_blocks > 0);
  check_bool "edges resolved" true (r.Verify.v_edges > 0);
  (* and a restored copy verifies too *)
  let data, _ = Collect.collect p m.Migration.ti in
  let q, _ = Restore.restore m.Migration.prog dst_arch m.Migration.ti data in
  let r2 = Verify.check q m.Migration.ti in
  check_int "same pointer count after restore" r.Verify.v_pointers r2.Verify.v_pointers

let test_verify_wild_pointer () =
  let m, p = pointer_image () in
  let b, off, k, _ = find_ptr_slot p in
  Mem.store_scalar p.Interp.mem b off k (Mem.Vptr 0x7FFF_FFF0L);
  expect_violation "wild pointer" "not inside any live block" (fun () ->
      Verify.check p m.Migration.ti)

let test_verify_misaligned_interior () =
  let m, p = pointer_image () in
  let b, off, k, _ = find_ptr_slot p in
  (* aim between the element boundaries of a multi-element wide block *)
  let target =
    List.find_opt
      (fun (c : Mem.block) ->
        let elems = Layout.elems p.Interp.mem.Mem.layout c.Mem.ty in
        Layout.elem_count elems >= 2 && Layout.byte_of_ordinal elems 1 >= 4)
      (Mem.live_blocks p.Interp.mem)
  in
  match target with
  | None -> Alcotest.fail "no wide block to misalign into"
  | Some dst ->
      Mem.store_scalar p.Interp.mem b off k (Mem.Vptr (Int64.add dst.Mem.base 2L));
      expect_violation "misaligned pointer" "not an element boundary" (fun () ->
          Verify.check p m.Migration.ti)

let test_verify_dangling_to_freed () =
  let m, p = pointer_image () in
  let _, _, _, dst = find_ptr_slot ~want_heap:true p in
  Mem.free p.Interp.mem dst;
  expect_violation "dangling pointer" "not inside any live block" (fun () ->
      Verify.check p m.Migration.ti)

let test_verify_orphan_heap_block () =
  let m, p = pointer_image () in
  let _ = Mem.alloc p.Interp.mem Mem.Heap Ty.Int Mem.Iheap in
  expect_violation "orphan heap block" "orphan" (fun () -> Verify.check p m.Migration.ti)

let test_verify_type_without_ti_entry () =
  let m, p = pointer_image () in
  let exotic = Ty.Ptr (Ty.Ptr (Ty.Ptr Ty.Double)) in
  let _ = Mem.alloc p.Interp.mem Mem.Heap exotic Mem.Iheap in
  expect_violation "TI-less type" "TI" (fun () -> Verify.check p m.Migration.ti)

let test_verify_one_past_end_accepted () =
  (* q = &a[n] is legal C and collectible; the verifier must accept it *)
  let m, p = pointer_image () in
  let b, off, k, dst = find_ptr_slot p in
  Mem.store_scalar p.Interp.mem b off k
    (Mem.Vptr (Int64.add dst.Mem.base (Int64.of_int dst.Mem.size)));
  let _ = Verify.check p m.Migration.ti in
  ()

let test_one_past_end_only_reference_commits () =
  (* the array's only reference is one past its end: collection moves it,
     so the verifier must see that edge and not call the array an orphan *)
  let src =
    {|
int main() {
  int *a;
  int *end;
  int i;
  a = (int *) malloc(4 * sizeof(int));
  for (i = 0; i < 4; i++) a[i] = 10 * (i + 1);
  end = a + 4;
  a = 0;
  #pragma poll here
  print_int(end[-1] + end[-4]);
  return 0;
}
|}
  in
  let m = prepare_user src in
  let p, _ = suspend m src_arch 0 in
  let pre = Interp.output p in
  let res = Handoff.execute ~channel:(Netsim.ethernet_100 ()) ~epoch:1 m p dst_arch in
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      let out, _, _ = Migration.run_plain m src_arch in
      check_string "survivor output" out (finish_output pre c.Handoff.c_dst)
  | Handoff.Abort_requeue q -> Alcotest.failf "abort-requeue: %s" q.Handoff.q_reason
  | o -> Alcotest.failf "expected Committed, got %s" (Handoff.outcome_name o)

let test_tampered_restore_aborts_handoff () =
  (* in-protocol seeded corruption: the verifier must NAK the epoch *)
  let src = Hpm_workloads.Test_pointer.source 0 in
  let tamper (q : Interp.t) =
    let b, off, k, _ = find_ptr_slot q in
    Mem.store_scalar q.Interp.mem b off k (Mem.Vptr 0x7FFF_FFF0L)
  in
  let res, pre, m, _ = handoff ~tamper src in
  match res.Handoff.outcome with
  | Handoff.Abort_requeue q ->
      check_bool "NAK reason names verification" true
        (contains_sub q.Handoff.q_reason "MSR verification failed");
      (* the retained checkpoint is unharmed *)
      let interp, _ =
        Handoff.resume_from_checkpoint m src_arch ~epoch:q.Handoff.q_epoch
          q.Handoff.q_ckpt
      in
      check_string "source copy intact" (expected_output src) (finish_output pre interp)
  | o -> Alcotest.failf "expected Abort_requeue, got %s" (Handoff.outcome_name o)

(* ------------------------------------------------------------------ *)
(* Scheduler recovery                                                  *)
(* ------------------------------------------------------------------ *)

open Hpm_sched
module Journal = Hpm_store.Journal

let three_nodes () =
  let a = Sched.node "alpha" Hpm_arch.Arch.dec5000 in
  let b = Sched.node "beta" Hpm_arch.Arch.sparc20 in
  let c = Sched.node "gamma" Hpm_arch.Arch.i386 in
  let channel = Netsim.ethernet_100 () in
  (Sched.create ~channel [ a; b; c ], a, b, c, channel)

(* The destination dies after restoring, so the retained checkpoint is
   re-queued to the third node.  The Requeued entry carries the re-queue
   transfer's retries and the whole time the process is blocked: the
   failed handoff plus that transfer.  Seed 3 at 50% loss makes the
   re-queue transfer retry. *)
let test_sched_requeues_on_dest_crash () =
  List.iter
    (fun (loss, seed) ->
      let sim, a, b, c, channel = three_nodes () in
      Netsim.set_faults channel
        (Some (Netsim.fault_model ~loss_rate:loss ~corrupt_rate:0.0 ~seed ()));
      Netsim.set_node_faults channel
        (Some (Netsim.node_faults ~crash_dest_after:Netsim.Ph_restore ()));
      let p = Sched.spawn sim a "victim" (prepare (Hpm_workloads.Nqueens.source 7)) in
      Sched.request_migration sim p b;
      let _ = Sched.run sim in
      check_string "output exactly once" "40\n" (Sched.output p);
      check_int "one requeue" 1 (Sched.count sim p Journal.Requeued);
      check_bool "landed on the third node" true (p.Sched.p_node == c);
      let entry ev = List.find (fun e -> e.Journal.j_ev = ev) (Sched.events sim) in
      let rq = entry Journal.Requeued and fin = entry Journal.Finished in
      check_bool "requeue transfer retries recorded" (loss > 0.0) (rq.Journal.j_retries > 0);
      check_bool "requeue time recorded" true
        (rq.Journal.j_time_s > Handoff.default_config.Handoff.ack_deadline_s);
      check_bool "blocked for the recorded time" true
        (fin.Journal.j_ts >= rq.Journal.j_ts +. rq.Journal.j_time_s))
    [ (0.0, 1); (0.5, 3) ]

let test_sched_source_crash_recovers_locally () =
  let sim, a, b, _, channel = three_nodes () in
  Netsim.set_node_faults channel
    (Some (Netsim.node_faults ~crash_source_after:Netsim.Ph_collect ()));
  let p = Sched.spawn sim a "phoenix" (prepare (Hpm_workloads.Nqueens.source 7)) in
  Sched.request_migration sim p b;
  let _ = Sched.run sim in
  check_string "output exactly once" "40\n" (Sched.output p);
  check_int "one recovery" 1 p.Sched.p_recoveries;
  check_bool "still on the source" true (p.Sched.p_node == a);
  check_bool "recovery event logged" true
    (List.exists (fun e -> e.Journal.j_ev = Journal.Recovered) (Sched.events sim))

let test_sched_stalled_resumes_checkpoint () =
  let sim, a, b, _, channel = three_nodes () in
  Netsim.set_node_faults channel
    (Some
       (Netsim.node_faults ~crash_dest_after:Netsim.Ph_transfer ~drop_probe_replies:99 ()));
  let p = Sched.spawn sim a "blocked" (prepare (Hpm_workloads.Nqueens.source 7)) in
  Sched.request_migration sim p b;
  let _ = Sched.run sim in
  check_string "output exactly once" "40\n" (Sched.output p);
  check_bool "recovered from the retained checkpoint" true (p.Sched.p_recoveries >= 1);
  check_bool "still on the source" true (p.Sched.p_node == a)

let test_sched_migration_stats_surfaced () =
  let sim, a, b, _, _ = three_nodes () in
  let p = Sched.spawn sim a "clean" (prepare (Hpm_workloads.Nqueens.source 7)) in
  Sched.request_migration sim p b;
  let _ = Sched.run sim in
  check_string "output" "40\n" (Sched.output p);
  check_bool "collected bytes recorded" true (p.Sched.p_bytes_collected > 0);
  check_bool "restored bytes recorded" true (p.Sched.p_bytes_restored > 0);
  match List.find_opt (fun e -> e.Journal.j_ev = Journal.Migrated) (Sched.events sim) with
  | None -> Alcotest.fail "no Migrated event"
  | Some e ->
      check_int "epoch surfaced" 1 e.Journal.j_epoch;
      check_bool "stream bytes surfaced" true (e.Journal.j_stream_bytes > 0);
      check_bool "collected bytes surfaced" true (e.Journal.j_collected_bytes > 0);
      check_bool "restored bytes surfaced" true (e.Journal.j_restored_bytes > 0);
      check_bool "protocol time surfaced" true (e.Journal.j_time_s > 0.0)

let suite =
  [
    tc "clean commit across three workloads" test_clean_commit;
    tc_slow "crash matrix: every phase x workload, exactly once" test_crash_matrix;
    tc "post-transfer source crash still commits" test_src_crash_flags;
    tc "post-commit dest crash restarts from durable image" test_dst_crash_post_commit_restarts;
    tc "lost ack resolved by epoch probe" test_lost_ack_resolved_by_probe;
    tc "lost ack + source crash never runs twice" test_lost_ack_plus_source_crash;
    tc "unreachable destination stalls, checkpoint retained" test_stalled_retains_checkpoint;
    tc "link failure resumes the source" test_link_failure_resumes_source;
    tc "epoch stamped in header and checked on restore" test_epoch_stamped_and_checked;
    tc "negative epoch rejected" test_negative_epoch_rejected;
    tc "fingerprint computed once per prepared program" test_fingerprint_per_prepared_program;
    tc "fault-plan and config validation" test_fault_plan_validation;
    tc "verifier passes a clean image" test_verify_clean_image;
    tc "verifier rejects a wild pointer" test_verify_wild_pointer;
    tc "verifier rejects a misaligned interior pointer" test_verify_misaligned_interior;
    tc "verifier rejects a dangling pointer to freed storage" test_verify_dangling_to_freed;
    tc "verifier rejects an orphan heap block" test_verify_orphan_heap_block;
    tc "verifier rejects a type with no TI entry" test_verify_type_without_ti_entry;
    tc "verifier accepts one-past-the-end" test_verify_one_past_end_accepted;
    tc "one-past-the-end only reference commits" test_one_past_end_only_reference_commits;
    tc "tampered restore NAKs the epoch" test_tampered_restore_aborts_handoff;
    tc "scheduler re-queues on destination crash" test_sched_requeues_on_dest_crash;
    tc "scheduler recovers a crashed source locally" test_sched_source_crash_recovers_locally;
    tc "scheduler resumes a stalled handoff from checkpoint" test_sched_stalled_resumes_checkpoint;
    tc "scheduler surfaces migration stats" test_sched_migration_stats_surfaced;
  ]
