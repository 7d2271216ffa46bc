(** The cluster-scale discrete-event engine and its spine: Eheap
    (time, seq) total order, Policy determinism (tie-breaks, gang,
    hysteresis, locality), Sched's scheduled actions and permuted-node
    regression, the segmented HPMJ journal (rotation, amortized-O(1)
    appends, torn tails, compaction), and the churn scenario's
    guarantees — same-seed byte identity, exactly-once under crashes,
    anti-flap, gang atomicity, and ≥100 concurrent in-flight
    migrations at the 1000-node scale. *)

open Hpm_sched
open Util
module Journal = Hpm_store.Journal
module Obs = Hpm_obs.Obs

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpm_cluster_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let read_file p = In_channel.with_open_bin p In_channel.input_all

(* The full byte stream of a journal: closed segments then the active
   file — exactly what the single-file era wrote. *)
let journal_bytes path =
  String.concat ""
    (List.map read_file (Journal.segment_paths path @ [ path ]))

(* ---------------------------------------------------------------- *)
(* Eheap                                                             *)
(* ---------------------------------------------------------------- *)

let test_eheap_order () =
  let h = Eheap.create () in
  ignore (Eheap.add h ~time:3.0 "c" : int);
  ignore (Eheap.add h ~time:1.0 "a1" : int);
  ignore (Eheap.add h ~time:2.0 "b" : int);
  ignore (Eheap.add h ~time:1.0 "a2" : int);
  ignore (Eheap.add h ~time:1.0 "a3" : int);
  ignore (Eheap.add h ~time:0.5 "first" : int);
  let popped = ref [] in
  let rec drain () =
    match Eheap.pop h with
    | Some (_, _, v) ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string))
    "pop order is (time, seq)"
    [ "first"; "a1"; "a2"; "a3"; "b"; "c" ]
    (List.rev !popped);
  check_bool "empty after drain" true (Eheap.is_empty h)

let test_eheap_random () =
  let rng = Hpm_machine.Rng.create 7 in
  let h = Eheap.create () in
  let items =
    List.init 500 (fun i ->
        let time =
          float_of_int (Hpm_machine.Rng.next_int rng mod 50) /. 10.0
        in
        let seq = Eheap.add h ~time i in
        (time, seq))
  in
  let expected = List.sort compare items in
  let got = ref [] in
  let rec drain () =
    match Eheap.pop h with
    | Some (time, seq, _) ->
        got := (time, seq) :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  check_bool "500 random inserts pop in (time, seq) order" true
    (expected = List.rev !got)

(* ---------------------------------------------------------------- *)
(* Policy determinism                                                *)
(* ---------------------------------------------------------------- *)

let ni ?(speed = 1.0) ?(site = "") ?(alive = true) name load =
  { Policy.ni_name = name; ni_speed = speed; ni_load = load; ni_site = site;
    ni_alive = alive }

let pi ?(group = "") ?(runnable = true) ?(migrating = false)
    ?(last = neg_infinity) name node =
  { Policy.pi_name = name; pi_node = node; pi_group = group;
    pi_runnable = runnable; pi_migrating = migrating; pi_last_move_s = last }

let decisions_to_pairs ds =
  List.map (fun d -> (d.Policy.d_proc, d.Policy.d_dst)) ds

let test_policy_permutation () =
  (* equal-load ties must resolve to the same node regardless of the
     order nodes were listed (the satellite-2 regression) *)
  let procs = [ pi "p1" "c"; pi "p2" "c" ] in
  let nodes = [ ni "a" 0; ni "b" 0; ni "c" 2 ] in
  let perms =
    [ nodes; List.rev nodes; [ ni "b" 0; ni "c" 2; ni "a" 0 ] ]
  in
  let results =
    List.map
      (fun ns ->
        decisions_to_pairs
          (Policy.decide (Policy.least_loaded ()) ~now:0.0 ns procs))
      perms
  in
  List.iter
    (fun r -> check_bool "same decision under permutation" true
        (r = [ ("p1", "a") ]))
    results;
  (* seek-fastest: equal top speeds resolve by name *)
  let fast_nodes =
    [ ni ~speed:2.0 "zeta" 0; ni ~speed:2.0 "alpha" 0; ni ~speed:1.0 "mid" 1 ]
  in
  let p = [ pi "w" "mid" ] in
  let r1 =
    decisions_to_pairs
      (Policy.decide (Policy.seek_fastest ()) ~now:0.0 fast_nodes p)
  in
  let r2 =
    decisions_to_pairs
      (Policy.decide (Policy.seek_fastest ()) ~now:0.0 (List.rev fast_nodes) p)
  in
  check_bool "fastest tie resolves to alpha either way" true
    (r1 = [ ("w", "alpha") ] && r2 = r1)

let test_policy_hysteresis () =
  let nodes = [ ni "a" 0; ni "b" 3 ] in
  let hot = Policy.with_hysteresis ~cooldown_s:1.0 (Policy.least_loaded ()) in
  (* moved 0.5 s ago: masked *)
  let masked =
    Policy.decide hot ~now:10.0 nodes [ pi ~last:9.5 "p" "b" ]
  in
  check_int "recent mover is invisible" 0 (List.length masked);
  (* moved 2 s ago: eligible again *)
  let ok = Policy.decide hot ~now:10.0 nodes [ pi ~last:8.0 "p" "b" ] in
  check_bool "cooled-down mover is eligible" true
    (decisions_to_pairs ok = [ ("p", "a") ])

let test_policy_gang () =
  let nodes = [ ni "n1" 3; ni "n2" 0 ] in
  let g = Policy.gang (Policy.least_loaded ()) in
  let all_movable =
    [ pi ~group:"g" "a" "n1"; pi ~group:"g" "b" "n1"; pi ~group:"g" "c" "n1" ]
  in
  check_bool "whole gang moves together" true
    (decisions_to_pairs (Policy.decide g ~now:0.0 nodes all_movable)
    = [ ("a", "n2"); ("b", "n2"); ("c", "n2") ]);
  let one_stuck =
    [ pi ~group:"g" "a" "n1"; pi ~group:"g" ~migrating:true "b" "n1";
      pi ~group:"g" "c" "n1" ]
  in
  check_int "gang with a stuck member stays put" 0
    (List.length (Policy.decide g ~now:0.0 nodes one_stuck))

let test_policy_locality () =
  let nodes =
    [ ni ~site:"A" "x" 3; ni ~site:"A" "y" 0; ni ~site:"B" "z" 0 ]
  in
  let procs = [ pi "p1" "x"; pi "p2" "x"; pi "p3" "x" ] in
  let ds = Policy.decide (Policy.locality ()) ~now:0.0 nodes procs in
  check_bool "balance stays inside the site" true
    (decisions_to_pairs ds = [ ("p1", "y") ])

(* ---------------------------------------------------------------- *)
(* Sched: permuted registration + scheduled actions                  *)
(* ---------------------------------------------------------------- *)

let counting = Util.prepare (Hpm_workloads.Nqueens.source 6)

let run_permuted order =
  let mk n = Sched.node n Hpm_arch.Arch.x86_64 in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  let nodes =
    List.map (function "a" -> a | "b" -> b | _ -> c) order
  in
  let sim = Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) nodes in
  let p1 = Sched.spawn sim c "p1" counting in
  let _p2 = Sched.spawn sim c "p2" counting in
  let _ = Sched.run sim ~policy:Sched.load_balance in
  p1.Sched.p_node.Sched.n_name

let test_sched_permuted_nodes () =
  (* two equally idle candidates: the (load, name) tie-break must pick
     "a" no matter how the node list was built *)
  List.iter
    (fun order ->
      check_string
        (Printf.sprintf "registration %s" (String.concat "" order))
        "a" (run_permuted order))
    [ [ "a"; "b"; "c" ]; [ "c"; "b"; "a" ]; [ "b"; "a"; "c" ] ]

let test_sched_at () =
  let fast = Sched.node "fast" Hpm_arch.Arch.x86_64 in
  let slow = Sched.node "slow" Hpm_arch.Arch.dec5000 in
  let sim = Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) [ slow; fast ] in
  let p = Sched.spawn sim slow "q7" (Util.prepare (Hpm_workloads.Nqueens.source 7)) in
  let fired = ref [] in
  Sched.at sim ~time:0.05 (fun _ -> fired := "first" :: !fired);
  Sched.at sim ~time:0.05 (fun _ -> fired := "second" :: !fired);
  Sched.at sim ~time:0.02 (fun s -> Sched.request_migration s p fast);
  let _ = Sched.run sim in
  Alcotest.(check (list string))
    "same-instant actions fire in scheduling order" [ "first"; "second" ]
    (List.rev !fired);
  check_int "scripted migration happened" 1 p.Sched.p_migrations;
  check_bool "landed on fast" true (p.Sched.p_node.Sched.n_name = "fast");
  check_string "output survives the scripted move" "40\n" (Sched.output p)

(* ---------------------------------------------------------------- *)
(* Journal segmentation                                              *)
(* ---------------------------------------------------------------- *)

let mk_entry i =
  Journal.entry ~ts:(float_of_int i *. 0.25)
    ~ev:(if i mod 3 = 0 then Journal.Migrated else Journal.Checkpointed)
    ~proc:(Printf.sprintf "p%04d" (i mod 97))
    ~src:"n1" ~dst:"n2" ~epoch:i ~stream_bytes:(i * 13) ()

let test_journal_rotation () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal ~segment_bytes:2048 path in
      let entries = List.init 200 mk_entry in
      List.iter (Journal.append j) entries;
      check_bool "rotation happened" true (Journal.rotations j > 0);
      check_bool "closed segments exist" true (Journal.segments j <> []);
      (* the concatenated byte stream is exactly the single-file era's *)
      let expected =
        String.concat ""
          (List.map (fun e -> Journal.encode_entry e ^ "\n") entries)
      in
      check_string "segments + active ≡ monolithic bytes" expected
        (journal_bytes path);
      (* HPMJ v1 load semantics unchanged *)
      check_bool "load sees every entry in order" true
        (Journal.load path = entries);
      check_bool "handle agrees" true (Journal.entries j = entries);
      (* a reopened journal continues the sequence, not restarts it *)
      Journal.close j;
      let j2 = Journal.open_journal ~segment_bytes:2048 path in
      check_int "reopen sees all" 200 (Journal.length j2);
      let extra = mk_entry 200 in
      Journal.append j2 extra;
      check_bool "append after reopen" true
        (Journal.load path = entries @ [ extra ]))

let test_journal_amortized_o1 () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal ~segment_bytes:(64 * 1024) path in
      let n = 10_000 in
      let encoded = ref 0 in
      for i = 0 to n - 1 do
        let e = mk_entry i in
        encoded := !encoded + String.length (Journal.encode_entry e) + 1;
        Journal.append j e
      done;
      (* append-only: bytes pushed to disk = bytes encoded, not the
         Σ-of-prefixes (~n²/2 entry-writes) the rewrite-per-append
         implementation paid *)
      check_int "bytes written = bytes encoded over 10k appends" !encoded
        (Journal.bytes_written j);
      check_int "all entries live" n (Journal.length j);
      check_bool "rotated well past one segment" true
        (Journal.rotations j > 10))

let test_journal_torn_segment () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal ~segment_bytes:1024 path in
      List.iter (Journal.append j) (List.init 60 mk_entry);
      Journal.close j;
      (match Journal.segments j with
      | seg :: _ ->
          (* tear the first closed segment's tail *)
          let body = read_file seg in
          let oc = open_out_bin seg in
          output_string oc (String.sub body 0 (String.length body - 7));
          close_out oc
      | [] -> Alcotest.fail "expected a closed segment");
      expect_raise "torn segment tail"
        (function Journal.Corrupt _ -> true | _ -> false)
        (fun () -> ignore (Journal.load path)))

let test_journal_compact () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal ~segment_bytes:1024 path in
      let entries = List.init 80 mk_entry in
      List.iter (Journal.append j) entries;
      check_bool "pre: segments on disk" true (Journal.segments j <> []);
      Journal.compact j;
      check_bool "post: no segments" true (Journal.segments j = []);
      check_bool "post: load unchanged" true (Journal.load path = entries);
      let extra = mk_entry 999 in
      Journal.append j extra;
      check_bool "append after compaction" true
        (Journal.load path = entries @ [ extra ]))

(* ---------------------------------------------------------------- *)
(* Cluster: the churn scenario's guarantees                          *)
(* ---------------------------------------------------------------- *)

module C = Cluster

(* A fast mid-size churn: 100 nodes / 800 procs, crashes and gangs on. *)
let test_cfg =
  {
    C.default_churn with
    C.c_nodes = 100;
    c_procs = 800;
    c_crash_nodes = 4;
    c_max_moves = 40;
    c_gang_groups = 6;
    c_gang_size = 4;
  }

let with_obs f =
  let tr = Obs.Trace.create () in
  let reg = Obs.Metrics.create () in
  Obs.reset ();
  Obs.set_trace (Some tr);
  Obs.set_metrics (Some reg);
  Fun.protect ~finally:Obs.reset (fun () -> f tr reg)

(* One full observed churn run into [dir]: returns (stats, journal
   bytes, trace json, metrics text). *)
let observed_run dir cfg =
  let path = Filename.concat dir "fleet.hpmj" in
  let j = Journal.open_journal path in
  let t, trace, metrics =
    with_obs (fun tr reg ->
        let t = C.run (C.create ~journal:j cfg) in
        (t, Obs.Trace.to_json tr, Obs.Metrics.render reg))
  in
  Journal.close j;
  (C.stats t, journal_bytes path, trace, metrics)

let test_churn_determinism () =
  let run () = with_dir (fun dir -> observed_run dir test_cfg) in
  let s1, j1, tr1, m1 = run () in
  let s2, j2, tr2, m2 = run () in
  check_bool "stats identical" true (s1 = s2);
  check_bool "journals byte-identical" true (j1 = j2);
  check_bool "chrome traces byte-identical" true (tr1 = tr2);
  check_bool "metrics byte-identical" true (m1 = m2);
  (* and the journal really exercised segmentation at this size *)
  check_bool "journal wrote real volume" true
    (String.length j1 > 100_000)

(* The journal is the one event record: each kind's
   [hpm_cluster_events_total] counter equals its journal entries, and
   node crashes, which have no journal kind, are counted apart. *)
let test_churn_metrics_match_journal () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal path in
      let t, reg =
        with_obs (fun _ reg -> (C.run (C.create ~journal:j test_cfg), reg))
      in
      Journal.close j;
      let entries = Journal.load path in
      let counted kind =
        Obs.Metrics.value reg "hpm_cluster_events_total" [ ("kind", kind) ]
        |> Option.value ~default:0.0 |> int_of_float
      in
      List.iter
        (fun ev ->
          check_int
            (Journal.ev_name ev ^ ": counter equals journal entries")
            (List.length (List.filter (fun e -> e.Journal.j_ev = ev) entries))
            (counted (Journal.ev_name ev)))
        Journal.all_evs;
      check_bool "the run migrated and recovered" true
        (counted "migrated" > 0 && counted "recovered" > 0);
      check_int "crashes counted without a journal kind"
        (C.stats t).C.cs_crashes (counted "crash"))

let finished_before journal proc ts =
  List.exists
    (fun e ->
      e.Journal.j_ev = Journal.Finished && e.Journal.j_proc = proc
      && e.Journal.j_ts < ts)
    journal

let test_churn_exactly_once () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal path in
      let t = C.run (C.create ~journal:j test_cfg) in
      let s = C.stats t in
      check_int "every process finished" test_cfg.C.c_procs s.C.cs_finished;
      check_bool "crashes actually injected" true (s.C.cs_crashes >= 3);
      check_bool "recoveries happened" true (s.C.cs_recovered > 0);
      let entries = Journal.load path in
      let finishes = Hashtbl.create 1024 in
      List.iter
        (fun e ->
          if e.Journal.j_ev = Journal.Finished then
            Hashtbl.replace finishes e.Journal.j_proc
              (1
              + Option.value ~default:0
                  (Hashtbl.find_opt finishes e.Journal.j_proc)))
        entries;
      check_int "distinct finishers" test_cfg.C.c_procs
        (Hashtbl.length finishes);
      Hashtbl.iter
        (fun proc n ->
          if n <> 1 then
            Alcotest.failf "%s finished %d times (exactly-once broken)" proc n)
        finishes)

let test_churn_antiflap () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal path in
      let t = C.run (C.create ~journal:j test_cfg) in
      ignore (C.stats t);
      let entries = Journal.load path in
      (* per proc: no Requested within the cooldown of its previous
         policy move (Requested or committed Migrated) *)
      let last_move = Hashtbl.create 1024 in
      let cooldown = test_cfg.C.c_cooldown_s -. 1e-9 in
      List.iter
        (fun e ->
          let proc = e.Journal.j_proc in
          match e.Journal.j_ev with
          | Journal.Requested ->
              (match Hashtbl.find_opt last_move proc with
              | Some prev when e.Journal.j_ts -. prev < cooldown ->
                  Alcotest.failf
                    "%s re-selected %.3fs after its last move (cooldown %.3f)"
                    proc (e.Journal.j_ts -. prev) test_cfg.C.c_cooldown_s
              | _ -> ());
              Hashtbl.replace last_move proc e.Journal.j_ts
          | Journal.Migrated -> Hashtbl.replace last_move proc e.Journal.j_ts
          | _ -> ())
        entries)

let test_churn_gang_atomicity () =
  with_dir (fun dir ->
      let path = Filename.concat dir "fleet.hpmj" in
      let j = Journal.open_journal path in
      let t = C.run (C.create ~journal:j test_cfg) in
      let entries = Journal.load path in
      let gangs = C.groups t in
      check_int "gangs configured" test_cfg.C.c_gang_groups (List.length gangs);
      let some_gang_moved = ref false in
      List.iter
        (fun (g, members) ->
          (* all Migrated commits of this gang's members, batched by ts *)
          let moves =
            List.filter
              (fun e ->
                e.Journal.j_ev = Journal.Migrated
                && List.mem e.Journal.j_proc members)
              entries
          in
          let by_ts = Hashtbl.create 8 in
          List.iter
            (fun e ->
              Hashtbl.replace by_ts e.Journal.j_ts
                (e
                :: Option.value ~default:[]
                     (Hashtbl.find_opt by_ts e.Journal.j_ts)))
            moves;
          Hashtbl.iter
            (fun ts batch ->
              some_gang_moved := true;
              (match List.sort_uniq compare (List.map (fun e -> e.Journal.j_dst) batch) with
              | [ _ ] -> ()
              | dsts ->
                  Alcotest.failf "gang %s split across %d destinations" g
                    (List.length dsts));
              (* the batch is the whole still-running gang: members
                 missing from it must have finished earlier *)
              let expected =
                List.filter
                  (fun m -> not (finished_before entries m ts))
                  members
              in
              if List.length batch <> List.length expected then
                Alcotest.failf
                  "gang %s commit at %.6f moved %d members, expected %d" g ts
                  (List.length batch) (List.length expected))
            by_ts)
        gangs;
      check_bool "at least one gang migration happened" true !some_gang_moved)

let test_churn_1k_scale () =
  (* the acceptance pin: the standing 1000-node / 10k-process scenario
     drains its imbalance with ≥100 overlapping migrations and every
     process finishing *)
  let t = C.run (C.create C.default_churn) in
  let s = C.stats t in
  check_int "10k processes all finish" C.default_churn.C.c_procs
    s.C.cs_finished;
  check_bool
    (Printf.sprintf "peak in-flight %d >= 100" s.C.cs_peak_inflight)
    true
    (s.C.cs_peak_inflight >= 100);
  check_bool "thousands of migrations committed" true
    (s.C.cs_migrations > 1000);
  check_bool "crash recovery exercised" true (s.C.cs_recovered > 0)

let suite =
  [
    tc "eheap: (time, seq) pop order with ties" test_eheap_order;
    tc "eheap: 500 random inserts drain sorted" test_eheap_random;
    tc "policy: tie-breaks survive node permutation" test_policy_permutation;
    tc "policy: anti-flap hysteresis masks recent movers"
      test_policy_hysteresis;
    tc "policy: gang moves whole groups or nothing" test_policy_gang;
    tc "policy: locality balances within sites" test_policy_locality;
    tc "sched: permuted registration, same placement"
      test_sched_permuted_nodes;
    tc "sched: at-scheduled actions fire in (time, seq) order" test_sched_at;
    tc "journal: rotation preserves bytes and load order"
      test_journal_rotation;
    tc_slow "journal: 10k appends are append-only (amortized O(1))"
      test_journal_amortized_o1;
    tc "journal: torn segment tail raises Corrupt" test_journal_torn_segment;
    tc "journal: compaction merges segments" test_journal_compact;
    tc_slow "cluster: same-seed churn is byte-identical"
      test_churn_determinism;
    tc_slow "cluster: every event counter equals its journal entries"
      test_churn_metrics_match_journal;
    tc_slow "cluster: exactly-once output under node crashes"
      test_churn_exactly_once;
    tc_slow "cluster: anti-flap hysteresis holds in the journal"
      test_churn_antiflap;
    tc_slow "cluster: gang migrations land together or not at all"
      test_churn_gang_atomicity;
    tc_slow "cluster: 1000-node churn sustains >=100 in-flight"
      test_churn_1k_scale;
  ]
