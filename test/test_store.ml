(** The incremental checkpoint store: chunked snapshot ≡ monolithic
    collection (bit-for-bit), delta streams, dedup, GC, and damage
    handling. *)

open Util
open Hpm_core
open Hpm_store
open Hpm_machine

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hpm_store_%d_%d" (Unix.getpid ()) !n)
    in
    (* Store.open_store creates it *)
    d

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

(* Advance a suspended process to its next suspension, [polls] poll
   events later; None if it finishes first. *)
let advance p polls =
  Interp.request_migration_after p polls;
  match Interp.run p with
  | Interp.RPolled _ -> Some p
  | Interp.RDone _ -> None
  | Interp.RFuel -> Alcotest.fail "out of fuel"

(* ---------------------------------------------------------------- *)
(* Write-generation tracking                                         *)
(* ---------------------------------------------------------------- *)

let test_write_mark () =
  let m = prepare (workload "jacobi" 4) in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
  let m1 = Mem.write_mark p.Interp.mem in
  check_bool "mark positive after init" true (m1 > 0);
  match advance p 1 with
  | None -> Alcotest.fail "jacobi finished too early"
  | Some p ->
      let m2 = Mem.write_mark p.Interp.mem in
      check_bool "mark advances with execution" true (m2 > m1)

let test_clean_second_epoch () =
  let m = prepare (workload "jacobi" 4) in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 1 in
  let cache = Snapshot.new_cache () in
  let _, chunks1, s1 = Snapshot.collect ~epoch:1 ~cache p m.Migration.ti in
  check_bool "first epoch serializes blocks" true (Hashtbl.length chunks1 > 0);
  check_int "first epoch: all scanned blocks dirty" s1.Cstats.d_blocks_scanned
    s1.Cstats.d_blocks_dirty;
  (* same suspension, nothing ran: everything is clean and cache-hit *)
  let mf2, chunks2, s2 = Snapshot.collect ~epoch:2 ~cache p m.Migration.ti in
  check_int "no dirty blocks without execution" 0 s2.Cstats.d_blocks_dirty;
  check_int "no fresh chunks without execution" 0 (Hashtbl.length chunks2);
  check_int "every block a cache hit" s2.Cstats.d_blocks_scanned s2.Cstats.d_cache_hits;
  check_int "same block count" s1.Cstats.d_blocks_scanned (Array.length mf2.Store.mf_blocks)

let test_scan_metrics () =
  (* the shared walk publishes the MSRLT scan counters for snapshots too *)
  let m = prepare (workload "hashtab" 80) in
  let p, _ = suspend m Hpm_arch.Arch.sparc20 1 in
  let cache = Snapshot.new_cache () in
  let module Obs = Hpm_obs.Obs in
  Obs.reset ();
  let reg = Obs.Metrics.create () in
  Obs.set_metrics (Some reg);
  Fun.protect ~finally:Obs.reset (fun () ->
      let _, _, s1 = Snapshot.collect ~epoch:1 ~cache p m.Migration.ti in
      let p =
        match advance p 3 with Some p -> p | None -> Alcotest.fail "hashtab finished"
      in
      let _, _, s2 = Snapshot.collect ~epoch:2 ~cache p m.Migration.ti in
      check_bool "some blocks clean in the second epoch" true
        (s2.Cstats.d_blocks_dirty < s2.Cstats.d_blocks_scanned);
      let v name = Obs.Metrics.value reg name [] in
      let sum f = Some (float_of_int (f s1 + f s2)) in
      check_bool "blocks_scanned_total = Σ d_blocks_scanned" true
        (v "hpm_msrlt_blocks_scanned_total" = sum (fun s -> s.Cstats.d_blocks_scanned));
      check_bool "blocks_dirty_total = Σ d_blocks_dirty" true
        (v "hpm_msrlt_blocks_dirty_total" = sum (fun s -> s.Cstats.d_blocks_dirty)))

(* ---------------------------------------------------------------- *)
(* Bit-identity with the monolithic collector                        *)
(* ---------------------------------------------------------------- *)

let check_identity name m arch after epoch =
  let p, _ = suspend m arch after in
  let full, _ = Collect.collect ~epoch p m.Migration.ti in
  let mf, chunks, _ = Snapshot.collect ~epoch p m.Migration.ti in
  let stream =
    Snapshot.materialize ~ti:m.Migration.ti
      ~lookup:(fun h ->
        match Hashtbl.find_opt chunks h with
        | Some payload -> payload
        | None -> Alcotest.failf "%s: missing chunk" name)
      mf
  in
  check_bool (name ^ ": materialized stream is byte-identical") true (String.equal full stream)

let test_identity () =
  List.iter
    (fun (wname, n, arch, after) ->
      let m = prepare (workload wname n) in
      check_identity
        (Printf.sprintf "%s/%s/after=%d" wname arch.Hpm_arch.Arch.name after)
        m arch after 3)
    [
      ("test_pointer", 0, Hpm_arch.Arch.dec5000, 0);
      ("test_pointer", 0, Hpm_arch.Arch.x86_64, 2);
      ("jacobi", 4, Hpm_arch.Arch.ultra5, 1);
      ("listops", 30, Hpm_arch.Arch.sparc20, 2);
      ("hashtab", 60, Hpm_arch.Arch.i386, 1);
      ("qsort", 40, Hpm_arch.Arch.x86_64, 1);
      (* many small blocks, as in migrate-pointer *)
      ("bitonic", 200, Hpm_arch.Arch.sparc20, 1000);
      (* a few huge blocks, as in migrate-bulk *)
      ("linpack", 24, Hpm_arch.Arch.dec5000, 30);
      ("bitonic_pooled", 200, Hpm_arch.Arch.x86_64, 600);
    ]

let test_identity_with_cache_chain () =
  (* identity must also hold when chunks come from a warm cache: collect
     at successive suspensions with the same cache and compare each
     materialization against a fresh monolithic collection *)
  List.iter
    (fun (wname, n, gaps) ->
      let m = prepare (workload wname n) in
      let p, _ = suspend m Hpm_arch.Arch.dec5000 0 in
      let cache = Snapshot.new_cache () in
      let all_chunks = Hashtbl.create 64 in
      let rec go p epoch = function
        | [] -> ()
        | gap :: rest -> (
            let full, _ = Collect.collect ~epoch p m.Migration.ti in
            let mf, chunks, _ = Snapshot.collect ~epoch ~cache p m.Migration.ti in
            Hashtbl.iter (Hashtbl.replace all_chunks) chunks;
            let stream =
              Snapshot.materialize ~ti:m.Migration.ti
                ~lookup:(fun h ->
                  match Hashtbl.find_opt all_chunks h with
                  | Some payload -> payload
                  | None -> Alcotest.failf "%s: chunk lost across epochs" wname)
                mf
            in
            check_bool
              (Printf.sprintf "%s epoch %d identical" wname epoch)
              true (String.equal full stream);
            match advance p gap with None -> () | Some p -> go p (epoch + 1) rest)
      in
      go p 1 gaps)
    [ ("jacobi", 4, [ 1; 1; 2 ]); ("hashtab", 80, [ 1; 3; 1 ]); ("listops", 40, [ 2; 2 ]) ]

let test_restore_equivalence () =
  (* a store round-trip must preserve program output across architectures *)
  List.iter
    (fun (src_arch, dst_arch) ->
      with_store (fun st ->
          let m = prepare (workload "hashtab" 100) in
          let p, _ = suspend m src_arch 1 in
          let prefix = Interp.output p in
          let mf, chunks, stats =
            Snapshot.collect ~epoch:1 ~proc:"hashtab" p m.Migration.ti
          in
          Snapshot.persist st mf chunks stats;
          match Snapshot.restore_latest m dst_arch st ~proc:"hashtab" with
          | None -> Alcotest.fail "restore_latest found nothing"
          | Some (q, _, mf') ->
              check_int "restored epoch" 1 mf'.Store.mf_epoch;
              let out =
                match Interp.run q with
                | Interp.RDone _ -> Interp.output q
                | _ -> Alcotest.fail "restored process did not finish"
              in
              let expected, _, _ = Migration.run_plain m src_arch in
              check_string
                (Printf.sprintf "%s→%s output" src_arch.Hpm_arch.Arch.name
                   dst_arch.Hpm_arch.Arch.name)
                expected (prefix ^ out)))
    same_width_pairs

(* ---------------------------------------------------------------- *)
(* QCheck: delta chains equal full collection across arch pairs      *)
(* ---------------------------------------------------------------- *)

let delta_chain_prop =
  let open QCheck in
  let pairs =
    [
      (Hpm_arch.Arch.dec5000, Hpm_arch.Arch.sparc20);
      (Hpm_arch.Arch.sparc20, Hpm_arch.Arch.ultra5);
      (Hpm_arch.Arch.i386, Hpm_arch.Arch.sparc20);
      (Hpm_arch.Arch.dec5000, Hpm_arch.Arch.i386);
    ]
  in
  let gen =
    Gen.(
      triple (int_range 0 3)
        (list_size (int_range 1 3) (int_range 1 3))
        (int_range 0 (List.length pairs - 1)))
  in
  qt ~count:25 "delta chain ≡ full collection (store round-trip, cross-arch)"
    (make
       ~print:(fun (a, g, i) ->
         Printf.sprintf "start=%d gaps=[%s] pair=%d" a
           (String.concat ";" (List.map string_of_int g))
           i)
       gen)
    (fun (start, gaps, pair_i) ->
      let src_arch, dst_arch = List.nth pairs pair_i in
      let m = prepare (workload "hashtab" 80) in
      let sdir = fresh_dir () and ddir = fresh_dir () in
      let src_store = Store.open_store sdir in
      let dst_store = Store.open_store ddir in
      Fun.protect
        ~finally:(fun () ->
          (try rm_rf sdir with _ -> ());
          try rm_rf ddir with _ -> ())
        (fun () ->
          let p = Migration.start m src_arch in
          Interp.request_migration_after p start;
          match Interp.run p with
          | Interp.RDone _ -> true (* finished before first poll: vacuous *)
          | Interp.RFuel -> false
          | Interp.RPolled _ ->
              let cache = Snapshot.new_cache () in
              let chunks_acc = Hashtbl.create 64 in
              let ship ?base epoch p =
                let mf, chunks, stats =
                  Snapshot.collect ~epoch ~proc:"q" ~cache p m.Migration.ti
                in
                Hashtbl.iter (Hashtbl.replace chunks_acc) chunks;
                Snapshot.persist src_store mf chunks stats;
                let wire =
                  Store.encode_delta ?base
                    ~lookup:(fun h ->
                      match Hashtbl.find_opt chunks_acc h with
                      | Some payload -> payload
                      | None -> Store.get_chunk src_store h)
                    mf
                in
                let applied = Store.apply dst_store ?expect_base:base wire in
                (* receiver's materialization must equal a fresh monolithic
                   collection at this very suspension *)
                let full, _ = Collect.collect ~epoch p m.Migration.ti in
                let stream =
                  Snapshot.materialize ~ti:m.Migration.ti
                    ~lookup:(Store.get_chunk dst_store) applied
                in
                if not (String.equal full stream) then
                  QCheck.Test.fail_report "materialized stream diverged";
                applied
              in
              let rec rounds p base epoch = function
                | [] -> (p, base)
                | gap :: rest -> (
                    match advance p gap with
                    | None -> (p, base)
                    | Some p ->
                        let applied = ship ~base epoch p in
                        rounds p applied (epoch + 1) rest)
              in
              let base = ship 1 p in
              let p, final = rounds p base 2 gaps in
              (* and the final image restores to the right output *)
              let prefix = Interp.output p in
              let q, _ =
                Snapshot.restore_manifest m dst_arch
                  ~lookup:(Store.get_chunk dst_store) final
              in
              let out =
                match Interp.run q with
                | Interp.RDone _ -> Interp.output q
                | _ -> QCheck.Test.fail_report "restored process did not finish"
              in
              let expected, _, _ = Migration.run_plain m src_arch in
              String.equal expected (prefix ^ out)))

(* ---------------------------------------------------------------- *)
(* Checkpoint / restart: save once on one arch, restart on others    *)
(* ---------------------------------------------------------------- *)

(* Run [m] on [arch], commit a snapshot of [proc] at the (k+1)-th poll
   event into [st] and stop; the output printed before the checkpoint
   and the collection statistics. *)
let checkpoint st m arch ~after ~proc =
  let p, _ = suspend m arch after in
  let mf, chunks, stats = Snapshot.collect ~epoch:1 ~proc p m.Migration.ti in
  Snapshot.persist st mf chunks stats;
  (Interp.output p, mf, stats)

(* Restart the newest committed epoch of [proc] on [arch] and run it to
   completion; the output printed after the restart. *)
let restart st m arch ~proc =
  match Snapshot.restore_latest m arch st ~proc with
  | None -> Alcotest.fail "restore_latest found nothing"
  | Some (q, _, _) -> finish_output "" q

let test_restart_heterogeneous () =
  with_store (fun st ->
      let m = prepare (Hpm_workloads.Bitonic.source 500) in
      let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
      (* save on a little-endian machine, resume on a big-endian one *)
      let before, _, stats =
        checkpoint st m Hpm_arch.Arch.dec5000 ~after:800 ~proc:"bitonic"
      in
      check_bool "checkpoint non-trivial" true (stats.Cstats.d_delta_bytes > 1000);
      let after = restart st m Hpm_arch.Arch.sparc20 ~proc:"bitonic" in
      check_string "resumed output completes the run" expected (before ^ after))

let test_restart_twice () =
  (* a committed epoch is immutable: it can restart any number of times,
     on different machines *)
  with_store (fun st ->
      let m = prepare (Hpm_workloads.Nqueens.source 6) in
      let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
      let before, _, _ = checkpoint st m Hpm_arch.Arch.sparc20 ~after:50 ~proc:"q" in
      let a = restart st m Hpm_arch.Arch.dec5000 ~proc:"q" in
      let b = restart st m Hpm_arch.Arch.i386 ~proc:"q" in
      check_string "first restart" expected (before ^ a);
      check_string "second restart" expected (before ^ b))

let test_restart_wrong_program () =
  with_store (fun st ->
      let m1 = prepare (Hpm_workloads.Nqueens.source 6) in
      let m2 = prepare (Hpm_workloads.Bitonic.source 200) in
      let _, mf, _ = checkpoint st m1 Hpm_arch.Arch.ultra5 ~after:10 ~proc:"q" in
      expect_raise "another program's image rejected"
        (function Restore.Error _ -> true | _ -> false)
        (fun () ->
          Snapshot.restore_manifest m2 Hpm_arch.Arch.ultra5 ~lookup:(Store.get_chunk st) mf);
      check_bool "restore_latest finds nothing for another program" true
        (Snapshot.restore_latest m2 Hpm_arch.Arch.ultra5 st ~proc:"q" = None))

let test_restart_damaged_store () =
  with_store (fun st ->
      let m = prepare (Hpm_workloads.Nqueens.source 6) in
      let _, mf, _ = checkpoint st m Hpm_arch.Arch.ultra5 ~after:10 ~proc:"q" in
      (* truncate one chunk file to half its length *)
      let path = Store.chunk_path st (List.hd (Store.manifest_hashes mf)) in
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub data 0 (String.length data / 2)));
      expect_raise "damaged chunk rejected"
        (function Store.Corrupt _ -> true | _ -> false)
        (fun () ->
          Snapshot.restore_manifest m Hpm_arch.Arch.ultra5 ~lookup:(Store.get_chunk st) mf);
      check_bool "restore_latest skips the damaged epoch" true
        (Snapshot.restore_latest m Hpm_arch.Arch.ultra5 st ~proc:"q" = None))

let test_restart_no_manifest () =
  with_store (fun st ->
      let m = prepare (Hpm_workloads.Nqueens.source 6) in
      check_bool "no manifest, nothing to restore" true
        (Snapshot.restore_latest m Hpm_arch.Arch.ultra5 st ~proc:"q" = None))

(* ---------------------------------------------------------------- *)
(* Store mechanics: dedup, refcount, retain, GC                      *)
(* ---------------------------------------------------------------- *)

let two_epoch_store st =
  let m = prepare (workload "jacobi" 4) in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 1 in
  let cache = Snapshot.new_cache () in
  let mf1, c1, s1 = Snapshot.collect ~epoch:1 ~proc:"j" ~cache p m.Migration.ti in
  Snapshot.persist st mf1 c1 s1;
  let p = match advance p 2 with Some p -> p | None -> Alcotest.fail "finished early" in
  let mf2, c2, s2 = Snapshot.collect ~epoch:2 ~proc:"j" ~cache p m.Migration.ti in
  Snapshot.persist st mf2 c2 s2;
  (m, mf1, mf2, s2)

let test_dedup_and_refcount () =
  with_store (fun st ->
      let _, mf1, mf2, s2 = two_epoch_store st in
      check_bool "second epoch reuses chunks" true (s2.Cstats.d_chunks_reused > 0);
      (* a chunk shared by both manifests has refcount 2 *)
      let h1 = List.hd (Store.manifest_hashes mf1) in
      let shared =
        List.exists (fun h -> List.mem h (Store.manifest_hashes mf1)) (Store.manifest_hashes mf2)
      in
      check_bool "some chunk is shared across epochs" true shared;
      check_bool "refcount counts referencing manifests" true (Store.refcount st h1 >= 1);
      check_int "epochs listed" 2 (List.length (Store.manifest_epochs st ~proc:"j"));
      check_int "one proc" 1 (List.length (Store.procs st)))

let test_gc_preserves_referenced () =
  with_store (fun st ->
      let m, _, mf2, _ = two_epoch_store st in
      let removed = Store.retain st ~proc:"j" ~keep:1 in
      check_int "retain dropped the old manifest" 1 removed;
      let g = Store.gc st in
      check_bool "gc reclaimed the old epoch's unique chunks" true (g.Store.gc_reclaimed_chunks > 0);
      check_bool "gc reports reclaimed bytes" true (g.Store.gc_reclaimed_bytes > 0);
      check_int "no damaged manifests" 0 g.Store.gc_damaged_manifests;
      (* every chunk of the surviving manifest is intact *)
      List.iter
        (fun h -> check_bool "live chunk survives gc" true (Store.has_chunk st h))
        (Store.manifest_hashes mf2);
      let q, _ =
        Snapshot.restore_manifest m Hpm_arch.Arch.ultra5 ~lookup:(Store.get_chunk st) mf2
      in
      check_bool "post-gc restore works" true (match Interp.run q with Interp.RDone _ -> true | _ -> false);
      (* idempotent: nothing more to reclaim *)
      let g2 = Store.gc st in
      check_int "second gc reclaims nothing" 0 g2.Store.gc_reclaimed_chunks)

let test_gc_ignores_torn_manifest () =
  with_store (fun st ->
      let _, _, mf2, _ = two_epoch_store st in
      (* a torn (uncommitted) manifest protects nothing and breaks nothing *)
      let mdir = Filename.concat st.Store.dir "manifests" in
      let oc = open_out_bin (Filename.concat mdir "j.00000099.mf") in
      output_string oc (String.sub (Store.serialize_manifest mf2) 0 10);
      close_out oc;
      let g = Store.gc st in
      check_int "damaged manifest counted" 1 g.Store.gc_damaged_manifests;
      check_bool "live chunks kept" true (g.Store.gc_live_chunks > 0);
      match Store.latest_manifest st ~proc:"j" with
      | Some mf -> check_int "latest skips the torn manifest" 2 mf.Store.mf_epoch
      | None -> Alcotest.fail "no committed manifest found")

(* Crash injection: an interrupted [put_chunk] dies between writing
   "<hash>.ck.tmp" and the rename.  gc must neither count the orphan as
   reclaimed nor delete it, and retrying the commit must succeed. *)
let test_gc_ignores_tmp_orphans () =
  with_store (fun st ->
      let payload = "chunk payload whose first commit never finished" in
      let hash, fresh = Store.put_chunk st payload in
      check_bool "first commit writes" true fresh;
      let path = Store.chunk_path st hash in
      (* rewind to mid-crash: the tmp exists, the committed chunk does not *)
      Sys.remove path;
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      output_string oc (String.sub payload 0 10);
      close_out oc;
      let g = Store.gc st in
      check_int "orphan tmp not counted as reclaimed" 0 g.Store.gc_reclaimed_chunks;
      check_int "no reclaimed bytes from the orphan" 0 g.Store.gc_reclaimed_bytes;
      check_bool "orphan tmp left in place" true (Sys.file_exists tmp);
      (* the retried commit overwrites the stale tmp and lands cleanly *)
      let hash2, fresh2 = Store.put_chunk st payload in
      check_bool "same content, same hash" true (String.equal hash hash2);
      check_bool "re-commit writes again" true fresh2;
      check_string "chunk round-trips after the retry" payload (Store.get_chunk st hash);
      check_bool "tmp consumed by the rename" true (not (Sys.file_exists tmp)))

let test_retain_bounds () =
  with_store (fun st ->
      let _, _, _, _ = two_epoch_store st in
      check_int "keep more than present removes nothing" 0 (Store.retain st ~proc:"j" ~keep:5);
      check_int "keep zero removes all" 2 (Store.retain st ~proc:"j" ~keep:0);
      check_bool "no manifests left" true (Store.latest_manifest st ~proc:"j" = None))

let test_unwritable_store () =
  expect_raise "open_store on a non-directory" (function Store.Error _ -> true | _ -> false)
    (fun () -> Store.open_store "/dev/null/foo")

let test_bad_proc_name () =
  with_store (fun st ->
      let m = prepare (workload "test_pointer" 0) in
      let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
      let mf, chunks, stats = Snapshot.collect ~proc:"evil" p m.Migration.ti in
      let mf = { mf with Store.mf_proc = "../escape" } in
      expect_raise "slashful proc name" (function Store.Error _ -> true | _ -> false)
        (fun () -> Snapshot.persist st mf chunks stats))

(* ---------------------------------------------------------------- *)
(* Delta wire: base checking and damage                              *)
(* ---------------------------------------------------------------- *)

let test_delta_smaller_and_applies () =
  with_store (fun src ->
      with_store (fun dst ->
          let m = prepare (workload "jacobi" 4) in
          let p, _ = suspend m Hpm_arch.Arch.ultra5 1 in
          let cache = Snapshot.new_cache () in
          let acc = Hashtbl.create 64 in
          let collect_ship epoch p =
            let mf, chunks, stats = Snapshot.collect ~epoch ~proc:"j" ~cache p m.Migration.ti in
            Hashtbl.iter (Hashtbl.replace acc) chunks;
            Snapshot.persist src mf chunks stats;
            mf
          in
          let lookup h =
            match Hashtbl.find_opt acc h with
            | Some payload -> payload
            | None -> Store.get_chunk src h
          in
          let mf1 = collect_ship 1 p in
          let full_wire = Store.encode_delta ~lookup mf1 in
          let base = Store.apply dst full_wire in
          check_int "full applies as epoch 1" 1 base.Store.mf_epoch;
          let p = match advance p 1 with Some p -> p | None -> Alcotest.fail "finished" in
          let mf2 = collect_ship 2 p in
          let stats = Cstats.delta_zero () in
          let delta_wire = Store.encode_delta ~base ~stats ~lookup mf2 in
          let full2_wire = Store.encode_delta ~lookup mf2 in
          check_bool "delta ships fewer bytes than full" true
            (String.length delta_wire < String.length full2_wire);
          check_bool "delta reuses base chunks" true (stats.Cstats.d_chunks_reused > 0);
          (* wrong base: a receiver holding epoch-2 state rejects a delta
             against epoch 1 only via hash comparison *)
          expect_raise "base mismatch" (function Store.Base_mismatch _ -> true | _ -> false)
            (fun () -> Store.apply dst ~expect_base:mf2 delta_wire);
          expect_raise "delta without a base" (function Store.Base_mismatch _ -> true | _ -> false)
            (fun () -> Store.apply dst delta_wire);
          let applied = Store.apply dst ~expect_base:base delta_wire in
          check_int "delta applies as epoch 2" 2 applied.Store.mf_epoch;
          (* idempotent re-apply *)
          let again = Store.apply dst ~expect_base:base delta_wire in
          check_string "re-apply is harmless" (Store.hash_hex (Store.manifest_hash applied))
            (Store.hash_hex (Store.manifest_hash again))))

let test_delta_missing_base_chunk () =
  (* an incremental delta ships only the chunks its base lacks; when a
     base-inherited chunk has vanished from the receiver's store, apply
     must refuse to commit a manifest it could never materialize *)
  with_store (fun src ->
      with_store (fun dst ->
          let m = prepare (workload "jacobi" 4) in
          let p, _ = suspend m Hpm_arch.Arch.ultra5 1 in
          let cache = Snapshot.new_cache () in
          let acc = Hashtbl.create 64 in
          let collect_ship epoch p =
            let mf, chunks, stats = Snapshot.collect ~epoch ~proc:"j" ~cache p m.Migration.ti in
            Hashtbl.iter (Hashtbl.replace acc) chunks;
            Snapshot.persist src mf chunks stats;
            mf
          in
          let lookup = Hashtbl.find acc in
          let base = Store.apply dst (Store.encode_delta ~lookup (collect_ship 1 p)) in
          let p = match advance p 1 with Some p -> p | None -> Alcotest.fail "finished" in
          let mf2 = collect_ship 2 p in
          let wire = Store.encode_delta ~base ~lookup mf2 in
          let inherited =
            List.find
              (fun h -> List.mem h (Store.manifest_hashes base))
              (Store.manifest_hashes mf2)
          in
          let path =
            Filename.concat (Filename.concat dst.Store.dir "chunks")
              (Store.hash_hex inherited ^ ".ck")
          in
          let saved = In_channel.with_open_bin path In_channel.input_all in
          Sys.remove path;
          expect_raise "missing base chunk"
            (function Store.Corrupt m -> contains_sub m "unmaterializable" | _ -> false)
            (fun () -> Store.apply dst ~expect_base:base wire);
          check_bool "no manifest committed" true
            (Store.manifest_epochs dst ~proc:"j" = [ 1 ]);
          (* with the chunk back, the same delta applies *)
          Out_channel.with_open_bin path (fun oc -> output_string oc saved);
          check_int "delta applies once the chunk is back" 2
            (Store.apply dst ~expect_base:base wire).Store.mf_epoch))

(* every-prefix truncation fuzz, in the style of test_failure's image fuzz *)
let cuts n =
  if n <= 1500 then List.init n Fun.id
  else
    let stride = List.init (n / 3) (fun i -> i * 3) in
    let tail = List.init 64 (fun i -> n - 64 + i) in
    stride @ tail

let test_manifest_truncation () =
  let m = prepare (workload "test_pointer" 0) in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 0 in
  let mf, _, _ = Snapshot.collect ~epoch:1 ~proc:"t" p m.Migration.ti in
  let data = Store.serialize_manifest mf in
  let n = String.length data in
  List.iter
    (fun k ->
      expect_raise
        (Printf.sprintf "manifest prefix %d/%d" k n)
        (function Store.Corrupt _ -> true | _ -> false)
        (fun () -> Store.parse_manifest (String.sub data 0 k)))
    (cuts n);
  let mf' = Store.parse_manifest data in
  check_string "full manifest round-trips" (Store.hash_hex (Store.manifest_hash mf))
    (Store.hash_hex (Store.manifest_hash mf'))

let test_delta_truncation () =
  with_store (fun dst ->
      let m = prepare (workload "test_pointer" 0) in
      let p, _ = suspend m Hpm_arch.Arch.dec5000 0 in
      let mf, chunks, _ = Snapshot.collect ~epoch:1 ~proc:"t" p m.Migration.ti in
      let wire = Store.encode_delta ~lookup:(Hashtbl.find chunks) mf in
      let n = String.length wire in
      List.iter
        (fun k ->
          expect_raise
            (Printf.sprintf "delta prefix %d/%d" k n)
            (function Store.Corrupt _ -> true | _ -> false)
            (fun () -> Store.apply dst (String.sub wire 0 k)))
        (cuts n);
      (* flipping a chunk byte must be caught by the content hash *)
      let flipped = Bytes.of_string wire in
      let mid = n - 10 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
      expect_raise "corrupted delta chunk" (function Store.Corrupt _ -> true | _ -> false)
        (fun () -> Store.apply dst (Bytes.to_string flipped));
      ignore (Store.apply dst wire))

let test_chunk_file_damage () =
  with_store (fun st ->
      let m = prepare (workload "test_pointer" 0) in
      let p, _ = suspend m Hpm_arch.Arch.dec5000 0 in
      let mf, chunks, stats = Snapshot.collect ~epoch:1 ~proc:"t" p m.Migration.ti in
      Snapshot.persist st mf chunks stats;
      let h = List.hd (Store.manifest_hashes mf) in
      let path =
        Filename.concat (Filename.concat st.Store.dir "chunks") (Store.hash_hex h ^ ".ck")
      in
      let data = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun k ->
          let oc = open_out_bin path in
          output_string oc (String.sub data 0 k);
          close_out oc;
          expect_raise
            (Printf.sprintf "chunk prefix %d" k)
            (function Store.Corrupt _ -> true | _ -> false)
            (fun () -> Store.get_chunk st h))
        (cuts (String.length data));
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      check_int "restored chunk reads back" (String.length (Store.get_chunk st h))
        (List.find (fun bi -> bi.Store.b_hash = h) (Array.to_list mf.Store.mf_blocks)).Store.b_size)

let test_chunk_negative_ordinal () =
  let m =
    prepare_user
      {|
int x;
int *p;
int main() {
  x = 5;
  p = &x;
  #pragma poll here
  print_int(*p);
  return 0;
}
|}
  in
  let proc, _ = suspend m Hpm_arch.Arch.dec5000 0 in
  let mf, chunks, _ = Snapshot.collect ~epoch:1 ~proc:"t" proc m.Migration.ti in
  let global name =
    List.find (fun bi -> bi.Store.b_ident = Mem.Iglobal name) (Array.to_list mf.Store.mf_blocks)
  in
  ignore (Snapshot.materialize ~ti:m.Migration.ti ~lookup:(Hashtbl.find chunks) mf : string);
  (* p's chunk, rewritten to point at x's ordinal -1, under its own hash *)
  let b = Buffer.create 16 in
  Store.put_datum b (Store.Dref ((global "x").Store.b_bid, -1));
  let payload = Buffer.contents b in
  let hash = Digest.string payload in
  let bad = { (global "p") with Store.b_hash = hash; b_size = String.length payload } in
  let mf =
    {
      mf with
      Store.mf_blocks =
        Array.map
          (fun bi -> if bi.Store.b_ident = bad.Store.b_ident then bad else bi)
          mf.Store.mf_blocks;
    }
  in
  let lookup h = if h = hash then payload else Hashtbl.find chunks h in
  expect_raise "negative ordinal in a chunk"
    (function Store.Corrupt _ -> true | _ -> false)
    (fun () -> Snapshot.materialize ~ti:m.Migration.ti ~lookup mf)

(* ---- golden v3 manifests and deltas ----

   Manifest hashes and delta-wire MD5s captured from the pre-optimization
   implementation (before the batch encoders, the shared scratch buffer,
   and [put_chunk_hashed]).  The optimized paths must reproduce them
   byte for byte.  Each row: collect a chunked snapshot at a fixed poll
   (epoch 3), encode the full delta, advance 7 polls, collect epoch 4,
   and encode the incremental delta against the first manifest. *)

let golden_deltas =
  [
    ( "jacobi", 40, 8, Hpm_arch.Arch.ultra5,
      "1a4115152ef8fbc90475828b5daf5439",
      ("3b4a0319de91f6b5b0f6c08d0f47affd", 18875),
      ("d0899797bcd11caceb6ff9c2b8fec561", 256) );
    ( "jacobi", 40, 8, Hpm_arch.Arch.dec5000,
      "3e72f7aa8fe9809ee1191a3dcf744062",
      ("1549455f676ceaf3e01cad871bb57198", 18876),
      ("59d0bbe40218fbf5339107b0ee529ea6", 257) );
    ( "hashtab", 2000, 6000, Hpm_arch.Arch.ultra5,
      "fb0f01fd1bf6511c777c22f87d1c38c1",
      ("b3c565448841abc56c13b9a381801920", 31764),
      ("02bf738b2e742469f291fd4852cfa245", 2461) );
    ( "bitonic", 3000, 6000, Hpm_arch.Arch.dec5000,
      "049ec61d9342ba0e185c973222b251ec",
      ("637c196749aa3ce48deacd613b9a3c4b", 37858),
      ("2f1409d1a379111309542ceefed0c5fa", 3985) );
    ( "linpack", 100, 80, Hpm_arch.Arch.x86_64,
      "63f5cc4198b23b80680501b83767569e",
      ("12d423c70d9134d65dac1cbf181577fc", 82030),
      ("c07e2fececa26395c5cdb42f53b8f59b", 80440) );
    ( "test_pointer", 0, 2, Hpm_arch.Arch.i386,
      "799622ddf35bea151168424272b704fe",
      ("4845e11c18115480af879b73d7ceefe6", 578),
      ("3504f4b1d381f8c7ad852790ab0cf787", 533) );
  ]

let test_golden_deltas () =
  List.iter
    (fun (name, n, poll, arch, mf_hex, (full_md5, full_len), (incr_md5, incr_len)) ->
      let label what = Printf.sprintf "%s/%s %s" name arch.Hpm_arch.Arch.name what in
      let m = prepare (workload name n) in
      let p, _ = suspend m arch poll in
      let mf, chunks, _ = Snapshot.collect ~epoch:3 ~proc:name p m.Migration.ti in
      let lookup h =
        match Hashtbl.find_opt chunks h with
        | Some c -> c
        | None -> Alcotest.fail "chunk lost"
      in
      check_string (label "manifest hash") mf_hex
        (Store.hash_hex (Store.manifest_hash mf));
      let full = Store.encode_delta ~lookup mf in
      check_int (label "full delta length") full_len (String.length full);
      check_string (label "full delta md5") full_md5 (Digest.to_hex (Digest.string full));
      match advance p 7 with
      | None -> Alcotest.failf "%s finished before the incremental epoch" name
      | Some p ->
          let mf2, chunks2, _ = Snapshot.collect ~epoch:4 ~proc:name p m.Migration.ti in
          Hashtbl.iter (Hashtbl.replace chunks) chunks2;
          let incr = Store.encode_delta ~base:mf ~lookup mf2 in
          check_int (label "incr delta length") incr_len (String.length incr);
          check_string (label "incr delta md5") incr_md5
            (Digest.to_hex (Digest.string incr)))
    golden_deltas

let suite =
  [
    tc "write mark advances" test_write_mark;
    tc "clean second epoch: zero dirty, all cache hits" test_clean_second_epoch;
    tc "snapshot epochs publish MSRLT scan counters" test_scan_metrics;
    tc "snapshot ≡ collect (bit-identity)" test_identity;
    tc "bit-identity along cached delta chains" test_identity_with_cache_chain;
    tc_slow "store round-trip preserves output (same-width pairs)" test_restore_equivalence;
    delta_chain_prop;
    tc "restart: LE save, BE resume" test_restart_heterogeneous;
    tc "restart: one save, N restarts" test_restart_twice;
    tc "restart: other program refused" test_restart_wrong_program;
    tc "restart: damaged store refused" test_restart_damaged_store;
    tc "restart: no manifest, None" test_restart_no_manifest;
    tc "dedup and refcount across epochs" test_dedup_and_refcount;
    tc "gc never reclaims referenced chunks" test_gc_preserves_referenced;
    tc "gc ignores torn manifests" test_gc_ignores_torn_manifest;
    tc "gc ignores orphan tmp files" test_gc_ignores_tmp_orphans;
    tc "retain bounds manifest history" test_retain_bounds;
    tc "unwritable store directory" test_unwritable_store;
    tc "hostile process name rejected" test_bad_proc_name;
    tc "delta wire: smaller, base-checked, idempotent" test_delta_smaller_and_applies;
    tc "delta missing a base-inherited chunk is refused" test_delta_missing_base_chunk;
    tc "manifest truncation fuzz" test_manifest_truncation;
    tc "delta truncation + bit-flip fuzz" test_delta_truncation;
    tc "chunk file damage fuzz" test_chunk_file_damage;
    tc "chunk datum with a negative ordinal rejected" test_chunk_negative_ordinal;
    tc_slow "golden v3 manifests and deltas unchanged" test_golden_deltas;
  ]
