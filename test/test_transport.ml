(** Chunked-transport tests: framing, CRC-32, the retry/abort protocol,
    and the end-to-end guarantee that a lossy link either delivers a
    byte-identical stream or leaves the source process runnable. *)

open Hpm_net
open Hpm_core
open Util

(* ---- CRC-32 ---- *)

let test_crc32_vectors () =
  (* standard IEEE CRC-32 check values (zlib-compatible) *)
  check_int "empty" 0 (Transport.crc32 "");
  check_int "check value" 0xCBF43926 (Transport.crc32 "123456789");
  check_int "a" 0xE8B7BE43 (Transport.crc32 "a");
  check_int "abc" 0x352441C2 (Transport.crc32 "abc");
  (* windowed digest matches the digest of the substring *)
  check_int "windowed" (Transport.crc32 "234567")
    (Transport.crc32 ~pos:1 ~len:6 "123456789")

let test_crc32_detects_flips () =
  let s = String.init 257 (fun i -> Char.chr (i * 31 mod 256)) in
  let c = Transport.crc32 s in
  for i = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    if Transport.crc32 (Bytes.to_string b) = c then
      Alcotest.failf "flip at %d not detected" i
  done

(* The bytewise reference: the textbook table-driven CRC-32, one byte
   per step, kept here so the kernel is checked against an independent
   implementation. *)
let crc32_ref ~pos ~len s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 1 to 8 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* random strings with a window inside them: any start, so unaligned
   ones too, and lengths covering every 0-7 byte tail after the 8-byte
   steps *)
let prop_crc32_kernel =
  let gen =
    QCheck.Gen.(
      string_size ~gen:char (int_range 0 100) >>= fun s ->
      let n = String.length s in
      int_range 0 n >>= fun pos ->
      int_range 0 (n - pos) >>= fun len -> return (s, pos, len))
  in
  qt ~count:2000 "crc32 kernel equals the bytewise reference"
    (QCheck.make ~print:(fun (s, pos, len) -> Printf.sprintf "%S ~pos:%d ~len:%d" s pos len) gen)
    (fun (s, pos, len) ->
      let want = crc32_ref ~pos ~len s in
      Transport.crc32 ~pos ~len s = want && Transport.crc32 (String.sub s pos len) = want)

let test_crc32_window_checked () =
  let s = "0123456789abcdef" in
  List.iter
    (fun (pos, len) ->
      expect_raise
        (Printf.sprintf "window ~pos:%d ~len:%d refused" pos len)
        (function Invalid_argument _ -> true | _ -> false)
        (fun () -> ignore (Transport.crc32 ~pos ~len s)))
    [ (-1, 4); (0, -1); (0, 17); (16, 1); (9, 8); (17, 0); (max_int, 1); (1, max_int) ];
  expect_raise "~pos past the end refused, default length"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Transport.crc32 ~pos:17 s));
  check_int "empty window at the end" 0 (Transport.crc32 ~pos:16 ~len:0 s)

(* ---- framing ---- *)

let test_frame_roundtrip () =
  let payload = "the quick brown fox" in
  let f = Transport.encode_frame ~seq:3 ~total:7 payload in
  check_int "frame overhead" (String.length payload + Transport.header_bytes)
    (String.length f);
  (match Transport.decode_frame ~expect_seq:3 ~expect_total:7 f with
  | Ok p -> check_string "payload back" payload p
  | Error e -> Alcotest.failf "rejected good frame: %s" e);
  (* wrong expectations are NAKed *)
  check_bool "wrong seq" true
    (Result.is_error (Transport.decode_frame ~expect_seq:4 ~expect_total:7 f));
  check_bool "wrong total" true
    (Result.is_error (Transport.decode_frame ~expect_seq:3 ~expect_total:8 f))

let test_frame_rejects_damage () =
  let f = Transport.encode_frame ~seq:0 ~total:1 "payload bytes here" in
  let reject s = Result.is_error (Transport.decode_frame ~expect_seq:0 ~expect_total:1 s) in
  (* every single-byte flip anywhere in the frame is caught *)
  for i = 0 to String.length f - 1 do
    let b = Bytes.of_string f in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    if not (reject (Bytes.to_string b)) then Alcotest.failf "flip at %d accepted" i
  done;
  (* every truncation is caught *)
  for k = 0 to String.length f - 1 do
    if not (reject (String.sub f 0 k)) then Alcotest.failf "truncation to %d accepted" k
  done;
  check_bool "empty" true (reject "")

(* ---- protocol: zero-fault path ---- *)

let test_zero_fault_no_overhead () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let ch = Netsim.loopback () in
  match Transport.transfer ch data with
  | Transport.Aborted _ -> Alcotest.fail "perfect link aborted"
  | Transport.Delivered (got, ts) ->
      check_string "byte-identical" data got;
      check_int "chunks" 3 ts.Transport.t_chunks;
      (* a clean link resends nothing *)
      check_int "no retries" 0 ts.Transport.t_retries;
      check_int "no resent bytes" 0 ts.Transport.t_resent_bytes;
      check_int "sent = chunks" ts.Transport.t_chunks ts.Transport.t_sent;
      check_int "payload accounted" (String.length data) ts.Transport.t_payload_bytes;
      check_bool "no backoff" true (ts.Transport.t_backoff_s = 0.0)

let test_empty_and_boundary_sizes () =
  let ch = Netsim.loopback () in
  let cfg = { Transport.default_config with Transport.chunk_size = 64 } in
  List.iter
    (fun n ->
      let data = String.init n (fun i -> Char.chr (i mod 256)) in
      match Transport.transfer ~config:cfg ch data with
      | Transport.Delivered (got, ts) ->
          check_string (Printf.sprintf "size %d" n) data got;
          check_int
            (Printf.sprintf "chunk count for %d" n)
            (max 1 ((n + 63) / 64))
            ts.Transport.t_chunks
      | Transport.Aborted _ -> Alcotest.failf "size %d aborted" n)
    [ 0; 1; 63; 64; 65; 128; 1000 ]

(* ---- protocol: faulty links ---- *)

let transfer_with ~loss ~corrupt ~seed ?(config = Transport.default_config) data =
  let faults = Netsim.fault_model ~loss_rate:loss ~corrupt_rate:corrupt ~seed () in
  let ch = Netsim.ethernet_10 ~faults () in
  Transport.transfer ~config ch data

let test_deterministic_schedule () =
  let data = String.init 5_000 (fun i -> Char.chr (i * 7 mod 256)) in
  let run () =
    match transfer_with ~loss:0.2 ~corrupt:0.2 ~seed:77 data with
    | Transport.Delivered (_, ts) -> ("ok", ts.Transport.t_sent, ts.Transport.t_retries)
    | Transport.Aborted { failed_seq; attempts; stats; _ } ->
        (Printf.sprintf "abort@%d/%d" failed_seq attempts, stats.Transport.t_sent,
         stats.Transport.t_retries)
  in
  check_bool "same seed, same run" true (run () = run ())

(* For any seeded schedule with per-chunk failure probability < 1, the
   transfer either completes byte-identically or aborts cleanly — never
   delivers garbage. *)
let prop_deliver_or_abort =
  qt ~count:120 "lossy transfer: byte-identical or clean abort"
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 80) (int_range 0 80) (int_range 1 9000))
    (fun (seed, loss_pct, corrupt_pct, size) ->
      let data = String.init size (fun i -> Char.chr ((i * 131 + seed) mod 256)) in
      let config = { Transport.default_config with Transport.chunk_size = 512 } in
      match
        transfer_with
          ~loss:(float_of_int loss_pct /. 100.0)
          ~corrupt:(float_of_int corrupt_pct /. 100.0)
          ~seed ~config data
      with
      | Transport.Delivered (got, ts) ->
          String.equal got data
          && ts.Transport.t_payload_bytes = size
          && ts.Transport.t_sent = ts.Transport.t_chunks + ts.Transport.t_retries
      | Transport.Aborted { attempts; stats; _ } ->
          attempts = Transport.default_config.Transport.max_retries + 1
          && stats.Transport.t_retries >= Transport.default_config.Transport.max_retries)

(* With moderate fault rates and bounded retries, transfers overwhelmingly
   succeed: P(chunk fails 9 straight times at 30%) ~ 2e-5. *)
let test_moderate_faults_deliver () =
  let data = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let delivered = ref 0 in
  for seed = 1 to 20 do
    match transfer_with ~loss:0.15 ~corrupt:0.15 ~seed data with
    | Transport.Delivered (got, _) ->
        if String.equal got data then incr delivered
    | Transport.Aborted _ -> ()
  done;
  check_bool "most transfers survive a 30% fault rate" true (!delivered >= 18)

let test_backoff_accounted () =
  let data = String.init 8_000 (fun i -> Char.chr (i mod 256)) in
  (* find a seed that retries at least once *)
  let rec go seed =
    if seed > 50 then Alcotest.fail "no retrying seed found"
    else
      match transfer_with ~loss:0.3 ~corrupt:0.3 ~seed data with
      | Transport.Delivered (_, ts) when ts.Transport.t_retries > 0 -> ts
      | _ -> go (seed + 1)
  in
  let ts = go 1 in
  check_bool "backoff adds simulated time" true (ts.Transport.t_backoff_s > 0.0);
  check_bool "time includes backoff" true (ts.Transport.t_time_s > ts.Transport.t_backoff_s);
  check_bool "resends accounted" true
    (ts.Transport.t_resent_bytes >= ts.Transport.t_retries * Transport.header_bytes)

(* ---- backoff cap (regression) ---- *)

(* Uncapped exponential backoff with [max_retries = 64] would wait
   2^63 x base before the final attempt.  The clamp holds every wait at
   1024 x base, so a fully corrupting link costs
   base * (sum_{k=0}^{10} 2^k + 53 * 1024) = base * 56319 in total. *)
let test_backoff_capped () =
  let cfg = { Transport.default_config with Transport.max_retries = 64 } in
  let base = cfg.Transport.backoff_base_s in
  check_bool "first retry waits base" true (Transport.backoff_wait cfg 0 = base);
  check_bool "k=10 reaches the cap" true
    (Transport.backoff_wait cfg 10 = Transport.backoff_cap_factor *. base);
  check_bool "k=63 stays at the cap" true
    (Transport.backoff_wait cfg 63 = Transport.backoff_cap_factor *. base);
  let data = String.init 512 (fun i -> Char.chr (i mod 256)) in
  match transfer_with ~loss:0.0 ~corrupt:1.0 ~seed:1 ~config:cfg data with
  | Transport.Delivered _ -> Alcotest.fail "fully corrupted link delivered"
  | Transport.Aborted { attempts; stats; _ } ->
      check_int "attempts = max_retries + 1" 65 attempts;
      let expect = base *. 56319.0 in
      check_bool "cumulative backoff hits the capped sum exactly" true
        (Float.abs (stats.Transport.t_backoff_s -. expect) <= 1e-9 *. expect);
      check_bool "total time is finite and bounded" true
        (Float.is_finite stats.Transport.t_time_s
        && stats.Transport.t_time_s < 2.0 *. expect +. 60.0)

(* ---- end-to-end: migration over a lossy link ---- *)

let bitonic_m = lazy (prepare ((Hpm_workloads.Registry.find_exn "bitonic").Hpm_workloads.Registry.source 300))

let test_migration_survives_lossy_link () =
  let m = Lazy.force bitonic_m in
  let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
  let faults = Netsim.fault_model ~loss_rate:0.2 ~corrupt_rate:0.2 ~seed:5 () in
  let channel = Netsim.ethernet_10 ~faults () in
  let transport = { Transport.default_config with Transport.chunk_size = 256 } in
  let config = { Handoff.default_config with Handoff.transport } in
  let src, _ = suspend m Hpm_arch.Arch.dec5000 400 in
  let pre = Hpm_machine.Interp.output src in
  let res = Handoff.execute ~config ~channel ~epoch:1 m src Hpm_arch.Arch.sparc20 in
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      check_bool "chunked" true (c.Handoff.c_tstats.Transport.t_chunks > 1);
      check_string "output correct across the lossy link" expected
        (finish_output pre c.Handoff.c_dst)
  | o -> Alcotest.failf "expected Committed, got %s" (Handoff.outcome_name o)

let test_abort_leaves_source_runnable () =
  (* 100% corruption: every chunk fails every time; the destination aborts
     and the source resumes from its suspended state and completes *)
  let m = Lazy.force bitonic_m in
  let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
  let faults = Netsim.fault_model ~corrupt_rate:1.0 ~seed:3 () in
  let channel = Netsim.ethernet_10 ~faults () in
  let src, _ = suspend m Hpm_arch.Arch.dec5000 400 in
  let pre = Hpm_machine.Interp.output src in
  let res = Handoff.execute ~channel ~epoch:1 m src Hpm_arch.Arch.sparc20 in
  (match res.Handoff.outcome with
  | Handoff.Link_failed l ->
      check_int "first chunk exhausted" 0 l.Handoff.l_seq;
      check_int "all attempts used" (Transport.default_config.Transport.max_retries + 1)
        l.Handoff.l_attempts
  | o -> Alcotest.failf "expected Link_failed, got %s" (Handoff.outcome_name o));
  let home = Handoff.survivor m src res in
  check_bool "the source survives" true (home == src);
  check_string "source finished the work itself" expected (finish_output pre home)

let test_abort_source_can_retry_later () =
  (* after an abort the suspended source is intact: a later migration over
     a clean link still works from the same suspension *)
  let m = Lazy.force bitonic_m in
  let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
  let src, _ = suspend m Hpm_arch.Arch.dec5000 400 in
  let bad = Netsim.ethernet_10 ~faults:(Netsim.fault_model ~corrupt_rate:1.0 ~seed:9 ()) () in
  let first = Handoff.execute ~channel:bad ~epoch:1 m src Hpm_arch.Arch.sparc20 in
  (match first.Handoff.outcome with
  | Handoff.Link_failed _ -> ()
  | o -> Alcotest.failf "fully corrupted link: expected Link_failed, got %s" (Handoff.outcome_name o));
  let good = Netsim.ethernet_10 () in
  let retry = Handoff.execute ~channel:good ~epoch:2 m src Hpm_arch.Arch.sparc20 in
  match retry.Handoff.outcome with
  | Handoff.Committed c ->
      check_string "second attempt delivered" expected
        (finish_output (Hpm_machine.Interp.output src) c.Handoff.c_dst)
  | o -> Alcotest.failf "clean retry: expected Committed, got %s" (Handoff.outcome_name o)

(* ---------------------------------------------------------------- *)
(* Heartbeat frames                                                  *)
(* ---------------------------------------------------------------- *)

let test_heartbeat_vector () =
  (* pinned wire vector: layout drift in docs/FORMAT.md shows up here *)
  let hb = Transport.encode_heartbeat ~seq:1 ~epoch:7 in
  check_int "heartbeat frames are 16 bytes" Transport.heartbeat_bytes
    (String.length hb);
  check_string "wire vector (seq=1, epoch=7)"
    "\x48\x50\x48\x42\x00\x00\x00\x01\x00\x00\x00\x07\xc6\x26\x63\x7a" hb;
  check_int "CRC covers exactly the seq and epoch words" 3324404602
    (Transport.crc32 ~pos:4 ~len:8 hb);
  match Transport.decode_heartbeat hb with
  | Ok (seq, epoch) ->
      check_int "seq round-trips" 1 seq;
      check_int "epoch round-trips" 7 epoch
  | Error m -> Alcotest.fail ("heartbeat rejected: " ^ m)

let test_heartbeat_rejects_damage () =
  let hb = Transport.encode_heartbeat ~seq:42 ~epoch:3 in
  (* every single-byte flip is caught by magic, size, or CRC *)
  for i = 0 to String.length hb - 1 do
    let b = Bytes.of_string hb in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    match Transport.decode_heartbeat (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "flip at byte %d slipped through" i
    | Error _ -> ()
  done;
  (match Transport.decode_heartbeat (String.sub hb 0 12) with
  | Ok _ -> Alcotest.fail "truncated heartbeat accepted"
  | Error m -> check_bool "size named in the reason" true (contains_sub m "16"));
  expect_raise "negative seq refused"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Transport.encode_heartbeat ~seq:(-1) ~epoch:0));
  expect_raise "negative epoch refused"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Transport.encode_heartbeat ~seq:0 ~epoch:(-1)))

let suite =
  [
    tc "crc32 known vectors" test_crc32_vectors;
    tc "heartbeat wire vector and round-trip" test_heartbeat_vector;
    tc "heartbeat rejects damage" test_heartbeat_rejects_damage;
    tc "crc32 detects every single-byte flip" test_crc32_detects_flips;
    prop_crc32_kernel;
    tc "crc32 window out of range refused" test_crc32_window_checked;
    tc "frame round-trip and expectations" test_frame_roundtrip;
    tc "damaged frames rejected" test_frame_rejects_damage;
    tc "zero-fault path has no resends" test_zero_fault_no_overhead;
    tc "boundary sizes chunk correctly" test_empty_and_boundary_sizes;
    tc "fault schedules are deterministic" test_deterministic_schedule;
    prop_deliver_or_abort;
    tc "moderate fault rates deliver" test_moderate_faults_deliver;
    tc "backoff and resends accounted" test_backoff_accounted;
    tc "backoff capped under large retry budgets" test_backoff_capped;
    tc "migration survives a lossy link" test_migration_survives_lossy_link;
    tc "abort leaves the source runnable" test_abort_leaves_source_runnable;
    tc "aborted source can retry on a clean link" test_abort_source_can_retry_later;
  ]
