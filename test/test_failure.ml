(** Failure injection: corrupted and truncated migration streams must be
    rejected cleanly (never build a half-restored process silently), and
    collection must refuse states it cannot represent faithfully. *)

open Hpm_core
open Util

let bitonic_stream () =
  let w = Hpm_workloads.Registry.find_exn "bitonic" in
  let m = prepare (w.Hpm_workloads.Registry.source 200) in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 300 in
  let data, _ = Collect.collect p m.Migration.ti in
  (m, data)

let restore_raises m data =
  match Restore.restore m.Migration.prog Hpm_arch.Arch.sparc20 m.Migration.ti data with
  | _ -> false
  | exception (Restore.Error _ | Stream.Corrupt _ | Hpm_xdr.Xdr.Underflow _) -> true
  | exception (Hpm_machine.Mem.Fault _ | Hpm_machine.Interp.Trap _) -> true

let test_truncation () =
  let m, data = bitonic_stream () in
  let n = String.length data in
  (* every prefix class: header, frame metadata, mid-data, missing trailer *)
  List.iter
    (fun k ->
      let cut = String.sub data 0 k in
      check_bool (Printf.sprintf "truncated to %d rejected" k) true (restore_raises m cut))
    [ 0; 1; 3; 10; 40; n / 4; n / 2; n - 5; n - 1 ]

let test_bitflips () =
  let m, data = bitonic_stream () in
  let n = String.length data in
  let flipped i =
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  (* a flip may hit pure payload (a float changes value but the stream
     stays well-formed) — count how many of a sample are caught; all
     structural positions must be *)
  check_bool "magic flip" true (restore_raises m (flipped 0));
  check_bool "version flip" true (restore_raises m (flipped 4));
  let caught = ref 0 and total = ref 0 in
  let rec sample i =
    if i < n then (
      incr total;
      if restore_raises m (flipped i) then incr caught;
      sample (i + 97))
  in
  sample 5;
  check_bool "structural flips detected" true (!caught * 2 > !total)

let test_garbage () =
  let m, _ = bitonic_stream () in
  check_bool "random bytes rejected" true (restore_raises m "this is not a stream");
  check_bool "empty rejected" true (restore_raises m "")

let test_trailing_junk () =
  let m, data = bitonic_stream () in
  check_bool "trailing junk rejected" true (restore_raises m (data ^ "extra"))

let test_collect_not_suspended () =
  let m, _ = bitonic_stream () in
  let p = Migration.start m Hpm_arch.Arch.ultra5 in
  (* fresh process: pc at entry, not after a poll *)
  expect_raise "collect fresh process" (function Collect.Error _ -> true | _ -> false)
    (fun () -> Collect.collect p m.Migration.ti);
  let p2 = Migration.start m Hpm_arch.Arch.ultra5 in
  ignore (Hpm_machine.Interp.run_to_completion p2);
  expect_raise "collect finished process" (function Collect.Error _ -> true | _ -> false)
    (fun () -> Collect.collect p2 m.Migration.ti)

let test_live_dangling_pointer_refused () =
  (* a dangling pointer that is live at the poll cannot be collected *)
  let src =
    {|
int main() {
  int *p;
  p = (int *) malloc(sizeof(int));
  *p = 5;
  free(p);
  #pragma poll here
  print_int(*p);
  return 0;
}
|}
  in
  (* the static lint would reject this at prepare time (HPM-E102); opt
     out to prove the *runtime* collection guard also catches it *)
  let m =
    Migration.prepare ~strategy:Hpm_ir.Pollpoint.user_only_strategy ~lint:false src
  in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
  (* both collectors share one walk, so both report a live-memory fault,
     never a store fault *)
  expect_raise "dangling live pointer" (function Collect.Error _ -> true | _ -> false)
    (fun () -> Collect.collect p m.Migration.ti);
  expect_raise "dangling live pointer (snapshot)"
    (function Collect.Error _ -> true | _ -> false)
    (fun () -> Hpm_store.Snapshot.collect p m.Migration.ti)

let test_dead_dangling_pointer_ok () =
  (* the same dangling pointer, dead at the poll: liveness excludes it and
     migration succeeds (this is why the pre-compiler's analysis matters) *)
  let src =
    {|
int main() {
  int *p;
  p = (int *) malloc(sizeof(int));
  *p = 5;
  free(p);
  #pragma poll here
  print_int(7);
  return 0;
}
|}
  in
  let m = prepare_user src in
  let o =
    Migration.run_migrating m ~src_arch:Hpm_arch.Arch.ultra5
      ~dst_arch:Hpm_arch.Arch.dec5000 ()
  in
  check_bool "migrated" true o.Migration.migrated;
  check_string "output" "7\n" o.Migration.output

(* ---- targeted header-field corruption (not just random flips) ---- *)

let patched data off bytes =
  let b = Bytes.of_string data in
  String.iteri (fun i c -> Bytes.set b (off + i) c) bytes;
  Bytes.to_string b

(* header layout: magic(4) version(1) src-arch(i32 len + bytes) hash(8) *)
let version_off = 4
let hash_off data =
  let r = Hpm_xdr.Xdr.reader_of_string data in
  let h = Stream.get_header r in
  5 + 4 + String.length h.Stream.src_arch

let test_wrong_version_byte () =
  let m, data = bitonic_stream () in
  (* every wrong version number, not only a bit-flip of the current one *)
  List.iter
    (fun v ->
      if v <> Stream.version then
        check_bool
          (Printf.sprintf "version byte %d rejected" v)
          true
          (restore_raises m (patched data version_off (String.make 1 (Char.chr v)))))
    [ 0; 2; 3; 127; 255 ]

let test_wrong_prog_hash () =
  let m, data = bitonic_stream () in
  let off = hash_off data in
  (* flip each byte of the fingerprint in turn: every one must matter *)
  for i = 0 to 7 do
    let orig = data.[off + i] in
    let patch = String.make 1 (Char.chr (Char.code orig lxor 0x01)) in
    check_bool
      (Printf.sprintf "prog-hash byte %d rejected" i)
      true
      (restore_raises m (patched data (off + i) patch))
  done

let test_wrong_trailer_magic () =
  let m, data = bitonic_stream () in
  let n = String.length data in
  check_bool "trailer magic rejected" true (restore_raises m (patched data (n - 4) "XEND"));
  (* single-character damage anywhere in the trailer is caught too *)
  for i = 1 to 4 do
    check_bool
      (Printf.sprintf "trailer byte %d rejected" i)
      true
      (restore_raises m (patched data (n - i) "?"))
  done

let test_netsim_fault_injection_path () =
  (* the whole pipeline through the simulated network with faults *)
  let m, data = bitonic_stream () in
  let ch = Hpm_net.Netsim.ethernet_10 () in
  let delivered, _ = Hpm_net.Netsim.send ~fault:(Hpm_net.Netsim.Truncate 50) ch data in
  check_bool "truncated in flight rejected" true (restore_raises m delivered);
  let delivered2, _ = Hpm_net.Netsim.send ch data in
  check_bool "clean delivery restores" false (restore_raises m delivered2)

let suite =
  [
    tc "truncated streams rejected" test_truncation;
    tc "bit flips detected" test_bitflips;
    tc "garbage rejected" test_garbage;
    tc "trailing junk rejected" test_trailing_junk;
    tc "wrong version byte rejected" test_wrong_version_byte;
    tc "wrong prog-hash rejected" test_wrong_prog_hash;
    tc "wrong trailer magic rejected" test_wrong_trailer_magic;
    tc "collecting a non-suspended process fails" test_collect_not_suspended;
    tc "live dangling pointer refused" test_live_dangling_pointer_refused;
    tc "dead dangling pointer tolerated" test_dead_dangling_pointer_ok;
    tc "faults injected on the wire" test_netsim_fault_injection_path;
  ]
