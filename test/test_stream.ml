(** Wire-format codec unit tests (header, ident, prim encodings). *)

open Hpm_core
open Hpm_lang
open Hpm_machine
open Util

let test_header_roundtrip () =
  let b = Buffer.create 64 in
  Stream.put_header b ~src_arch:"dec5000" ~prog_hash:0x1234_5678_9abc_def0L
    ~rng_state:42L ~poll_id:7;
  let h = Stream.get_header (Hpm_xdr.Xdr.reader_of_string (Buffer.contents b)) in
  check_string "arch" "dec5000" h.Stream.src_arch;
  Alcotest.(check int64) "hash" 0x1234_5678_9abc_def0L h.Stream.prog_hash;
  Alcotest.(check int64) "rng" 42L h.Stream.rng_state;
  check_int "poll" 7 h.Stream.poll_id

let test_header_rejects () =
  let corrupt = function Stream.Corrupt _ -> true | _ -> false in
  expect_raise "bad magic" corrupt (fun () ->
      Stream.get_header (Hpm_xdr.Xdr.reader_of_string "NOPE1234567890123456789"));
  expect_raise "empty" corrupt (fun () ->
      Stream.get_header (Hpm_xdr.Xdr.reader_of_string ""));
  (* wrong version *)
  let b = Buffer.create 32 in
  Buffer.add_string b Stream.magic;
  Hpm_xdr.Xdr.put_u8 b 99;
  expect_raise "bad version" corrupt (fun () ->
      Stream.get_header (Hpm_xdr.Xdr.reader_of_string (Buffer.contents b)))

let ident_roundtrip i =
  let b = Buffer.create 16 in
  Stream.put_ident b i;
  Stream.get_ident (Hpm_xdr.Xdr.reader_of_string (Buffer.contents b))

let test_ident_codec () =
  check_bool "global" true (ident_roundtrip (Mem.Iglobal "first") = Mem.Iglobal "first");
  check_bool "local" true
    (ident_roundtrip (Mem.Ilocal (3, "parray")) = Mem.Ilocal (3, "parray"));
  check_bool "heap" true (ident_roundtrip Mem.Iheap = Mem.Iheap);
  check_bool "string" true (ident_roundtrip (Mem.Istring 9) = Mem.Istring 9)

let test_ptr_codec () =
  let reader = Hpm_xdr.Xdr.reader_of_string in
  let bytes_of put v =
    let b = Buffer.create 16 in
    put b v;
    Buffer.contents b
  in
  let max = 0x7fff_ffff in
  List.iter
    (fun p ->
      let r = reader (bytes_of Stream.put_ptr p) in
      check_bool "round trip" true (Stream.get_ptr r = p);
      check_bool "whole encoding read" true (Hpm_xdr.Xdr.at_end r))
    Stream.
      [ Null; Block; Ref (0, 0); Ref (0, max); Ref (max, 0); Ref (max, max); Func 0; Func max ];
  let corrupt = function Stream.Corrupt _ -> true | _ -> false in
  List.iter
    (fun t ->
      expect_raise (Printf.sprintf "tag %d" t) corrupt (fun () ->
          Stream.get_ptr (reader (String.make 1 (Char.chr t)))))
    [ 4; 255 ];
  expect_raise "negative ordinal" corrupt (fun () ->
      Stream.get_ptr (reader "\001\000\000\000\000\255\255\255\255"));
  (* a manifest datum is the same encoding over bids, without tag 2 *)
  let module Store = Hpm_store.Store in
  List.iter
    (fun (d, p) ->
      check_string "datum encodes as a pointer" (bytes_of Stream.put_ptr p)
        (bytes_of Store.put_datum d);
      check_bool "datum round trip" true
        (Store.get_datum (reader (bytes_of Store.put_datum d)) = d))
    [
      (Store.Dnull, Stream.Null);
      (Store.Dref (max, max), Stream.Ref (max, max));
      (Store.Dfunc 0, Stream.Func 0);
    ];
  expect_raise "inline block in a manifest"
    (function Store.Corrupt _ -> true | _ -> false)
    (fun () -> Store.get_datum (reader (bytes_of Stream.put_ptr Stream.Block)))

let test_def_codec () =
  let d = { Stream.id = 7; ident = Mem.Ilocal (2, "v"); tid = 3; count = 4 } in
  let b = Buffer.create 32 in
  Stream.put_def b d;
  let head = Buffer.contents b in
  let read ?(contents = 4) next =
    Stream.get_def (Hpm_xdr.Xdr.reader_of_string (head ^ String.make contents '\000')) ~next
  in
  check_bool "round trip" true (read 7 = d);
  let corrupt = function Stream.Corrupt _ -> true | _ -> false in
  expect_raise "id out of order" corrupt (fun () -> read 6);
  expect_raise "count above the remaining input" corrupt (fun () -> read ~contents:3 7)

let test_prim_codec () =
  let roundtrip k v =
    let b = Buffer.create 16 in
    Stream.put_prim b k v;
    Stream.get_prim (Hpm_xdr.Xdr.reader_of_string (Buffer.contents b)) k
  in
  check_bool "char" true (roundtrip Ty.KChar (Mem.Vint (-5L)) = Mem.Vint (-5L));
  check_bool "short" true (roundtrip Ty.KShort (Mem.Vint 1234L) = Mem.Vint 1234L);
  check_bool "int" true (roundtrip Ty.KInt (Mem.Vint (-100000L)) = Mem.Vint (-100000L));
  check_bool "long full width" true
    (roundtrip Ty.KLong (Mem.Vint 0x7fff_ffff_ffff_ffffL)
    = Mem.Vint 0x7fff_ffff_ffff_ffffL);
  check_bool "double" true (roundtrip Ty.KDouble (Mem.Vfloat 2.5) = Mem.Vfloat 2.5);
  expect_raise "pointer kinds are structured"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> roundtrip (Ty.KPtr Ty.Int) (Mem.Vptr 0L))

let test_canonical_widths () =
  check_int "char" 1 (Stream.canonical_width Ty.KChar);
  check_int "short" 2 (Stream.canonical_width Ty.KShort);
  check_int "int" 4 (Stream.canonical_width Ty.KInt);
  check_int "long is 8 on the wire" 8 (Stream.canonical_width Ty.KLong);
  check_int "float" 4 (Stream.canonical_width Ty.KFloat);
  check_int "double" 8 (Stream.canonical_width Ty.KDouble)

let fingerprint m = m.Migration.ti.Hpm_msr.Ti.fingerprint

let test_prog_hash_stability () =
  let m1 = prepare (Hpm_workloads.Nqueens.source 5) in
  let m2 = prepare (Hpm_workloads.Nqueens.source 5) in
  let m3 = prepare (Hpm_workloads.Nqueens.source 6) in
  check_bool "same program, same hash" true
    (Int64.equal (fingerprint m1) (fingerprint m2));
  check_bool "different program, different hash" false
    (Int64.equal (fingerprint m1) (fingerprint m3));
  (* the poll strategy is part of the migratable format *)
  let m4 = prepare_user (Hpm_workloads.Nqueens.source 5) in
  check_bool "different annotation, different hash" false
    (Int64.equal (fingerprint m1) (fingerprint m4))

(* ---- golden v2 streams ----

   MD5 and length of the full migration stream for fixed workloads at
   fixed polls, captured from the pre-batch-encoder implementation.  Any
   change to these bytes is a wire-format break: the batch translators,
   buffer reuse, and the Mem interval index must all be invisible here.
   Regenerate (only for an INTENTIONAL format change) by printing
   [Digest.to_hex (Digest.string stream)] for each row. *)

let golden_streams =
  [
    ("jacobi", 40, 8, Hpm_arch.Arch.ultra5, "e467269955dc7ba665eaeb26cdd61c9c", 37071);
    ("jacobi", 40, 8, Hpm_arch.Arch.dec5000, "a0efc867c2fd406b752f1f1d1d25a6cf", 37072);
    ("hashtab", 2000, 6000, Hpm_arch.Arch.ultra5, "7df18cd4ca9ccf36545c299f1524a81c", 13951);
    ("bitonic", 3000, 6000, Hpm_arch.Arch.dec5000, "26d20dcc9a1a11f4336ebf21bb817e35", 13117);
    ("linpack", 100, 80, Hpm_arch.Arch.x86_64, "b2011c5a638c3f15e6892160e7f696e4", 82417);
    ("test_pointer", 0, 2, Hpm_arch.Arch.i386, "15046215b5a4ec8c431cd769d3a617e9", 316);
  ]

let test_golden_streams () =
  List.iter
    (fun (name, n, poll, arch, md5, len) ->
      let w = Hpm_workloads.Registry.find_exn name in
      let m = prepare (w.Hpm_workloads.Registry.source n) in
      let p, _ = suspend m arch poll in
      let stream, _ = Collect.collect ~epoch:3 p m.Migration.ti in
      check_int (Printf.sprintf "%s/%s length" name arch.Hpm_arch.Arch.name) len
        (String.length stream);
      check_string
        (Printf.sprintf "%s/%s md5" name arch.Hpm_arch.Arch.name)
        md5
        (Digest.to_hex (Digest.string stream)))
    golden_streams

let suite =
  [
    tc "header roundtrip" test_header_roundtrip;
    tc "header rejects corruption" test_header_rejects;
    tc "ident codec" test_ident_codec;
    tc "pointer codec" test_ptr_codec;
    tc "definition head codec" test_def_codec;
    tc "prim codec" test_prim_codec;
    tc "canonical widths" test_canonical_widths;
    tc "program fingerprint stability" test_prog_hash_stability;
    tc_slow "golden v2 streams unchanged" test_golden_streams;
  ]
