(** Stream-inspector tests: the read-only walker must accept whatever
    Restore accepts, with matching structural counts. *)

open Hpm_core
open Util

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let stream_of ?(n = 300) ?(after = 500) name =
  let w = Hpm_workloads.Registry.find_exn name in
  let m = prepare (w.Hpm_workloads.Registry.source n) in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 after in
  let data, cs = Collect.collect p m.Migration.ti in
  (m, data, cs)

let test_counts_match_collect () =
  List.iter
    (fun name ->
      let m, data, cs = stream_of name in
      let blocks, pointers = Inspect.dump ~ppf:null_ppf m.Migration.prog m.Migration.ti data in
      check_int (name ^ " blocks") cs.Cstats.c_blocks blocks;
      check_int (name ^ " pointers")
        (cs.Cstats.c_pointers + cs.Cstats.c_live_vars)
        pointers)
    [ "bitonic"; "listops"; "hashtab" ]

let test_agrees_with_restore () =
  (* cross-check: anything Restore accepts, Inspect walks, and their
     block counts agree *)
  let m, data, _ = stream_of "qsort" ~n:500 ~after:300 in
  let _, rs = Restore.restore m.Migration.prog Hpm_arch.Arch.x86_64 m.Migration.ti data in
  let blocks, _ = Inspect.dump ~ppf:null_ppf m.Migration.prog m.Migration.ti data in
  check_int "restore and inspect agree" rs.Cstats.r_blocks blocks

let test_output_readable () =
  (* suspend test_pointer at its own midpoint pragma: everything is built *)
  let w = Hpm_workloads.Registry.find_exn "test_pointer" in
  let m = prepare_user (w.Hpm_workloads.Registry.source 0) in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 0 in
  let data, _ = Collect.collect p m.Migration.ti in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  ignore (Inspect.dump ~ppf m.Migration.prog m.Migration.ti data);
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check_bool "shows stack" true (contains_sub out "call stack");
  check_bool "shows identities" true (contains_sub out "local:0:");
  check_bool "shows heap blocks" true (contains_sub out ": heap");
  check_bool "shows globals" true (contains_sub out "globals:")

let test_rejects_corrupt () =
  let m, data, _ = stream_of "listops" ~n:30 ~after:10 in
  let n = String.length data in
  List.iter
    (fun cut ->
      match Inspect.dump ~ppf:null_ppf m.Migration.prog m.Migration.ti (String.sub data 0 cut) with
      | _ -> Alcotest.failf "truncation to %d accepted" cut
      | exception (Inspect.Error _ | Stream.Corrupt _ | Hpm_xdr.Xdr.Underflow _) -> ())
    [ 2; 20; n / 2; n - 2 ]

let test_bitflip_sweep () =
  (* the property the module header claims: whatever Restore accepts,
     Inspect walks, with the same block count *)
  let m, data, _ = stream_of "listops" ~n:30 ~after:10 in
  let accepted = ref 0 in
  for i = 0 to String.length data - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string data in
        Bytes.set b i (Char.chr (Char.code data.[i] lxor mask));
        let flipped = Bytes.to_string b in
        match Restore.restore m.Migration.prog Hpm_arch.Arch.x86_64 m.Migration.ti flipped with
        | _, rs -> (
            incr accepted;
            match Inspect.dump ~ppf:null_ppf m.Migration.prog m.Migration.ti flipped with
            | blocks, _ ->
                check_int (Printf.sprintf "byte %d ^ 0x%x: block count" i mask)
                  rs.Cstats.r_blocks blocks
            | exception e ->
                Alcotest.failf "byte %d ^ 0x%x: Restore accepts, Inspect raises %s" i mask
                  (Printexc.to_string e))
        | exception
            ( Restore.Error _ | Stream.Corrupt _ | Hpm_xdr.Xdr.Underflow _
            | Hpm_machine.Mem.Fault _ | Hpm_machine.Interp.Trap _ ) ->
            ())
      [ 0x01; 0xff ]
  done;
  (* payload bytes survive a flip, so the sweep exercises acceptance *)
  check_bool "some flipped streams restore" true (!accepted > 0)

let test_warns_wrong_program () =
  let m1, data, _ = stream_of "listops" ~n:30 ~after:10 in
  ignore m1;
  let m2 = prepare (Hpm_workloads.Nqueens.source 5) in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (* inspect tolerates a fingerprint mismatch (it only warns): useful for
     post-mortem debugging of stale checkpoints *)
  (match Inspect.dump ~ppf m2.Migration.prog m2.Migration.ti data with
  | _ -> ()
  | exception _ -> () (* type tables differ: structural error is fine too *));
  Format.pp_print_flush ppf ();
  check_bool "warned" true (contains_sub (Buffer.contents buf) "WARNING")

let suite =
  [
    tc "counts match collection stats" test_counts_match_collect;
    tc "agrees with restore" test_agrees_with_restore;
    tc "listing is readable" test_output_readable;
    tc "corrupt streams rejected" test_rejects_corrupt;
    tc "bit flips Restore accepts, Inspect accepts" test_bitflip_sweep;
    tc "wrong program warns" test_warns_wrong_program;
  ]
