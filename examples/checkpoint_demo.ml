(* Heterogeneous checkpoint / restart through the checkpoint store.

   The migration stream is a complete machine-independent process image,
   so committing it to disk gives checkpointing for free: this demo runs a
   quicksort on a little-endian DECstation, commits a snapshot of it
   mid-sort into a temporary content-addressed store, shows the decoded
   image, then restarts the newest committed epoch twice — once on a
   big-endian SPARC and once on an LP64 x86-64 box — and shows both
   completions agree with an uninterrupted run.  (qsort's arithmetic
   stays within 32 bits, so even the ILP32 -> LP64 restart is
   output-identical; see README on width-dependent programs.)

     dune exec examples/checkpoint_demo.exe
*)

open Hpm_core
open Hpm_machine
open Hpm_store

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let () =
  let m = Migration.prepare (Hpm_workloads.Qsort.source 4_000) in
  let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpm_demo_%d.store" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* Store.open_store creates it *)
      let st = Store.open_store dir in
      Fmt.pr "running on dec5000, checkpointing into %s mid-build...@." dir;
      let p = Migration.start m Hpm_arch.Arch.dec5000 in
      Interp.request_migration_after p 2500;
      (match Interp.run p with
      | Interp.RPolled _ -> ()
      | Interp.RDone _ | Interp.RFuel -> failwith "qsort finished before the checkpoint");
      let before = Interp.output p in
      let mf, chunks, stats = Snapshot.collect ~epoch:1 ~proc:"qsort" p m.Migration.ti in
      Snapshot.persist st mf chunks stats;
      Fmt.pr "checkpoint committed: epoch 1, %d chunks, %d bytes written@."
        stats.Cstats.d_chunks_shipped stats.Cstats.d_delta_bytes;
      Fmt.pr "@.decoded image (first lines):@.";
      let image = Snapshot.materialize ~ti:m.Migration.ti ~lookup:(Store.get_chunk st) mf in
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      ignore (Inspect.dump ~ppf m.Migration.prog m.Migration.ti image);
      Format.pp_print_flush ppf ();
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filteri (fun i _ -> i < 8)
      |> List.iter (Fmt.pr "  %s@.");
      Fmt.pr "  ...@.@.";
      let resume arch =
        match Snapshot.restore_latest m arch st ~proc:"qsort" with
        | None -> failwith "no recoverable checkpoint in the store"
        | Some (q, _, _) -> (
            match Interp.run q with
            | Interp.RDone _ -> Interp.output q
            | Interp.RPolled _ | Interp.RFuel -> failwith "restart did not run to completion")
      in
      let verdict out =
        if String.equal expected (before ^ out) then "completed, output MATCHES"
        else "OUTPUT DIFFERS"
      in
      Fmt.pr "restarted on sparc20 (big-endian):    %s@." (verdict (resume Hpm_arch.Arch.sparc20));
      Fmt.pr "restarted on x86_64 (LP64):           %s@." (verdict (resume Hpm_arch.Arch.x86_64)))
