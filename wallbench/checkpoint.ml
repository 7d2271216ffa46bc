(* checkpoint-store: hashtab streamed epoch by epoch with
   Replica.stream_epoch into an on-disk Store and one SPARCstation 20
   standby, with an HPMJ journal attached.  Every [read_every]-th op is
   a read instead: Snapshot.restore_latest onto the SPARCstation. *)

open Hpm_core
open Hpm_machine
open Hpm_store
open Meter
module Arch = Hpm_arch.Arch
module Model = Hpm_obs.Obs.Model

let proc = "hashtab"

type instance = {
  m : Migration.migratable;
  reference : string;
  p : Interp.t;
  rep : Replica.t;
  store : Store.t;
  journal : Journal.t;
  dir : string;
  ops : int;
}

(* A collection's stream with the source architecture blanked out of
   its header: a process restored on another machine must collect to
   exactly the same bytes otherwise. *)
let portable_stream p ti ~epoch =
  let s, _ = Collect.collect ~epoch p ti in
  let r = Hpm_xdr.Xdr.reader_of_string s in
  let h = Stream.get_header r in
  ({ h with Stream.src_arch = "" }, String.sub s r.Hpm_xdr.Xdr.pos (String.length s - r.Hpm_xdr.Xdr.pos))

let rec disk_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + disk_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* Prepare hashtab, record the reference output, run it [start_frac] of
   the way through (past the point where the table's population levels
   off), open the store and the journal and commit the full base epoch. *)
let setup ~source ~start_frac ~polls_between ~dir ~ops =
  let m, prepare_s = time (fun () -> Migration.prepare source) in
  let reference, _, plain = Migration.run_plain m Arch.dec5000 in
  let p = Migration.start m Arch.dec5000 in
  let start = int_of_float (start_frac *. float_of_int plain.Mstats.polls) in
  Migrate.advance p start;
  let store = Store.open_store (Filename.concat dir "store") in
  let journal = Journal.open_journal (Filename.concat dir "journal.hpmj") in
  let rep =
    Replica.create
      ~config:{ Replica.default_config with Replica.epoch_polls = 1 }
      ~journal ~channel:(Hpm_net.Netsim.ethernet_100 ()) ~store ~proc
      ~standbys:[ ("sb0", Arch.sparc20) ] m p
  in
  (match Replica.stream_epoch rep with
  | Replica.Streamed 1 -> ()
  | _ -> failwith "checkpoint-store: the base epoch did not stream");
  (* a write advances the program polls_between + 1 polls *)
  let ops = min ops ((plain.Mstats.polls - start) / (polls_between + 1) - 1) in
  ({ m; reference; p; rep; store; journal; dir; ops }, prepare_s)

(* Shadow state for the traced pass.  Replica.stream_epoch offers no
   hook inside an epoch, so after each write op the traced pass replays
   that epoch's layer calls on shadows kept in lockstep with the
   replica's own: the same snapshot cache history, a second store fed
   the same deltas, a second journal fed the same records.  The replay
   does the same work on the same state, and its wire must match the
   replica's byte count exactly. *)
type shadow = {
  cache : Snapshot.cache;
  chunks : (string, string) Hashtbl.t;
  mutable base : Store.manifest option;
  sstore : Store.t;
  sjournal : Journal.t;
  mutable seen : int;  (** journal records already mirrored *)
}

let replay sh (t : instance) ~epoch s =
  let (mf, chunks, st), collect =
    time (fun () -> Snapshot.collect ~epoch ~proc ~cache:sh.cache t.p t.m.Migration.ti)
  in
  Hashtbl.iter (Hashtbl.replace sh.chunks) chunks;
  let lookup h = Hashtbl.find sh.chunks h in
  let wire, encode =
    time (fun () -> Store.encode_delta ?base:sh.base ~stats:st ~lookup mf)
  in
  let (_ : Store.manifest), apply =
    time (fun () -> Store.apply sh.sstore ?expect_base:sh.base wire)
  in
  sh.base <- Some mf;
  let fresh =
    List.filteri (fun i _ -> i >= sh.seen) (Journal.entries t.journal)
  in
  sh.seen <- Journal.length t.journal;
  let (), append = time (fun () -> List.iter (Journal.append sh.sjournal) fresh) in
  (match s with
  | None -> ()
  | Some s ->
      List.iter
        (fun (k, v) -> add s k v)
        [
          ("snapshot.collect_s", collect);
          ("store.encode_s", encode);
          ("store.apply_s", apply);
          ("journal.append_s", append);
          ("journal.records", float_of_int (List.length fresh));
          ("model.encode_s", Model.encode_s ~bytes:(String.length wire));
        ]);
  (String.length wire, collect +. encode +. apply +. append)

let run_pass (t : instance) ~polls_between ~read_every ~traced : cursor =
  let rc = run_clock () in
  let s = new_samples () in
  let ops = t.ops in
  let op_s = Array.make ops 0.0 in
  let failed = ref 0 and writes = ref 0 and wire_bytes = ref 0 in
  let stats = Replica.stats t.rep in
  let shadow =
    if not traced then None
    else
      let sh =
        {
          cache = Snapshot.new_cache ();
          chunks = Hashtbl.create 1024;
          base = None;
          sstore = Store.open_store (Filename.concat t.dir "shadow-store");
          sjournal = Journal.open_journal (Filename.concat t.dir "shadow.hpmj");
          seen = 0;
        }
      in
      ignore (replay sh t ~epoch:(Replica.epoch t.rep) None : int * float);
      Some sh
  in
  let scanned0 = stats.Cstats.d_blocks_scanned and dirty0 = stats.Cstats.d_blocks_dirty
  and hits0 = stats.Cstats.d_cache_hits and data0 = stats.Cstats.d_data_bytes
  and shipped0 = stats.Cstats.d_chunks_shipped and reused0 = stats.Cstats.d_chunks_reused
  and jbytes0 = Journal.bytes_written t.journal and jlen0 = Journal.length t.journal in
  let step i =
    if i mod read_every = 0 then begin
      (* a read right after a write: the newest durable epoch is the
         primary's current state *)
      settle ();
      let r, dt =
        timed rc (fun () -> Snapshot.restore_latest t.m Arch.sparc20 t.store ~proc)
      in
      op_s.(i - 1) <- dt;
      if traced then add s "read.s" dt;
      let epoch = Replica.epoch t.rep in
      match r with
      | Some (restored, _, mf)
        when mf.Store.mf_epoch = epoch
             && portable_stream restored t.m.Migration.ti ~epoch
                = portable_stream t.p t.m.Migration.ti ~epoch ->
          ()
      | _ -> incr failed
    end
    else begin
      let i0 = Migrate.instrs t.p in
      let (), dt = timed rc (fun () -> Migrate.advance t.p polls_between) in
      if traced then begin
        add s "interp.s" dt;
        add s "interp.instrs" (float_of_int (Migrate.instrs t.p - i0))
      end;
      settle ();
      let delta0 = stats.Cstats.d_delta_bytes and gc0 = gc_collections () in
      let streamed, dt = timed rc (fun () -> Replica.stream_epoch t.rep) in
      op_s.(i - 1) <- dt;
      let wire = stats.Cstats.d_delta_bytes - delta0 in
      incr writes;
      wire_bytes := !wire_bytes + wire;
      match streamed with
      | Replica.Streamed epoch -> (
          match shadow with
          | None -> ()
          | Some sh ->
              add s "gc.collections" (float_of_int (gc_collections () - gc0));
              let shadow_wire, children = replay sh t ~epoch (Some s) in
              if shadow_wire <> wire then
                failwith "checkpoint-store: the traced replay diverged from the replica";
              add s "replica.self_s" (self_time dt [ children ]))
      | _ -> incr failed
    end
  in
  let finish () =
    (* output check: run the primary to the end; what the replica
       released at durable epochs plus the rest must equal the reference *)
    Interp.clear_migration_request t.p;
    ignore (Interp.run_to_completion t.p : Mem.value option);
    let failed = if Replica.output t.rep = t.reference then !failed else ops in
    let layers =
      if not traced then []
      else
        let d f = float_of_int f in
        let scanned = d (stats.Cstats.d_blocks_scanned - scanned0)
        and shipped = d (stats.Cstats.d_chunks_shipped - shipped0)
        and reused = d (stats.Cstats.d_chunks_reused - reused0)
        and records = d (Journal.length t.journal - jlen0) in
        let jpath = Journal.path t.journal in
        Journal.close t.journal;
        let _, load = time (fun () -> Journal.load jpath) in
        [
          ("interp.run_ms", 1e3 *. med s "interp.s");
          ("interp.instrs", med s "interp.instrs");
          ("interp.ns_per_instr", 1e9 *. ratio (total s "interp.s") (total s "interp.instrs"));
          ("snapshot.collect_ms", 1e3 *. med s "snapshot.collect_s");
          ("snapshot.cache_hit_ratio", ratio (d (stats.Cstats.d_cache_hits - hits0)) scanned);
          ("snapshot.dirty_ratio", ratio (d (stats.Cstats.d_blocks_dirty - dirty0)) scanned);
          ("store.apply_ms", 1e3 *. med s "store.apply_s");
          ("store.dedup_ratio", ratio reused (shipped +. reused));
          ("store.disk_bytes_per_data_byte",
           ratio
             (d (disk_bytes (Filename.concat t.dir "store")))
             (d (stats.Cstats.d_data_bytes - data0)));
          ("store.restore_latest_ms", 1e3 *. med s "read.s");
          ("replica.epoch_self_ms", 1e3 *. med s "replica.self_s");
          ("replica.delta_bytes", d !wire_bytes /. d !writes);
          ("journal.append_us",
           1e6 *. ratio (total s "journal.append_s") (total s "journal.records"));
          ("journal.bytes_per_entry",
           ratio (d (Journal.bytes_written t.journal - jbytes0)) records);
          ("journal.load_ms", 1e3 *. load);
          ("model.encode_ratio", ratio (total s "store.encode_s") (total s "model.encode_s"));
          ("gc.major_collections", total s "gc.collections" /. d ops);
        ]
    in
    { op_s; run_s = rc.acc; failed;
      bytes_per_op = float_of_int !wire_bytes /. float_of_int !writes; layers }
  in
  { ops; step; finish }
