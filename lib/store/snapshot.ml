(** Chunked, incremental checkpoint collection — and its inverse.

    {!collect} is the second handler of {!Hpm_core.Collect.walk}, the
    one collection walk whose first handler writes the v2 stream: same
    roots in the same order, same first-visit mi_id assignment, same
    pointer resolution.  Instead of one monolithic stream it produces a
    {!Store.manifest} plus one content-addressed chunk per block.  {!materialize} replays
    the traversal from the manifest and reconstructs the monolithic v2
    stream {e byte for byte}, so the stock {!Hpm_core.Restore} consumes
    checkpoints from the store with no new restore path.

    Chunk payloads reference pointer targets by {e runtime block id}
    ({!Hpm_machine.Mem.block}'s [bid]), not by the stream's mi_id:
    mi_ids depend on traversal order, so heap churn would renumber them
    and invalidate the hash of every payload holding a pointer even when
    the pointed-to data never changed.  bids are stable for the lifetime
    of a block, so an untouched subgraph hashes identically across
    epochs; {!materialize} maps bids back to this manifest's mi_ids.

    Incrementality comes from write-generation tracking: a per-block
    counter ({!Hpm_machine.Mem.touch}) records the memory's write tick at
    the last store into each block.  A {!cache} carries the previous
    epoch's per-block hashes; a block whose generation is unchanged —
    and whose outgoing pointers resolved to the same target bids — reuses
    its hash without re-serializing or re-hashing (the paper's §4.2
    encode term drops out; the MSRLT search term remains, since the
    traversal must still walk every reachable pointer to reproduce the
    collection order). *)

open Hpm_lang
open Hpm_xdr
open Hpm_ir
open Hpm_machine
open Hpm_msr
open Hpm_core

(* ------------------------------------------------------------------ *)
(* The serialization cache                                             *)
(* ------------------------------------------------------------------ *)

type cache_entry = {
  ce_wgen : int;  (** block's write generation when the payload was built *)
  ce_hash : string;
  ce_size : int;
  ce_deps : int list;
      (** target bid of each outgoing reference, in walk order: an
          unchanged pointer can land on a {e different} block when its
          old target was freed and the address reallocated, so reuse
          also requires every pointer to resolve to the same block *)
}

type cache = {
  mutable mark : int;  (** {!Mem.write_mark} at the last collection; -1 = none *)
  entries : (int, cache_entry) Hashtbl.t;  (** runtime bid → entry *)
}

let new_cache () = { mark = -1; entries = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* A block entered but not yet left: its mi_id and the datums of its
   pointer elements so far, newest first. *)
type open_block = { ob_id : int; mutable ob_datums : Store.datum list }

let datum_of (t : Collect.target) : Store.datum =
  match t with
  | Collect.Null -> Store.Dnull
  | Collect.Func i -> Store.Dfunc i
  | Collect.Seen (b, _, ord) | Collect.Fresh (b, ord) -> Store.Dref (b.Mem.bid, ord)

(** Collect the suspended process [interp] into a manifest plus a table
    of freshly-serialized chunk payloads (cache-reused blocks appear in
    the manifest but not in the table).  This is a handler of
    {!Collect.walk}: it records each block's pointer datums by target
    bid, and when the walk leaves the block it reuses the cached payload
    hash if the write generation and the outgoing bids are unchanged, or
    serializes and hashes the block otherwise.  The cache's mark is
    advanced to the current {!Mem.write_mark}.
    @raise Collect.Error unless suspended at a poll-point, or on a
    dangling, wild or misaligned pointer *)
let collect ?(epoch = 0) ?(proc = "proc") ?cache (interp : Interp.t) (ti : Ti.t) :
    Store.manifest * (string, string) Hashtbl.t * Cstats.delta =
  let w = Collect.start ~since:(match cache with Some c -> c.mark | None -> -1) interp in
  let chunks = Hashtbl.create 64 (* hash → freshly-built payload *) in
  let binfos = Hashtbl.create 64 (* mi_id → entry, filled post-order *) in
  let stats = Cstats.delta_zero () in
  (* reused across payload builds: [Buffer.clear] keeps the storage, so
     steady-state serialization allocates only the payload string *)
  let scratch = Buffer.create 4096 in
  let opened = ref [] and groups = ref [] in
  let leave (block : Mem.block) _ =
    let ob = List.hd !opened in
    opened := List.tl !opened;
    let datums = List.rev ob.ob_datums in
    let deps = List.filter_map (function Store.Dref (bid, _) -> Some bid | _ -> None) datums in
    let cached =
      match cache with
      | None -> None
      | Some c -> (
          match Hashtbl.find_opt c.entries block.Mem.bid with
          | Some ce when ce.ce_wgen = block.Mem.wgen && ce.ce_deps = deps -> Some ce
          | _ -> None)
    in
    let hash, size =
      match cached with
      | Some ce ->
          stats.Cstats.d_cache_hits <- stats.Cstats.d_cache_hits + 1;
          (ce.ce_hash, ce.ce_size)
      | None ->
          let b = scratch in
          Buffer.clear b;
          let rest = ref datums in
          Array.iter
            (fun seg ->
              match seg with
              | Tplan.Prims p -> Batch.encode p b block.Mem.bytes
              | Tplan.Ptr _ -> (
                  let d = List.hd !rest in
                  rest := List.tl !rest;
                  match d with
                  | Store.Dnull -> Xdr.put_u8 b Stream.tag_null
                  | Store.Dref (bid, tord) ->
                      Xdr.put_u8 b Stream.tag_ref;
                      Xdr.put_int_as_i32 b bid;
                      Xdr.put_int_as_i32 b tord
                  | Store.Dfunc i ->
                      Xdr.put_u8 b Stream.tag_func;
                      Xdr.put_int_as_i32 b i))
            (Tplan.plan w.Collect.plans block.Mem.ty).Tplan.segs;
          let payload = Buffer.contents b in
          let hash = Digest.string payload in
          Hashtbl.replace chunks hash payload;
          (match cache with
          | Some c ->
              Hashtbl.replace c.entries block.Mem.bid
                {
                  ce_wgen = block.Mem.wgen;
                  ce_hash = hash;
                  ce_size = String.length payload;
                  ce_deps = deps;
                }
          | None -> ());
          (hash, String.length payload)
    in
    let tid, count = Ti.encode_block_ty ti block.Mem.ty in
    Hashtbl.replace binfos ob.ob_id
      {
        Store.b_ident = block.Mem.ident;
        b_bid = block.Mem.bid;
        b_tid = tid;
        b_count = count;
        b_size = size;
        b_hash = hash;
      }
  in
  Collect.walk w
    {
      Collect.group = (fun _ -> groups := [] :: !groups);
      root =
        (fun name block ->
          groups := ((name, Store.Dref (block.Mem.bid, 0)) :: List.hd !groups) :: List.tl !groups);
      pointer =
        (fun t ->
          (* outside any block it is a root's, recorded by [root] *)
          match !opened with [] -> () | ob :: _ -> ob.ob_datums <- datum_of t :: ob.ob_datums);
      enter = (fun _ id -> opened := { ob_id = id; ob_datums = [] } :: !opened);
      prims = (fun _ _ -> ());
      leave;
    };
  (* root groups, newest first: the globals, then the frames bottom-up *)
  let mf_globals, mf_live =
    match !groups with
    | globals :: frames -> (List.rev globals, List.rev_map List.rev frames)
    | [] -> assert false
  in
  stats.Cstats.d_data_bytes <- w.Collect.stats.Cstats.c_data_bytes;
  stats.Cstats.d_blocks_scanned <- w.Collect.col.Msrlt.scanned;
  stats.Cstats.d_blocks_dirty <- w.Collect.col.Msrlt.dirty;
  (match cache with Some c -> c.mark <- Mem.write_mark interp.Interp.mem | None -> ());
  let mf =
    {
      Store.mf_proc = proc;
      mf_epoch = epoch;
      mf_src_arch = interp.Interp.arch.Hpm_arch.Arch.name;
      mf_prog_hash = Stream.prog_hash interp.Interp.prog;
      mf_rng_state = Rng.get_state interp.Interp.rng;
      mf_poll_id = w.Collect.poll_id;
      mf_frames =
        List.map
          (fun (fr : Interp.frame) -> (fr.Interp.func.Ir.name, fr.Interp.block, fr.Interp.index))
          interp.Interp.stack;
      mf_live;
      mf_globals;
      mf_blocks = Array.init (Hashtbl.length binfos) (Hashtbl.find binfos);
    }
  in
  (mf, chunks, stats)

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)
(* ------------------------------------------------------------------ *)

(** Reconstruct the monolithic v2 migration stream from a manifest,
    byte-identical to what {!Hpm_core.Collect.collect} would have
    produced at the same suspension: replay the roots in order, emitting
    each block's definition inline at its first visit and (mi_id,
    ordinal) references thereafter.  [lookup] resolves a chunk hash to
    its payload (typically {!Store.get_chunk}).
    @raise Store.Corrupt on damaged chunks or a self-inconsistent manifest *)
let materialize ~(ti : Ti.t) ~(lookup : string -> string) (mf : Store.manifest) : string =
  (* Chunk payloads use canonical widths, so any layout yields the same
     element-kind sequence; use a fixed one rather than the source's. *)
  let plans = Tplan.cache (Layout.make Hpm_arch.Arch.ultra5 ti.Ti.tenv) in
  let nblocks = Array.length mf.Store.mf_blocks in
  let emitted = Array.make nblocks false in
  let bid2mi = Hashtbl.create (max 16 nblocks) in
  Array.iteri (fun i (bi : Store.binfo) -> Hashtbl.replace bid2mi bi.Store.b_bid i) mf.Store.mf_blocks;
  let buf = Buffer.create 4096 in
  let rec emit_datum (d : Store.datum) : unit =
    match d with
    | Store.Dnull -> Xdr.put_u8 buf Stream.tag_null
    | Store.Dfunc i ->
        Xdr.put_u8 buf Stream.tag_func;
        Xdr.put_int_as_i32 buf i
    | Store.Dref (bid, ord) ->
        let id =
          match Hashtbl.find_opt bid2mi bid with
          | Some i -> i
          | None -> Store.corrupt "datum references unknown bid %d" bid
        in
        if emitted.(id) then (
          Xdr.put_u8 buf Stream.tag_ref;
          Xdr.put_int_as_i32 buf id;
          Xdr.put_int_as_i32 buf ord)
        else (
          Xdr.put_u8 buf Stream.tag_block;
          emit_block id;
          Xdr.put_int_as_i32 buf ord)
  and emit_block (id : int) : unit =
    emitted.(id) <- true;
    let bi = mf.Store.mf_blocks.(id) in
    let payload = lookup bi.Store.b_hash in
    if String.length payload <> bi.Store.b_size then
      Store.corrupt "chunk %s has %d bytes, manifest says %d"
        (Store.hash_hex bi.Store.b_hash) (String.length payload) bi.Store.b_size;
    if Digest.string payload <> bi.Store.b_hash then
      Store.corrupt "chunk %s content does not match its hash" (Store.hash_hex bi.Store.b_hash);
    Xdr.put_int_as_i32 buf id;
    Stream.put_ident buf bi.Store.b_ident;
    Xdr.put_int_as_i32 buf bi.Store.b_tid;
    Xdr.put_int_as_i32 buf bi.Store.b_count;
    let ty =
      try Ti.decode_block_ty ti (bi.Store.b_tid, bi.Store.b_count)
      with Invalid_argument m -> Store.corrupt "block %d has a bad type id: %s" id m
    in
    let r = Xdr.reader_of_string payload in
    (try
       Array.iter
         (function
           | Tplan.Prims p ->
               let w = Batch.wire_bytes p in
               if Xdr.remaining r < w then Store.corrupt "chunk of block %d is short" id;
               Buffer.add_subbytes buf r.Xdr.data r.Xdr.pos w;
               Xdr.skip r w
           | Tplan.Ptr _ -> (
               match Xdr.get_u8 r with
               | t when t = Stream.tag_null -> Xdr.put_u8 buf Stream.tag_null
               | t when t = Stream.tag_func ->
                   Xdr.put_u8 buf Stream.tag_func;
                   Xdr.put_int_as_i32 buf (Xdr.get_int_of_i32 r)
               | t when t = Stream.tag_ref ->
                   let tbid = Xdr.get_int_of_i32 r in
                   let tord = Xdr.get_int_of_i32 r in
                   emit_datum (Store.Dref (tbid, tord))
               | t -> Store.corrupt "chunk of block %d has bad datum tag %d" id t))
         (Tplan.plan plans ty).Tplan.segs
     with Xdr.Underflow m -> Store.corrupt "chunk of block %d is truncated: %s" id m);
    if not (Xdr.at_end r) then
      Store.corrupt "chunk of block %d has %d trailing bytes" id (Xdr.remaining r)
  in
  Stream.put_header ~epoch:mf.Store.mf_epoch buf ~src_arch:mf.Store.mf_src_arch
    ~prog_hash:mf.Store.mf_prog_hash ~rng_state:mf.Store.mf_rng_state
    ~poll_id:mf.Store.mf_poll_id;
  Xdr.put_int_as_i32 buf (List.length mf.Store.mf_frames);
  List.iter
    (fun (fname, blk, idx) ->
      Xdr.put_string buf fname;
      Xdr.put_int_as_i32 buf blk;
      Xdr.put_int_as_i32 buf idx)
    mf.Store.mf_frames;
  List.iter
    (fun live ->
      Xdr.put_int_as_i32 buf (List.length live);
      List.iter
        (fun (name, d) ->
          Xdr.put_string buf name;
          emit_datum d)
        live)
    mf.Store.mf_live;
  Xdr.put_int_as_i32 buf (List.length mf.Store.mf_globals);
  List.iter
    (fun (name, d) ->
      Xdr.put_string buf name;
      emit_datum d)
    mf.Store.mf_globals;
  Stream.put_trailer buf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Store round-trips                                                   *)
(* ------------------------------------------------------------------ *)

(** Persist a collection into [st]: write every chunk not already stored
    (counting ship/reuse and bytes written into [stats]) and commit the
    manifest.  Payloads may come from the fresh [chunks] table or already
    be on disk from a previous epoch.
    @raise Store.Error when a needed payload is in neither place *)
let persist (st : Store.t) (mf : Store.manifest) (chunks : (string, string) Hashtbl.t)
    (stats : Cstats.delta) : unit =
  List.iter
    (fun h ->
      if Store.has_chunk st h then (
        stats.Cstats.d_chunks_reused <- stats.Cstats.d_chunks_reused + 1;
        Hpm_obs.Obs.inc "hpm_store_chunk_dedup_hits_total" [])
      else
        match Hashtbl.find_opt chunks h with
        | Some payload ->
            (* the table is keyed by the payload's own digest: no re-hash *)
            ignore (Store.put_chunk_hashed st ~hash:h payload : bool);
            stats.Cstats.d_chunks_shipped <- stats.Cstats.d_chunks_shipped + 1;
            stats.Cstats.d_delta_bytes <- stats.Cstats.d_delta_bytes + String.length payload
        | None ->
            Store.err "chunk %s is neither freshly collected nor stored" (Store.hash_hex h))
    (Store.manifest_hashes mf);
  Store.save_manifest st mf;
  stats.Cstats.d_delta_bytes <-
    stats.Cstats.d_delta_bytes + String.length (Store.serialize_manifest mf)

(** Materialize [mf] and restore it on [arch] via the stock v2 path. *)
let restore_manifest (m : Migration.migratable) (arch : Hpm_arch.Arch.t)
    ~(lookup : string -> string) (mf : Store.manifest) : Interp.t * Cstats.restore =
  let stream = materialize ~ti:m.Migration.ti ~lookup mf in
  Restore.restore ~expect_epoch:mf.Store.mf_epoch m.Migration.prog arch m.Migration.ti stream

(** Restore [proc] from the newest manifest in [st] that materializes and
    restores cleanly, skipping damaged epochs.  [None] when no epoch of
    the process is recoverable. *)
let restore_latest (m : Migration.migratable) (arch : Hpm_arch.Arch.t) (st : Store.t)
    ~(proc : string) : (Interp.t * Cstats.restore * Store.manifest) option =
  let rec go = function
    | [] -> None
    | epoch :: older -> (
        match
          let mf = Store.load_manifest st ~proc ~epoch in
          let interp, rstats = restore_manifest m arch ~lookup:(Store.get_chunk st) mf in
          (interp, rstats, mf)
        with
        | result -> Some result
        | exception (Store.Corrupt _ | Store.Error _ | Restore.Error _ | Stream.Corrupt _ | Xdr.Underflow _)
          ->
            go older)
  in
  go (List.rev (Store.manifest_epochs st ~proc))
