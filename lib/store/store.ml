(** Content-addressed checkpoint store.

    The MSRLT already gives every memory block a machine-independent
    identity; this module adds machine-independent {e content} identity: a
    block's XDR-encoded payload is hashed, and the hash names a *chunk* in
    an on-disk store shared by every epoch of every process.  A checkpoint
    then decomposes into:

    - {b chunks} — deduplicated block payloads, one file per distinct
      hash under [store/chunks/];
    - {b manifests} — one small file per (process, epoch) under
      [store/manifests/], recording the stream header fields, the frame
      stack, the collection roots, and the mi_id-ordered block table
      (identity, type, size, chunk hash).

    A manifest plus its chunks {e materializes} back into a byte-identical
    v2 migration stream ({!Snapshot.materialize}), so restoration reuses
    the stock {!Hpm_core.Restore} path unchanged.

    Two epochs of the same process typically share most chunks, so an
    incremental checkpoint writes only the dirty blocks' chunks — and a
    {e delta stream} (the v3 wire format here) ships only chunks absent
    from a stated base manifest, named by its hash.  The receiver refuses
    a delta whose base it does not hold ({!Base_mismatch}).

    Durability rules: chunk and manifest files are written to a temporary
    name and renamed, so a file that exists under its final name is
    complete ("committed").  [latest_manifest] additionally skips files
    that fail to parse, so recovery never trusts a torn write.  [gc]
    deletes chunks referenced by no parseable manifest and reports the
    bytes reclaimed; [retain] bounds the manifest history per process. *)

open Hpm_machine
open Hpm_xdr
open Hpm_core
module Obs = Hpm_obs.Obs

exception Error of string
(** Environmental failures: unwritable directory, missing files, bad
    process names. *)

exception Corrupt of string
(** Parse failures: damaged chunk, manifest, or delta bytes. *)

exception Base_mismatch of string * string
(** [Base_mismatch (expected_hex, got_hex)]: a delta stream names a base
    manifest the receiver does not hold. *)

let err fmt = Fmt.kstr (fun m -> raise (Error m)) fmt
let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* Manifests                                                           *)
(* ------------------------------------------------------------------ *)

(** A collection root or pointer element, resolved to machine-independent
    form, encoded as a {!Stream.ptr}.  Unlike the v2 stream there is no
    inline-definition form: blocks live in the manifest's table, so a
    reference is always (bid, ordinal), and no consumer of a manifest
    has a [Stream.Block] case to handle.  References name the {e
    source-side runtime block id} ([Mem.bid]), not the mi_id: bids are
    stable across epochs for a live block, so a chunk payload's bytes —
    and hence its content hash — do not change when heap churn renumbers
    the DFS order. *)
type datum =
  | Dnull
  | Dref of int * int  (** (source bid, ordinal) *)
  | Dfunc of int       (** function index *)

type binfo = {
  b_ident : Mem.ident;
  b_bid : int;    (** source-side runtime block id; distinct per manifest *)
  b_tid : int;    (** wire type id, as {!Hpm_msr.Ti.encode_block_ty} *)
  b_count : int;
  b_size : int;   (** chunk payload bytes *)
  b_hash : string;  (** 16-byte MD5 of the chunk payload *)
}

type manifest = {
  mf_proc : string;
  mf_epoch : int;
  mf_src_arch : string;
  mf_prog_hash : int64;
  mf_rng_state : int64;
  mf_poll_id : int;
  mf_frames : (string * int * int) list;  (** top-down: fname, block, index *)
  mf_live : (string * datum) list list;   (** per frame top-down: live roots *)
  mf_globals : (string * datum) list;     (** in program order *)
  mf_blocks : binfo array;                (** indexed by mi_id, DFS first-visit order *)
}

let mf_magic = "HPMF"
let mf_trailer = "MEND"
let mf_version = 1
let hash_len = 16

(* a sanity bound on counts read from disk, far above any real snapshot *)
let max_count = 10_000_000

let hash_hex = Digest.to_hex

let put_datum b d =
  Stream.put_ptr b
    (match d with
    | Dnull -> Stream.Null
    | Dref (bid, ord) -> Stream.Ref (bid, ord)
    | Dfunc i -> Stream.Func i)

(** @raise Corrupt on an inline block, or whatever {!Stream.get_ptr}
    rejects *)
let get_datum r =
  match Stream.get_ptr r with
  | Stream.Null -> Dnull
  | Stream.Ref (bid, ord) -> Dref (bid, ord)
  | Stream.Func i -> Dfunc i
  | Stream.Block -> corrupt "inline block definition in a datum"
  | exception Stream.Corrupt m -> corrupt "%s" m

let get_count r what =
  let n = Xdr.get_int_of_i32 r in
  if n < 0 || n > max_count then corrupt "implausible %s count %d" what n;
  n

(* A root group: count, then name and datum per root. *)
let put_roots b roots =
  Xdr.put_int_as_i32 b (List.length roots);
  List.iter
    (fun (name, d) ->
      Xdr.put_string b name;
      put_datum b d)
    roots

let get_roots r what =
  List.init (get_count r what) (fun _ ->
      let name = Xdr.get_string r in
      (name, get_datum r))

let put_binfo b bi =
  Stream.put_ident b bi.b_ident;
  Xdr.put_int_as_i32 b bi.b_bid;
  Xdr.put_int_as_i32 b bi.b_tid;
  Xdr.put_int_as_i32 b bi.b_count;
  Xdr.put_int_as_i32 b bi.b_size;
  assert (String.length bi.b_hash = hash_len);
  Buffer.add_string b bi.b_hash

let get_raw r n what =
  if Xdr.remaining r < n then corrupt "truncated %s" what;
  let s = Bytes.sub_string r.Xdr.data r.Xdr.pos n in
  Xdr.skip r n;
  s

let get_binfo r i =
  let b_ident = Stream.get_ident r in
  let b_bid = Xdr.get_int_of_i32 r in
  if b_bid < 0 then corrupt "negative bid for block %d" i;
  let b_tid = Xdr.get_int_of_i32 r in
  let b_count = Xdr.get_int_of_i32 r in
  let b_size = Xdr.get_int_of_i32 r in
  if b_size < 0 then corrupt "negative size for block %d" i;
  let b_hash = get_raw r hash_len "chunk hash" in
  { b_ident; b_bid; b_tid; b_count; b_size; b_hash }

(* Manifests serialize in two block-table codings sharing one prefix:
   version 1 writes every entry inline (the durable, self-contained form
   whose bytes define {!manifest_hash}); version 2 — used only inside
   delta wires — codes each entry as either an inline binfo or an index
   into a base manifest's table, since consecutive epochs share almost
   all of it. *)
let serialize_manifest_gen ~version ~(put_blocks : Buffer.t -> binfo array -> unit)
    (mf : manifest) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b mf_magic;
  Xdr.put_u8 b version;
  Xdr.put_string b mf.mf_proc;
  Xdr.put_int_as_i32 b mf.mf_epoch;
  Xdr.put_string b mf.mf_src_arch;
  Xdr.put_i64 b mf.mf_prog_hash;
  Xdr.put_i64 b mf.mf_rng_state;
  Xdr.put_int_as_i32 b mf.mf_poll_id;
  Stream.put_frames b mf.mf_frames;
  List.iter (put_roots b) mf.mf_live;
  put_roots b mf.mf_globals;
  Xdr.put_int_as_i32 b (Array.length mf.mf_blocks);
  put_blocks b mf.mf_blocks;
  Buffer.add_string b mf_trailer;
  Buffer.contents b

let serialize_manifest (mf : manifest) : string =
  serialize_manifest_gen ~version:mf_version
    ~put_blocks:(fun b blocks -> Array.iter (put_binfo b) blocks)
    mf

let parse_manifest_gen ~version ~(get_blocks : Xdr.rbuf -> int -> binfo array)
    (data : string) : manifest =
  try
    let r = Xdr.reader_of_string data in
    let m = get_raw r 4 "manifest magic" in
    if m <> mf_magic then corrupt "bad manifest magic %S (expected %S)" m mf_magic;
    let v = Xdr.get_u8 r in
    if v <> version then corrupt "unsupported manifest version %d" v;
    let mf_proc = Xdr.get_string r in
    let mf_epoch = Xdr.get_int_of_i32 r in
    if mf_epoch < 0 then corrupt "negative manifest epoch %d" mf_epoch;
    let mf_src_arch = Xdr.get_string r in
    let mf_prog_hash = Xdr.get_i64 r in
    let mf_rng_state = Xdr.get_i64 r in
    let mf_poll_id = Xdr.get_int_of_i32 r in
    let mf_frames = Stream.get_frames r in
    let mf_live = List.map (fun _ -> get_roots r "live-var") mf_frames in
    let mf_globals = get_roots r "global" in
    let nblocks = get_count r "block" in
    let mf_blocks = get_blocks r nblocks in
    let t = get_raw r 4 "manifest trailer" in
    if t <> mf_trailer then corrupt "bad manifest trailer %S" t;
    if not (Xdr.at_end r) then
      corrupt "%d trailing bytes after manifest trailer" (Xdr.remaining r);
    let bids = Hashtbl.create nblocks in
    Array.iteri
      (fun i bi ->
        if Hashtbl.mem bids bi.b_bid then
          corrupt "blocks share bid %d" bi.b_bid
        else Hashtbl.add bids bi.b_bid i)
      mf_blocks;
    let check_datum what = function
      | Dref (bid, _) when not (Hashtbl.mem bids bid) ->
          corrupt "%s references unknown bid %d" what bid
      | _ -> ()
    in
    List.iter (List.iter (fun (n, d) -> check_datum ("live var " ^ n) d)) mf_live;
    List.iter (fun (n, d) -> check_datum ("global " ^ n) d) mf_globals;
    {
      mf_proc;
      mf_epoch;
      mf_src_arch;
      mf_prog_hash;
      mf_rng_state;
      mf_poll_id;
      mf_frames;
      mf_live;
      mf_globals;
      mf_blocks;
    }
  with
  | Xdr.Underflow m -> corrupt "truncated manifest: %s" m
  | Stream.Corrupt m -> corrupt "bad manifest: %s" m

let parse_manifest (data : string) : manifest =
  parse_manifest_gen ~version:mf_version
    ~get_blocks:(fun r n -> Array.init n (get_binfo r))
    data

(* The version-2 coding: each block entry is either inline (tag 0) or an
   index into [base]'s table (tag 1). *)
let mf_version_rel = 2

let serialize_manifest_rel (base : manifest) (mf : manifest) : string =
  let base_ix : (binfo, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun j bi -> if not (Hashtbl.mem base_ix bi) then Hashtbl.add base_ix bi j)
    base.mf_blocks;
  serialize_manifest_gen ~version:mf_version_rel
    ~put_blocks:(fun b blocks ->
      Array.iter
        (fun bi ->
          match Hashtbl.find_opt base_ix bi with
          | Some j ->
              Xdr.put_u8 b 1;
              Xdr.put_int_as_i32 b j
          | None ->
              Xdr.put_u8 b 0;
              put_binfo b bi)
        blocks)
    mf

let parse_manifest_rel (base : manifest) (data : string) : manifest =
  let nbase = Array.length base.mf_blocks in
  parse_manifest_gen ~version:mf_version_rel
    ~get_blocks:(fun r n ->
      Array.init n (fun i ->
          match Xdr.get_u8 r with
          | 0 -> get_binfo r i
          | 1 ->
              let j = Xdr.get_int_of_i32 r in
              if j < 0 || j >= nbase then
                corrupt "block %d references base entry %d of %d" i j nbase;
              base.mf_blocks.(j)
          | t -> corrupt "unknown block coding tag %d" t))
    data

(** Identity of a manifest: the hash of its serialized bytes.  This is
    what a delta stream names as its base. *)
let manifest_hash (mf : manifest) : string = Digest.string (serialize_manifest mf)

(** The distinct chunk hashes a manifest references, in mi_id order. *)
let manifest_hashes (mf : manifest) : string list =
  let seen = Hashtbl.create 64 in
  Array.fold_left
    (fun acc bi ->
      if Hashtbl.mem seen bi.b_hash then acc
      else (
        Hashtbl.add seen bi.b_hash ();
        bi.b_hash :: acc))
    [] mf.mf_blocks
  |> List.rev

(* ------------------------------------------------------------------ *)
(* The on-disk store                                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  pins : (string, int) Hashtbl.t;
      (* chunk hash -> pin count: chunks a live delta application or
         replication subscription still needs but no committed manifest
         references yet.  gc treats pinned chunks as live. *)
}

let chunk_magic = "HPCK"

let chunks_dir t = Filename.concat t.dir "chunks"
let manifests_dir t = Filename.concat t.dir "manifests"
let chunk_path t hash = Filename.concat (chunks_dir t) (hash_hex hash ^ ".ck")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        err "cannot create %s: %s" dir (Unix.error_message e))

(* Parts are written sequentially into the tmp file, so framing a payload
   needs no intermediate header+payload concatenation. *)
let write_file_atomic_parts path parts =
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     List.iter (output_string oc) parts;
     close_out oc
   with Sys_error m -> err "cannot write %s: %s" tmp m);
  try Sys.rename tmp path with Sys_error m -> err "cannot commit %s: %s" path m

let write_file_atomic path data = write_file_atomic_parts path [ data ]

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error m -> err "cannot read %s: %s" path m

(** Open (creating if needed) a store rooted at [dir].
    @raise Error when the directory cannot be created or written. *)
let open_store (dir : string) : t =
  let t = { dir; pins = Hashtbl.create 64 } in
  mkdir_p dir;
  mkdir_p (chunks_dir t);
  mkdir_p (manifests_dir t);
  (* probe writability now, so misconfiguration fails at startup rather
     than at the first checkpoint *)
  let probe = Filename.concat dir ".probe" in
  (try
     let oc = open_out_bin probe in
     close_out oc;
     Sys.remove probe
   with Sys_error m -> err "store directory %s is not writable: %s" dir m);
  t

(* ---- chunks ---- *)

let has_chunk t hash = Sys.file_exists (chunk_path t hash)

(** {!put_chunk} for a payload whose MD5 is already known — the snapshot
    and delta paths hash while building, so storing them again must not
    re-digest.  [hash] MUST be [Digest.string payload]; callers obtain it
    from a verifying parse or from the digest they just computed.  Returns
    whether a write happened (false = deduplicated). *)
let put_chunk_hashed t ~(hash : string) (payload : string) : bool =
  if has_chunk t hash then (
    Obs.inc "hpm_store_chunk_dedup_hits_total" [];
    false)
  else (
    let hdr = Buffer.create 8 in
    Buffer.add_string hdr chunk_magic;
    Xdr.put_int_as_i32 hdr (String.length payload);
    write_file_atomic_parts (chunk_path t hash) [ Buffer.contents hdr; payload ];
    Obs.inc "hpm_store_chunk_writes_total" [];
    true)

(** Write a chunk if absent; returns its hash and whether a write happened
    (false = deduplicated against an existing chunk). *)
let put_chunk t (payload : string) : string * bool =
  let hash = Digest.string payload in
  (hash, put_chunk_hashed t ~hash payload)

(** Read and validate a chunk.
    @raise Corrupt on a missing, damaged, or wrong-content file. *)
let get_chunk t (hash : string) : string =
  let path = chunk_path t hash in
  if not (Sys.file_exists path) then corrupt "missing chunk %s" (hash_hex hash);
  let data = read_file path in
  let r = Xdr.reader_of_string data in
  (try
     let m = get_raw r 4 "chunk magic" in
     if m <> chunk_magic then corrupt "bad chunk magic %S in %s" m (hash_hex hash)
   with Xdr.Underflow m -> corrupt "truncated chunk %s: %s" (hash_hex hash) m);
  let len =
    try Xdr.get_int_of_i32 r
    with Xdr.Underflow m -> corrupt "truncated chunk %s: %s" (hash_hex hash) m
  in
  if len < 0 || len <> Xdr.remaining r then
    corrupt "chunk %s length %d does not match file (%d payload bytes)" (hash_hex hash)
      len (Xdr.remaining r);
  let payload = get_raw r len "chunk payload" in
  if Digest.string payload <> hash then
    corrupt "chunk %s content does not match its name" (hash_hex hash);
  Obs.inc "hpm_store_chunk_reads_total" [];
  payload

let chunk_disk_bytes t hash =
  try (Unix.stat (chunk_path t hash)).Unix.st_size with Unix.Unix_error _ -> 0

(* ---- pins ---- *)

let publish_pins t =
  if Obs.metrics_on () then
    Obs.set_gauge "hpm_store_pinned_chunks" [] (float_of_int (Hashtbl.length t.pins))

(** Pin [hashes] against {!gc}: a pinned chunk is treated as live even
    when no committed manifest references it.  Pins are counted, so
    nested pinners compose; they live in memory only — a process restart
    drops them, which is safe because whatever in-flight application they
    protected died with the process. *)
let pin t (hashes : string list) : unit =
  List.iter
    (fun h ->
      let n = match Hashtbl.find_opt t.pins h with Some n -> n | None -> 0 in
      Hashtbl.replace t.pins h (n + 1))
    hashes;
  publish_pins t

(** Release one pin on each of [hashes]; unknown hashes are ignored. *)
let unpin t (hashes : string list) : unit =
  List.iter
    (fun h ->
      match Hashtbl.find_opt t.pins h with
      | Some n when n > 1 -> Hashtbl.replace t.pins h (n - 1)
      | Some _ -> Hashtbl.remove t.pins h
      | None -> ())
    hashes;
  publish_pins t

(** Number of distinct chunk hashes currently pinned. *)
let pinned_chunks t : int = Hashtbl.length t.pins

(** Is [hash] currently protected by at least one pin? *)
let is_pinned t (hash : string) : bool = Hashtbl.mem t.pins hash

(** Run [f ()] with [hashes] pinned; the pins are released on any exit,
    exceptional included. *)
let with_pins t (hashes : string list) (f : unit -> 'a) : 'a =
  pin t hashes;
  Fun.protect ~finally:(fun () -> unpin t hashes) f

(* ---- manifests ---- *)

let manifest_filename proc epoch = Printf.sprintf "%s.%08d.mf" proc epoch

let check_proc_name proc =
  if proc = "" then err "empty process name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> ()
      | c -> err "process name %S contains %C (use [A-Za-z0-9_-])" proc c)
    proc

(** Atomically commit a manifest; a crash mid-write leaves only a [.tmp]
    file that every reader ignores. *)
let save_manifest t (mf : manifest) : unit =
  check_proc_name mf.mf_proc;
  write_file_atomic
    (Filename.concat (manifests_dir t) (manifest_filename mf.mf_proc mf.mf_epoch))
    (serialize_manifest mf);
  Obs.inc "hpm_store_manifest_commits_total" [];
  if Obs.tracing () then
    Obs.instant ~ts:(Obs.now ()) ~cat:"store"
      ~args:
        [
          ("proc", Obs.Trace.S mf.mf_proc);
          ("epoch", Obs.Trace.I mf.mf_epoch);
          ("blocks", Obs.Trace.I (Array.length mf.mf_blocks));
        ]
      "store.commit"

(* (proc, epoch) of a manifest filename, or None for foreign files *)
let parse_manifest_filename name =
  if not (Filename.check_suffix name ".mf") then None
  else
    let stem = Filename.chop_suffix name ".mf" in
    match String.rindex_opt stem '.' with
    | None -> None
    | Some i -> (
        let proc = String.sub stem 0 i in
        let ep = String.sub stem (i + 1) (String.length stem - i - 1) in
        match int_of_string_opt ep with
        | Some e when e >= 0 && proc <> "" -> Some (proc, e)
        | _ -> None)

let manifest_files t =
  let dir = manifests_dir t in
  let names = try Sys.readdir dir with Sys_error m -> err "cannot list %s: %s" dir m in
  Array.to_list names
  |> List.filter_map (fun n ->
         match parse_manifest_filename n with
         | Some (proc, epoch) -> Some (proc, epoch, Filename.concat dir n)
         | None -> None)

(** Committed epochs of [proc], ascending. *)
let manifest_epochs t ~proc : int list =
  manifest_files t
  |> List.filter_map (fun (p, e, _) -> if p = proc then Some e else None)
  |> List.sort compare

let procs t : string list =
  manifest_files t
  |> List.map (fun (p, _, _) -> p)
  |> List.sort_uniq compare

(** Load the committed manifest of ([proc], [epoch]).
    @raise Corrupt when absent or damaged. *)
let load_manifest t ~proc ~epoch : manifest =
  let path = Filename.concat (manifests_dir t) (manifest_filename proc epoch) in
  if not (Sys.file_exists path) then corrupt "no manifest for %s epoch %d" proc epoch;
  let mf = parse_manifest (read_file path) in
  if mf.mf_proc <> proc || mf.mf_epoch <> epoch then
    corrupt "manifest %s names (%s, %d)" path mf.mf_proc mf.mf_epoch;
  mf

(** The newest manifest of [proc] that parses completely — torn or
    damaged files are skipped, so the result is always {e committed}. *)
let latest_manifest t ~proc : manifest option =
  let rec try_epochs = function
    | [] -> None
    | e :: rest -> (
        match load_manifest t ~proc ~epoch:e with
        | mf -> Some mf
        | exception Corrupt _ -> try_epochs rest)
  in
  try_epochs (List.rev (manifest_epochs t ~proc))

(** Drop all but the newest [keep] manifests of [proc]; returns how many
    files were removed.  Chunks are reclaimed separately by {!gc}. *)
let retain t ~proc ~keep : int =
  if keep < 0 then invalid_arg "Store.retain: negative keep";
  let epochs = List.rev (manifest_epochs t ~proc) in
  let victims = if keep >= List.length epochs then [] else List.filteri (fun i _ -> i >= keep) epochs in
  List.iter
    (fun e ->
      try Sys.remove (Filename.concat (manifests_dir t) (manifest_filename proc e))
      with Sys_error _ -> ())
    victims;
  List.length victims

(** How many parseable manifests reference chunk [hash]. *)
let refcount t (hash : string) : int =
  List.fold_left
    (fun acc (_, _, path) ->
      match parse_manifest (read_file path) with
      | mf ->
          if Array.exists (fun bi -> bi.b_hash = hash) mf.mf_blocks then acc + 1 else acc
      | exception Corrupt _ -> acc)
    0 (manifest_files t)

type gc_report = {
  gc_live_chunks : int;
  gc_live_bytes : int;        (** on-disk bytes of referenced chunks *)
  gc_reclaimed_chunks : int;
  gc_reclaimed_bytes : int;   (** on-disk bytes deleted *)
  gc_damaged_manifests : int;     (** unparseable manifest files (held no references) *)
  gc_pinned_chunks : int;     (** chunks kept alive solely by a pin *)
}

let pp_gc ppf g =
  Fmt.pf ppf "gc: reclaimed %d chunks (%d bytes); %d live chunks (%d bytes)%a%a"
    g.gc_reclaimed_chunks g.gc_reclaimed_bytes g.gc_live_chunks g.gc_live_bytes
    (fun ppf n -> if n > 0 then Fmt.pf ppf "; %d pinned" n)
    g.gc_pinned_chunks
    (fun ppf n -> if n > 0 then Fmt.pf ppf "; %d damaged manifests ignored" n)
    g.gc_damaged_manifests

(** Delete every chunk referenced by no parseable manifest and not
    {!pin}ned.  A chunk referenced by any committed manifest is never
    reclaimed; an uncommitted (torn) manifest protects nothing — pins
    exist precisely to cover the window in which a delta's chunks are on
    disk but its manifest is not yet committed. *)
let gc t : gc_report =
  let live = Hashtbl.create 256 in
  let bad = ref 0 in
  List.iter
    (fun (_, _, path) ->
      match parse_manifest (read_file path) with
      | mf -> Array.iter (fun bi -> Hashtbl.replace live bi.b_hash ()) mf.mf_blocks
      | exception Corrupt _ -> incr bad)
    (manifest_files t);
  (* pinned-only survivors: counted separately so the report shows what
     the pins are currently protecting *)
  let pinned_only = ref 0 in
  Hashtbl.iter
    (fun h _ ->
      if not (Hashtbl.mem live h) then (
        incr pinned_only;
        Hashtbl.replace live h ()))
    t.pins;
  let report =
    {
      gc_live_chunks = 0;
      gc_live_bytes = 0;
      gc_reclaimed_chunks = 0;
      gc_reclaimed_bytes = 0;
      gc_damaged_manifests = !bad;
      gc_pinned_chunks = !pinned_only;
    }
  in
  let dir = chunks_dir t in
  let names = try Sys.readdir dir with Sys_error m -> err "cannot list %s: %s" dir m in
  let report =
    Array.fold_left
      (fun acc name ->
        (* A crash between tmp-write and rename in [write_file_atomic]
           leaves an orphan "<hash>.ck.tmp".  The ".ck" suffix check below
           already excludes it, but the invariant is load-bearing — a gc
           that counted or deleted such orphans would race the very commit
           it interrupted — so reject ".tmp" explicitly and first. *)
        if Filename.check_suffix name ".tmp" then acc
        else if not (Filename.check_suffix name ".ck") then acc
        else
          let hex = Filename.chop_suffix name ".ck" in
          match Digest.from_hex hex with
          | exception _ -> acc (* foreign file: leave it alone *)
          | hash ->
              let path = Filename.concat dir name in
              let bytes =
                try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
              in
              if Hashtbl.mem live hash then
                { acc with gc_live_chunks = acc.gc_live_chunks + 1;
                           gc_live_bytes = acc.gc_live_bytes + bytes }
              else (
                (try Sys.remove path with Sys_error _ -> ());
                { acc with gc_reclaimed_chunks = acc.gc_reclaimed_chunks + 1;
                           gc_reclaimed_bytes = acc.gc_reclaimed_bytes + bytes }))
      report names
  in
  if Obs.metrics_on () then begin
    Obs.inc "hpm_store_gc_reclaimed_chunks_total" []
      ~by:(float_of_int report.gc_reclaimed_chunks);
    Obs.inc "hpm_store_gc_reclaimed_bytes_total" []
      ~by:(float_of_int report.gc_reclaimed_bytes);
    Obs.set_gauge "hpm_store_gc_live_chunks" [] (float_of_int report.gc_live_chunks);
    Obs.set_gauge "hpm_store_gc_live_bytes" [] (float_of_int report.gc_live_bytes);
    Obs.inc "hpm_store_gc_damaged_manifests_total" []
      ~by:(float_of_int report.gc_damaged_manifests)
  end;
  report

(* ------------------------------------------------------------------ *)
(* Delta streams (wire format v3)                                      *)
(* ------------------------------------------------------------------ *)

let delta_magic = "HPMD"
let delta_trailer = "DEND"
let delta_version = 3

type delta = {
  d_kind : [ `Full | `Delta ];
  d_base : string;  (** 16-byte hash of the base manifest ("" for full) *)
  d_manifest : manifest;
  d_chunks : (string * string) list;  (** (hash, payload), each verified *)
}

(** Encode a (full or incremental) checkpoint for the wire: the manifest
    plus every referenced chunk the receiver cannot already have.  With
    [base], only chunks whose hash is absent from the base manifest are
    shipped — payloads reference blocks by source bid, so content
    addressing is robust to mi_id renumbering between epochs — and the
    manifest's block table is coded relative to the base's.  [lookup]
    must return the payload of any shipped hash.  Updates [stats]
    ship/reuse/byte counters when given. *)
let encode_delta ?base ?stats ~(lookup : string -> string) (mf : manifest) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b delta_magic;
  Xdr.put_u8 b delta_version;
  (match base with
  | None ->
      Xdr.put_u8 b 0;
      Xdr.put_string b "";
      Xdr.put_string b (serialize_manifest mf)
  | Some base ->
      Xdr.put_u8 b 1;
      Xdr.put_string b (manifest_hash base);
      Xdr.put_string b (serialize_manifest_rel base mf));
  let have =
    match base with
    | None -> Hashtbl.create 1
    | Some base ->
        let h = Hashtbl.create 64 in
        Array.iter (fun bi -> Hashtbl.replace h bi.b_hash ()) base.mf_blocks;
        h
  in
  let shipped = List.filter (fun h -> not (Hashtbl.mem have h)) (manifest_hashes mf) in
  Xdr.put_int_as_i32 b (List.length shipped);
  List.iter
    (fun h ->
      let payload = lookup h in
      Buffer.add_string b h;
      Xdr.put_string b payload)
    shipped;
  Buffer.add_string b delta_trailer;
  let wire = Buffer.contents b in
  (match stats with
  | Some (s : Cstats.delta) ->
      let total = List.length (manifest_hashes mf) in
      s.Cstats.d_chunks_shipped <- s.Cstats.d_chunks_shipped + List.length shipped;
      s.Cstats.d_chunks_reused <- s.Cstats.d_chunks_reused + (total - List.length shipped);
      s.Cstats.d_delta_bytes <- s.Cstats.d_delta_bytes + String.length wire
  | None -> ());
  wire

(** Parse and fully validate a v3 stream.  Incremental streams code
    their manifest relative to their base, so [base] (the manifest the
    receiver holds) is required to decode one — and is checked against
    the stream's named base hash first.
    @raise Base_mismatch when an incremental stream names a base other
    than [base]
    @raise Corrupt on any damage, including a chunk whose payload does
    not hash to its declared name. *)
let parse_delta ?base (wire : string) : delta =
  try
    let r = Xdr.reader_of_string wire in
    let m = get_raw r 4 "delta magic" in
    if m <> delta_magic then corrupt "bad delta magic %S (expected %S)" m delta_magic;
    let v = Xdr.get_u8 r in
    if v <> delta_version then corrupt "unsupported delta version %d" v;
    let kind =
      match Xdr.get_u8 r with
      | 0 -> `Full
      | 1 -> `Delta
      | k -> corrupt "unknown delta kind %d" k
    in
    let d_base = Xdr.get_string r in
    (match (kind, String.length d_base) with
    | `Full, 0 -> ()
    | `Delta, n when n = hash_len -> ()
    | _, n -> corrupt "delta base hash has %d bytes" n);
    let d_manifest =
      match kind with
      | `Full -> parse_manifest (Xdr.get_string r)
      | `Delta -> (
          match base with
          | None -> raise (Base_mismatch ("<no base held>", hash_hex d_base))
          | Some base ->
              let bh = manifest_hash base in
              if bh <> d_base then
                raise (Base_mismatch (hash_hex bh, hash_hex d_base));
              parse_manifest_rel base (Xdr.get_string r))
    in
    let nchunks = get_count r "delta chunk" in
    let d_chunks =
      List.init nchunks (fun _ ->
          let h = get_raw r hash_len "chunk hash" in
          let payload = Xdr.get_string r in
          if Digest.string payload <> h then
            corrupt "delta chunk %s does not hash to its name" (hash_hex h);
          (h, payload))
    in
    let t = get_raw r 4 "delta trailer" in
    if t <> delta_trailer then corrupt "bad delta trailer %S" t;
    if not (Xdr.at_end r) then
      corrupt "%d trailing bytes after delta trailer" (Xdr.remaining r);
    { d_kind = kind; d_base; d_manifest; d_chunks }
  with Xdr.Underflow m -> corrupt "truncated delta: %s" m

(** Apply a v3 stream to this store: verify the base (for incremental
    streams, against [expect_base] — the manifest the receiver believes
    is current), persist the shipped chunks, check that every block of
    the new manifest is now materializable, and commit the manifest.
    Idempotent: re-applying a delivered stream is harmless.
    @raise Base_mismatch when an incremental stream names a different base
    @raise Corrupt on damage or missing chunks *)
let apply t ?expect_base (wire : string) : manifest =
  let d = parse_delta ?base:expect_base wire in
  (* Pin every chunk the new manifest will reference for the whole
     persist window: freshly shipped chunks have no committed manifest
     yet, and base-inherited chunks may lose their last manifest to a
     concurrent [retain] — either way a [gc] racing this application must
     not reclaim them before [save_manifest] commits. *)
  with_pins t (manifest_hashes d.d_manifest) (fun () ->
      (* parse_delta already verified each payload against its hash *)
      List.iter
        (fun (hash, payload) -> ignore (put_chunk_hashed t ~hash payload : bool))
        d.d_chunks;
      List.iter
        (fun h ->
          if not (has_chunk t h) then
            corrupt "delta leaves chunk %s unmaterializable" (hash_hex h))
        (manifest_hashes d.d_manifest);
      save_manifest t d.d_manifest);
  d.d_manifest
