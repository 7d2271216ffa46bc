(* Durable fleet journal — HPMJ v1 (docs/FORMAT.md).

   Scheduler and replica events die with the process today; the journal
   makes the fleet's history a first-class on-disk artifact the query
   engine (lib/query) can treat as a table.  The format is JSONL: one
   flat JSON object per line, every record self-identifying via a
   leading {"hpmj":1, ...} version key.  Records are flat on purpose —
   a journal line is greppable and `jq`-able — and are written and read
   with the repo's one JSON codec ({!Hpm_obs.Json}).

   Appends are append-only writes to the active file, flushed at once
   (see "The on-disk log" below), so a writer crash can leave a torn
   final line there.  [open_journal] drops such a tail and counts it;
   the read-only [load] raises the typed [Corrupt] error on it, as on
   any other damage — never a crash. *)

module Json = Hpm_obs.Json

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

type ev =
  | Spawned
  | Requested
  | Compat_rejected
  | Migrated
  | Failed
  | Recovered
  | Checkpointed
  | Requeued
  | Finished
  | Promoted
  | Standby_lost
  | Resynced

let all_evs =
  [ Spawned; Requested; Compat_rejected; Migrated; Failed; Recovered;
    Checkpointed; Requeued; Finished; Promoted; Standby_lost; Resynced ]

let ev_name = function
  | Spawned -> "spawned"
  | Requested -> "requested"
  | Compat_rejected -> "compat_rejected"
  | Migrated -> "migrated"
  | Failed -> "failed"
  | Recovered -> "recovered"
  | Checkpointed -> "checkpointed"
  | Requeued -> "requeued"
  | Finished -> "finished"
  | Promoted -> "promoted"
  | Standby_lost -> "standby_lost"
  | Resynced -> "resynced"

let ev_of_name = function
  | "spawned" -> Some Spawned
  | "requested" -> Some Requested
  | "compat_rejected" -> Some Compat_rejected
  | "migrated" -> Some Migrated
  | "failed" -> Some Failed
  | "recovered" -> Some Recovered
  | "checkpointed" -> Some Checkpointed
  | "requeued" -> Some Requeued
  | "finished" -> Some Finished
  | "promoted" -> Some Promoted
  | "standby_lost" -> Some Standby_lost
  | "resynced" -> Some Resynced
  | _ -> None

type entry = {
  j_ts : float;              (** simulated seconds at which the event fired *)
  j_ev : ev;
  j_proc : string;
  j_src : string;            (** source node/arch ("" when n/a) *)
  j_dst : string;            (** destination node/standby ("" when n/a) *)
  j_node : string;           (** hosting node for single-node events *)
  j_epoch : int;
  j_incarnation : int;       (** fencing incarnation (promotions), else 0 *)
  j_stream_bytes : int;
  j_collected_bytes : int;
  j_restored_bytes : int;
  j_retries : int;
  j_time_s : float;          (** cost of the event itself (e.g. migration) *)
  j_delta_bytes : int;
  j_chunks_shipped : int;
  j_chunks_reused : int;
  j_note : string;
}

let entry ~ts ~ev ~proc ?(src = "") ?(dst = "") ?(node = "") ?(epoch = 0)
    ?(incarnation = 0) ?(stream_bytes = 0) ?(collected_bytes = 0)
    ?(restored_bytes = 0) ?(retries = 0) ?(time_s = 0.0) ?(delta_bytes = 0)
    ?(chunks_shipped = 0) ?(chunks_reused = 0) ?(note = "") () =
  {
    j_ts = ts; j_ev = ev; j_proc = proc; j_src = src; j_dst = dst;
    j_node = node; j_epoch = epoch; j_incarnation = incarnation;
    j_stream_bytes = stream_bytes; j_collected_bytes = collected_bytes;
    j_restored_bytes = restored_bytes; j_retries = retries;
    j_time_s = time_s; j_delta_bytes = delta_bytes;
    j_chunks_shipped = chunks_shipped; j_chunks_reused = chunks_reused;
    j_note = note;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(** One line, no trailing newline.  Key order is canonical and fixed —
    the byte-identity guarantees of the query layer build on it.
    @raise Invalid_argument on a non-finite [ts] or [time_s], or on an
    integer field of magnitude 2^53 or more, which {!parse_entry} would
    refuse. *)
let encode_entry (e : entry) : string =
  List.iter
    (fun n ->
      if n >= 1 lsl 53 || n <= -(1 lsl 53) then
        invalid_arg "Journal.encode_entry: integer field beyond 2^53")
    [ e.j_epoch; e.j_incarnation; e.j_stream_bytes; e.j_collected_bytes;
      e.j_restored_bytes; e.j_retries; e.j_delta_bytes; e.j_chunks_shipped;
      e.j_chunks_reused ];
  Printf.sprintf
    "{\"hpmj\":1,\"ts\":%s,\"ev\":%s,\"proc\":%s,\"src\":%s,\"dst\":%s,\
     \"node\":%s,\"epoch\":%d,\"incarnation\":%d,\"stream_bytes\":%d,\
     \"collected_bytes\":%d,\"restored_bytes\":%d,\"retries\":%d,\
     \"time_s\":%s,\"delta_bytes\":%d,\"chunks_shipped\":%d,\
     \"chunks_reused\":%d,\"note\":%s}"
    (Json.num e.j_ts) (Json.str (ev_name e.j_ev)) (Json.str e.j_proc)
    (Json.str e.j_src) (Json.str e.j_dst) (Json.str e.j_node) e.j_epoch
    e.j_incarnation e.j_stream_bytes e.j_collected_bytes e.j_restored_bytes
    e.j_retries (Json.num e.j_time_s) e.j_delta_bytes e.j_chunks_shipped
    e.j_chunks_reused (Json.str e.j_note)

(** One entry on one line for people: time, kind, process, where, and
    the non-zero costs; {!encode_entry} is the full record. *)
let pp_entry ppf e =
  let pf fmt = Format.fprintf ppf fmt in
  pf "[%8.3fs] %-15s %s" e.j_ts (ev_name e.j_ev) e.j_proc;
  if e.j_src <> "" || e.j_dst <> "" then pf ": %s -> %s" e.j_src e.j_dst;
  if e.j_node <> "" then pf " on %s" e.j_node;
  if e.j_epoch <> 0 then pf " (epoch %d)" e.j_epoch;
  if e.j_stream_bytes <> 0 then
    pf " %d stream B, %d retries, %.2f ms" e.j_stream_bytes e.j_retries
      (e.j_time_s *. 1e3);
  if e.j_note <> "" then pf ": %s" e.j_note

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(** Parse one journal line.  A record is one flat object whose values
    are strings or numbers; an absent field reads as [""] or [0].
    Integer fields must be integral and below 2^53, where a JSON number
    stops being exact. *)
let parse_entry (line : string) : entry =
  let fields =
    match Json.parse line with
    | Json.Obj fields -> fields
    | _ -> corrupt "journal record: not an object"
    | exception Json.Error m -> corrupt "journal record: %s" m
  in
  List.iter
    (function
      | _, (Json.Str _ | Json.Num _) -> ()
      | k, _ -> corrupt "journal record: field %S is not a string or number" k)
    fields;
  (match List.assoc_opt "hpmj" fields with
  | Some (Json.Num 1.0) -> ()
  | Some (Json.Num v) -> corrupt "unsupported journal version %s" (Json.num v)
  | _ -> corrupt "journal record: missing hpmj version key");
  let str k =
    match List.assoc_opt k fields with
    | Some (Json.Str s) -> s
    | Some _ -> corrupt "journal record: field %S is not a string" k
    | None -> ""
  in
  let float k =
    match List.assoc_opt k fields with
    | Some (Json.Num f) -> f
    | Some _ -> corrupt "journal record: field %S is not a number" k
    | None -> 0.0
  in
  let int k =
    let f = float k in
    if Float.is_integer f && Float.abs f < 0x1p53 then int_of_float f
    else corrupt "journal record: field %S is not an integer (%s)" k (Json.num f)
  in
  let ev =
    let name = str "ev" in
    match ev_of_name name with
    | Some ev -> ev
    | None -> corrupt "journal record: unknown event kind %S" name
  in
  {
    j_ts = float "ts";
    j_ev = ev;
    j_proc = str "proc";
    j_src = str "src";
    j_dst = str "dst";
    j_node = str "node";
    j_epoch = int "epoch";
    j_incarnation = int "incarnation";
    j_stream_bytes = int "stream_bytes";
    j_collected_bytes = int "collected_bytes";
    j_restored_bytes = int "restored_bytes";
    j_retries = int "retries";
    j_time_s = float "time_s";
    j_delta_bytes = int "delta_bytes";
    j_chunks_shipped = int "chunks_shipped";
    j_chunks_reused = int "chunks_reused";
    j_note = str "note";
  }

(** Parse a whole journal file body.  Every record must end in a
    newline; bytes after the last newline are a truncated tail —
    rejected with [Corrupt], because a journal that lost its tail has
    lost events and the operator must know.  Only [open_journal], the
    writer, drops a torn tail of the active file, and it counts it. *)
let parse_body (body : string) : entry list =
  let n = String.length body in
  let rec lines acc pos =
    if pos >= n then List.rev acc
    else
      match String.index_from_opt body pos '\n' with
      | None ->
          corrupt "journal: truncated tail (%d bytes after last newline)" (n - pos)
      | Some nl ->
          let line = String.sub body pos (nl - pos) in
          let acc = if line = "" then acc else parse_entry line :: acc in
          lines acc (nl + 1)
  in
  lines [] 0

(* ------------------------------------------------------------------ *)
(* The on-disk log: append-only segments                               *)
(* ------------------------------------------------------------------ *)

(* A journal at [path] is a sequence of closed segment files
   ([path.00001.seg], [path.00002.seg], ...) followed by the active file
   at [path] itself.  Appends are append-only writes to the active file
   — amortized O(1) per record, where the original implementation
   rewrote the whole log atomically on every append (O(n²) over the
   life of a long-lived fleet).  The only whole-file operations left
   are rotation (a single atomic rename of the full active file once it
   passes [segment_bytes]) and [compact] (tmp+rename, like a store
   manifest).  Readers see the same byte stream as before: the
   concatenation of the segment sequence and the active file is exactly
   the old single-file encoding, so HPMJ v1 load semantics — including
   the typed [Corrupt] on a truncated tail or unknown version — are
   unchanged. *)

let default_segment_bytes = 256 * 1024

(* Segment names carry a 5-digit sequence so lexicographic order is
   append order. *)
let segment_path path seq = Printf.sprintf "%s.%05d.seg" path seq

(* [base ^ ".NNNNN.seg"] exactly. *)
let is_segment_name base name =
  String.length name = String.length base + 10
  && String.sub name 0 (String.length base) = base
  && name.[String.length base] = '.'
  && String.for_all
       (function '0' .. '9' -> true | _ -> false)
       (String.sub name (String.length base + 1) 5)
  && String.sub name (String.length name - 4) 4 = ".seg"

(** The closed segments of the journal at [path], oldest first. *)
let segment_paths (path : string) : string list =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (is_segment_name base)
    |> List.sort compare
    |> List.map (Filename.concat dir)

type t = {
  jt_path : string;                (* the active file *)
  jt_segment_bytes : int;          (* rotation threshold *)
  mutable jt_oc : out_channel option;  (* active file, append mode *)
  mutable jt_active_bytes : int;
  mutable jt_next_seg : int;
  mutable jt_entries : entry array;    (* oldest first; jt_count live *)
  mutable jt_count : int;
  mutable jt_rotations : int;
  mutable jt_bytes_written : int;
      (* cumulative bytes this handle pushed to disk — the amortized-O(1)
         claim is [jt_bytes_written <= encoded size + one segment of
         rotation slack], pinned by a regression test *)
}

let path t = t.jt_path
let length t = t.jt_count

let entries t = Array.to_list (Array.sub t.jt_entries 0 t.jt_count)

let rotations t = t.jt_rotations
let bytes_written t = t.jt_bytes_written

(** The journal's closed segment files, oldest first. *)
let segments t = segment_paths t.jt_path

let read_file_opt path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    with Sys_error m -> corrupt "journal: cannot read %s: %s" path m

let parse_file p =
  match read_file_opt p with None -> [] | Some body -> parse_body body

(** Load the entries of [path] — every closed segment in sequence, then
    the active file.  An absent journal is empty. *)
let load (path : string) : entry list =
  List.concat_map parse_file (segment_paths path @ [ path ])

let dummy_entry =
  {
    j_ts = 0.0; j_ev = Spawned; j_proc = ""; j_src = ""; j_dst = "";
    j_node = ""; j_epoch = 0; j_incarnation = 0; j_stream_bytes = 0;
    j_collected_bytes = 0; j_restored_bytes = 0; j_retries = 0;
    j_time_s = 0.0; j_delta_bytes = 0; j_chunks_shipped = 0;
    j_chunks_reused = 0; j_note = "";
  }

let push_entry t e =
  if t.jt_count = Array.length t.jt_entries then begin
    let cap = max 64 (2 * Array.length t.jt_entries) in
    let bigger = Array.make cap dummy_entry in
    Array.blit t.jt_entries 0 bigger 0 t.jt_count;
    t.jt_entries <- bigger
  end;
  t.jt_entries.(t.jt_count) <- e;
  t.jt_count <- t.jt_count + 1

let active_channel t =
  match t.jt_oc with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.jt_path
      in
      t.jt_oc <- Some oc;
      oc

(** Open (creating if needed) the journal at [path].  [segment_bytes]
    bounds the active file: an append that would push it past the
    threshold first rotates it into the next closed segment.  The bytes
    after the active file's last newline — the torn line a crashed
    append leaves — are truncated away and counted in
    [hpm_journal_torn_tail_bytes_total].
    @raise Corrupt when a closed segment, or a line of the active file
    before its last newline, does not parse. *)
let open_journal ?(segment_bytes = default_segment_bytes) (path : string) : t =
  if segment_bytes <= 0 then
    invalid_arg "Journal.open_journal: segment_bytes must be positive";
  Store.mkdir_p (Filename.dirname path);
  let segs = segment_paths path in
  let next_seg =
    match List.rev segs with
    | [] -> 1
    | last :: _ -> (
        (* trailing ".seg" stripped, then the 5-digit sequence *)
        let stem = Filename.chop_suffix (Filename.basename last) ".seg" in
        let seq = String.sub stem (String.length stem - 5) 5 in
        try int_of_string seq + 1 with _ -> List.length segs + 1)
  in
  let closed = List.concat_map parse_file segs in
  let body = Option.value ~default:"" (read_file_opt path) in
  let keep = match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0 in
  let active = parse_body (String.sub body 0 keep) in
  if keep < String.length body then begin
    Unix.truncate path keep;
    if Hpm_obs.Obs.metrics_on () then
      Hpm_obs.Obs.inc "hpm_journal_torn_tail_bytes_total" []
        ~by:(float_of_int (String.length body - keep))
  end;
  let t =
    {
      jt_path = path;
      jt_segment_bytes = segment_bytes;
      jt_oc = None;
      jt_active_bytes = keep;
      jt_next_seg = next_seg;
      jt_entries = [||];
      jt_count = 0;
      jt_rotations = 0;
      jt_bytes_written = 0;
    }
  in
  List.iter (push_entry t) (closed @ active);
  t

(** Flush and close the active file handle.  The journal stays usable —
    the next append reopens it. *)
let close (t : t) : unit =
  match t.jt_oc with
  | None -> ()
  | Some oc ->
      t.jt_oc <- None;
      close_out oc

(* Rotate the active file into the next closed segment: one atomic
   rename of already-durable bytes, no copying. *)
let rotate (t : t) : unit =
  close t;
  Sys.rename t.jt_path (segment_path t.jt_path t.jt_next_seg);
  t.jt_next_seg <- t.jt_next_seg + 1;
  t.jt_active_bytes <- 0;
  t.jt_rotations <- t.jt_rotations + 1;
  if Hpm_obs.Obs.metrics_on () then begin
    Hpm_obs.Obs.inc "hpm_journal_rotations_total" [];
    Hpm_obs.Obs.set_gauge "hpm_journal_segments" []
      (float_of_int (t.jt_next_seg - 1))
  end

(** Append one record: an append-only write to the active segment,
    flushed before returning — amortized O(1) per entry.  A writer
    crash can leave at most a truncated final line, which the next
    [open_journal] truncates and counts and [load] surfaces as the
    typed [Corrupt] (never silent data loss); committed segments are
    immutable and rotation is a single atomic rename. *)
let append (t : t) (e : entry) : unit =
  let line = encode_entry e ^ "\n" in
  if
    t.jt_active_bytes > 0
    && t.jt_active_bytes + String.length line > t.jt_segment_bytes
  then rotate t;
  let oc = active_channel t in
  output_string oc line;
  flush oc;
  t.jt_active_bytes <- t.jt_active_bytes + String.length line;
  t.jt_bytes_written <- t.jt_bytes_written + String.length line;
  push_entry t e;
  if Hpm_obs.Obs.metrics_on () then
    Hpm_obs.Obs.inc "hpm_journal_appends_total" []

(** Merge every closed segment and the active file back into a single
    file at [path] — the only remaining whole-log rewrite, through the
    same tmp+rename commit as store manifests.  Crash-safe: the rename
    lands before the old segments are deleted, and a reader that races
    a crashed compaction sees either the old segment sequence or the
    compacted file plus stale segments — [load] of the latter would
    duplicate, so segments are deleted first only after the rename. *)
let compact (t : t) : unit =
  close t;
  let segs = segments t in
  let body = Buffer.create (t.jt_count * 128) in
  Array.iteri
    (fun i e ->
      if i < t.jt_count then begin
        Buffer.add_string body (encode_entry e);
        Buffer.add_char body '\n'
      end)
    t.jt_entries;
  let bytes = Buffer.contents body in
  Store.write_file_atomic t.jt_path bytes;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) segs;
  t.jt_active_bytes <- String.length bytes;
  t.jt_bytes_written <- t.jt_bytes_written + String.length bytes;
  if Hpm_obs.Obs.metrics_on () then
    Hpm_obs.Obs.set_gauge "hpm_journal_segments" [] 0.0
