(** Deterministic observability: span traces and a metrics registry for
    the whole migration pipeline.

    The paper's §4.2 cost model decomposes a migration into
    [MSRLT_search], [MSRLT_update] and translation terms, but the
    counters for those terms live in five unrelated records ([Mstats],
    [Cstats], [Transport.stats], the scheduler's [mig_stats] and [p_*]
    fields).  This module is the single place they all publish into:

    - {b spans} cover the handoff state machine end to end —
      [migration > {collect, encode, transfer, restore, verify, commit}]
      plus pre-copy rounds and store commits — and export as Chrome
      [trace_event] JSON;
    - {b metrics} are counters/gauges/histograms with labels ([proc],
      [arch_pair], [epoch]) rendered as Prometheus text exposition.

    Everything is timed on the {e simulated} clock: Netsim transfer time
    plus the modelled CPU costs of {!Model}.  [Unix.gettimeofday] never
    appears, so two runs with the same seed emit byte-identical traces —
    the property the CI [obs] job diffs for.

    Instrumentation cost when no sink is installed is one ref read and a
    branch per call site: the default sink is a no-op, and hot paths in
    the pipeline guard with {!tracing} / {!metrics_on} before building
    argument lists. *)

(* ------------------------------------------------------------------ *)
(* Deterministic formatting                                            *)
(* ------------------------------------------------------------------ *)

(* One float syntax for every exported artifact: integral values print
   with no fraction, everything else as shortest-9-significant-digits.
   Printf is deterministic, so same numbers => same bytes. *)
let fmt_float (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

type labels = (string * string) list

(* Canonical label list: sorted by key, first occurrence of a duplicate
   key wins (callers prepend the more specific scope). *)
let canon (ls : labels) : labels =
  let seen = Hashtbl.create 8 in
  let uniq =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.add seen k ();
          true))
      ls
  in
  List.sort (fun (a, _) (b, _) -> compare a b) uniq

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type kind = Counter | Gauge | Histogram

  let kind_name = function
    | Counter -> "counter"
    | Gauge -> "gauge"
    | Histogram -> "histogram"

  (* Fixed buckets (seconds): simulated waits range from sub-millisecond
     chunk backoffs to multi-second watchdog deadlines. *)
  let default_buckets = [| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

  type series = {
    s_labels : labels;
    mutable s_value : float;       (* counter / gauge *)
    s_buckets : int array;         (* histogram: per-bucket counts *)
    mutable s_sum : float;
    mutable s_count : int;
  }

  type family = {
    f_name : string;
    f_kind : kind;
    f_help : string;
    f_series : (string, series) Hashtbl.t;  (* key = canonical labels *)
  }

  type t = { families : (string, family) Hashtbl.t }

  (* Known metric names: kind + help for the exposition header.  An
     unlisted name defaults to a help-less counter. *)
  let catalog : (string * kind * string) list =
    [
      ("hpm_msrlt_searches_total", Counter,
       "MSRLT address->block searches performed during collection (the \
        MSRLT_search term of the paper's section 4.2)");
      ("hpm_msrlt_updates_total", Counter,
       "MSRLT mi_id->block bindings performed during restoration (the \
        MSRLT_update term of section 4.2)");
      ("hpm_msrlt_blocks_scanned_total", Counter,
       "blocks visited by collection walks (all dirty in a full collection)");
      ("hpm_msrlt_blocks_dirty_total", Counter,
       "of the scanned blocks, those written since the previous epoch");
      ("hpm_collect_blocks_total", Counter, "memory blocks collected");
      ("hpm_collect_data_bytes_total", Counter,
       "Sum(Di): machine-specific bytes the collector encoded");
      ("hpm_collect_stream_bytes_total", Counter,
       "machine-independent stream bytes produced by collection");
      ("hpm_collect_pointers_total", Counter,
       "pointer elements walked by save_pointer");
      ("hpm_collect_frames_total", Counter, "stack frames collected");
      ("hpm_restore_blocks_total", Counter, "memory blocks restored");
      ("hpm_restore_data_bytes_total", Counter,
       "machine-specific bytes the restorer decoded");
      ("hpm_restore_heap_allocs_total", Counter,
       "heap blocks freshly allocated during restoration");
      ("hpm_restore_pointers_total", Counter,
       "pointer elements decoded by restore_pointer");
      ("hpm_verify_blocks_total", Counter,
       "live blocks checked by the restore-side verifier");
      ("hpm_verify_pointers_total", Counter,
       "pointer elements checked by the verifier");
      ("hpm_verify_edges_total", Counter,
       "non-null data-pointer edges the verifier resolved");
      ("hpm_xdr_encoded_bytes_total", Counter,
       "bytes written through the XDR encoders");
      ("hpm_xdr_decoded_bytes_total", Counter,
       "bytes consumed through the XDR decoders");
      ("hpm_transport_chunks_total", Counter, "data chunks in transferred streams");
      ("hpm_transport_sends_total", Counter,
       "frame transmissions, retries included");
      ("hpm_transport_retries_total", Counter, "NAK-triggered retransmissions");
      ("hpm_transport_resent_bytes_total", Counter,
       "wire bytes of retransmitted frames");
      ("hpm_transport_payload_bytes_total", Counter, "stream bytes delivered");
      ("hpm_transport_wire_bytes_total", Counter,
       "frames plus control messages, all attempts");
      ("hpm_transport_backoff_seconds_total", Counter,
       "simulated seconds spent in retransmission backoff");
      ("hpm_transport_time_seconds_total", Counter,
       "total simulated transfer seconds");
      ("hpm_handoff_outcomes_total", Counter,
       "two-phase handoff outcomes, by terminal state");
      ("hpm_handoff_time_seconds", Histogram,
       "simulated protocol time of one handoff, waits included");
      ("hpm_precopy_rounds_total", Counter, "pre-copy rounds shipped, by kind");
      ("hpm_precopy_wire_bytes_total", Counter,
       "delta-wire bytes shipped by pre-copy rounds");
      ("hpm_store_chunk_writes_total", Counter,
       "chunks newly written to the content-addressed store");
      ("hpm_store_chunk_dedup_hits_total", Counter,
       "chunk writes elided because the content already existed");
      ("hpm_store_chunk_reads_total", Counter, "chunk reads from the store");
      ("hpm_store_manifest_commits_total", Counter,
       "manifests committed (atomic tmp+rename)");
      ("hpm_store_gc_reclaimed_chunks_total", Counter,
       "unreferenced chunks deleted by gc");
      ("hpm_store_gc_reclaimed_bytes_total", Counter,
       "on-disk bytes reclaimed by gc");
      ("hpm_store_gc_live_chunks", Gauge,
       "referenced chunks surviving the last gc");
      ("hpm_store_gc_live_bytes", Gauge,
       "on-disk bytes of referenced chunks at the last gc");
      ("hpm_sched_spawns_total", Counter, "processes spawned by the scheduler");
      ("hpm_sched_requests_total", Counter, "migration requests issued");
      ("hpm_sched_migrations_total", Counter, "committed migrations");
      ("hpm_sched_failed_migrations_total", Counter,
       "migration epochs aborted (link or node faults)");
      ("hpm_sched_recoveries_total", Counter,
       "resumes from a retained checkpoint");
      ("hpm_sched_requeues_total", Counter,
       "checkpoints re-queued to another node");
      ("hpm_sched_checkpoints_total", Counter,
       "periodic incremental checkpoints committed");
      ("hpm_sched_finished_total", Counter, "processes run to completion");
      ("hpm_sched_promotions_total", Counter,
       "warm standbys promoted to primary after source loss");
      ("hpm_sched_standby_lost_total", Counter,
       "standbys declared dead (heartbeat misses or crash)");
      ("hpm_sched_resyncs_total", Counter,
       "full resyncs served to gapped or restarted standbys");
      ("hpm_replica_deltas_total", Counter,
       "replication deltas shipped to subscribers, by kind");
      ("hpm_replica_delta_bytes_total", Counter,
       "v3 delta wire bytes shipped to replication subscribers");
      ("hpm_replica_dup_deltas_total", Counter,
       "duplicate or stale deliveries a standby ignored (idempotence)");
      ("hpm_replica_heartbeat_misses_total", Counter,
       "heartbeat replies the source never received");
      ("hpm_replica_lag_epochs", Gauge,
       "epochs a replication subscriber trails the source");
      ("hpm_replica_bytes_in_flight", Gauge,
       "outbox bytes queued toward a partitioned subscriber");
      ("hpm_replica_ship_seconds", Histogram,
       "simulated shipping lag of one delta to one subscriber");
      ("hpm_store_pinned_chunks", Gauge,
       "chunks pinned against gc by in-flight applications/subscriptions");
      ("hpm_store_gc_damaged_manifests_total", Counter,
       "unparseable manifest files gc skipped (they protected no chunks)");
      ("hpm_journal_appends_total", Counter,
       "fleet-journal records appended (HPMJ, docs/FORMAT.md)");
      ("hpm_journal_rotations_total", Counter,
       "active journal segments rotated out at the size threshold");
      ("hpm_journal_segments", Gauge,
       "closed journal segment files on disk (0 after compaction)");
      ("hpm_cluster_events_total", Counter,
       "discrete events executed by the cluster engine, by kind");
      ("hpm_cluster_inflight_migrations", Gauge,
       "two-phase migrations concurrently in flight");
      ("hpm_cluster_peak_inflight", Gauge,
       "high-water mark of concurrently in-flight migrations");
      ("hpm_cluster_migration_seconds", Histogram,
       "simulated wall time of one committed cluster migration");
    ]

  let create () : t = { families = Hashtbl.create 64 }

  let family t name kind =
    match Hashtbl.find_opt t.families name with
    | Some f -> f
    | None ->
        let kind, help =
          match List.find_opt (fun (n, _, _) -> n = name) catalog with
          | Some (_, k, h) -> (k, h)
          | None -> (kind, "")
        in
        let f = { f_name = name; f_kind = kind; f_help = help; f_series = Hashtbl.create 8 } in
        Hashtbl.replace t.families name f;
        f

  let series f (ls : labels) =
    let ls = canon ls in
    let key = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) in
    match Hashtbl.find_opt f.f_series key with
    | Some s -> s
    | None ->
        let s =
          {
            s_labels = ls;
            s_value = 0.0;
            s_buckets = Array.make (Array.length default_buckets) 0;
            s_sum = 0.0;
            s_count = 0;
          }
        in
        Hashtbl.replace f.f_series key s;
        s

  let inc t ?(by = 1.0) name (ls : labels) =
    let s = series (family t name Counter) ls in
    s.s_value <- s.s_value +. by

  let set t name (ls : labels) v =
    let s = series (family t name Gauge) ls in
    s.s_value <- v

  let observe t name (ls : labels) v =
    let s = series (family t name Histogram) ls in
    Array.iteri
      (fun i le -> if v <= le then s.s_buckets.(i) <- s.s_buckets.(i) + 1)
      default_buckets;
    s.s_sum <- s.s_sum +. v;
    s.s_count <- s.s_count + 1

  (** Current value of a counter/gauge series ([None] if never touched);
      for histograms, the observation count. *)
  let value t name (ls : labels) : float option =
    match Hashtbl.find_opt t.families name with
    | None -> None
    | Some f -> (
        let ls = canon ls in
        let key = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) in
        match Hashtbl.find_opt f.f_series key with
        | None -> None
        | Some s -> (
            match f.f_kind with
            | Histogram -> Some (float_of_int s.s_count)
            | Counter | Gauge -> Some s.s_value))

  (* Prometheus label-value escaping: backslash, quote, newline. *)
  let escape_label v =
    let b = Buffer.create (String.length v) in
    String.iter
      (function
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let label_text (ls : labels) =
    match ls with
    | [] -> ""
    | _ ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) ls)
        ^ "}"

  (** Prometheus text exposition.  Families sorted by name, series by
      canonical label text, floats via {!fmt_float}: deterministic. *)
  let render (t : t) : string =
    let b = Buffer.create 4096 in
    let fams =
      Hashtbl.fold (fun _ f acc -> f :: acc) t.families []
      |> List.sort (fun a b -> compare a.f_name b.f_name)
    in
    List.iter
      (fun f ->
        if f.f_help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" f.f_name f.f_help);
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_name f.f_kind));
        let ss =
          Hashtbl.fold (fun _ s acc -> s :: acc) f.f_series []
          |> List.sort (fun a b -> compare a.s_labels b.s_labels)
        in
        List.iter
          (fun s ->
            match f.f_kind with
            | Counter | Gauge ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" f.f_name (label_text s.s_labels)
                     (fmt_float s.s_value))
            | Histogram ->
                Array.iteri
                  (fun i le ->
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                         (label_text (s.s_labels @ [ ("le", fmt_float le) ]))
                         s.s_buckets.(i)))
                  default_buckets;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                     (label_text (s.s_labels @ [ ("le", "+Inf") ]))
                     s.s_count);
                Buffer.add_string b
                  (Printf.sprintf "%s_sum%s %s\n" f.f_name (label_text s.s_labels)
                     (fmt_float s.s_sum));
                Buffer.add_string b
                  (Printf.sprintf "%s_count%s %d\n" f.f_name (label_text s.s_labels)
                     s.s_count))
          ss)
      fams;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Span tracer (Chrome trace_event JSON)                               *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type arg = I of int | F of float | S of string

  type ev = {
    e_name : string;
    e_cat : string;
    e_ph : char;  (** 'B' begin, 'E' end, 'i' instant *)
    e_ts : float; (** simulated seconds *)
    e_tid : int;
    e_args : (string * arg) list;
  }

  type t = { mutable evs : ev list; mutable count : int }  (* newest first *)

  let create () : t = { evs = []; count = 0 }
  let event_count t = t.count

  let emit t ~ph ~ts ?(tid = 1) ?(args = []) ~cat name =
    t.evs <- { e_name = name; e_cat = cat; e_ph = ph; e_ts = ts; e_tid = tid; e_args = args } :: t.evs;
    t.count <- t.count + 1

  let emit_b t ~ts ?tid ?args ~cat name = emit t ~ph:'B' ~ts ?tid ?args ~cat name
  let emit_e t ~ts ?tid ?args name = emit t ~ph:'E' ~ts ?tid ?args ~cat:"" name
  let emit_i t ~ts ?tid ?args ~cat name = emit t ~ph:'i' ~ts ?tid ?args ~cat name

  (** Events in emission order. *)
  let events t : ev list = List.rev t.evs

  let escape_json s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let arg_json = function
    | I i -> string_of_int i
    | F f -> fmt_float f
    | S s -> "\"" ^ escape_json s ^ "\""

  (** Chrome [trace_event] JSON ("JSON Array Format" wrapped in an object
      with [traceEvents]).  Timestamps are microseconds of simulated
      time; byte-identical across same-seed runs. *)
  let to_json (t : t) : string =
    let b = Buffer.create 8192 in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string b ",";
        Buffer.add_string b "\n{";
        Buffer.add_string b (Printf.sprintf "\"name\":\"%s\"" (escape_json e.e_name));
        if e.e_cat <> "" then
          Buffer.add_string b (Printf.sprintf ",\"cat\":\"%s\"" (escape_json e.e_cat));
        Buffer.add_string b (Printf.sprintf ",\"ph\":\"%c\"" e.e_ph);
        if e.e_ph = 'i' then Buffer.add_string b ",\"s\":\"t\"";
        Buffer.add_string b
          (Printf.sprintf ",\"ts\":%s,\"pid\":1,\"tid\":%d" (fmt_float (e.e_ts *. 1e6))
             e.e_tid);
        (match e.e_args with
        | [] -> ()
        | args ->
            Buffer.add_string b ",\"args\":{";
            List.iteri
              (fun j (k, v) ->
                if j > 0 then Buffer.add_string b ",";
                Buffer.add_string b
                  (Printf.sprintf "\"%s\":%s" (escape_json k) (arg_json v)))
              args;
            Buffer.add_string b "}");
        Buffer.add_string b "}")
      (events t);
    Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"simulated\"}}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Modelled CPU costs                                                  *)
(* ------------------------------------------------------------------ *)

(** Deterministic per-operation CPU cost model for span durations.

    The handoff's simulated clock only advances on network transfers and
    protocol waits; collection and restoration are instantaneous on it.
    Spans need durations, so trace timestamps run on that clock {e plus}
    these modelled costs, charged from the §4.2 counters (searches,
    updates, blocks, bytes).  The constants are nominal (a late-90s
    workstation flavour); what matters is that they are fixed, so the
    same counters always yield the same timestamps.  The costs shift
    {e trace} time only — protocol outcomes and the [c_time_s] family of
    results never include them. *)
module Model = struct
  let search_s = 150e-9      (* one O(log n) MSRLT search *)
  let update_s = 40e-9       (* one O(1) MSRLT bind *)
  let block_s = 120e-9       (* per-block bookkeeping, either direction *)
  let encode_byte_s = 4e-9   (* XDR encode, per data byte *)
  let decode_byte_s = 4e-9   (* XDR decode, per data byte *)
  let verify_pointer_s = 60e-9  (* re-walk one pointer element *)

  let collect_s ~searches ~blocks ~bytes =
    (float_of_int searches *. search_s)
    +. (float_of_int blocks *. block_s)
    +. (float_of_int bytes *. encode_byte_s)

  let encode_s ~bytes = float_of_int bytes *. encode_byte_s

  let restore_s ~updates ~blocks ~bytes =
    (float_of_int updates *. update_s)
    +. (float_of_int blocks *. block_s)
    +. (float_of_int bytes *. decode_byte_s)

  let decode_s ~bytes = float_of_int bytes *. decode_byte_s

  let verify_s ~blocks ~pointers =
    (float_of_int blocks *. block_s)
    +. (float_of_int pointers *. verify_pointer_s)

  (* portability analysis (pre-compile time, not migration time): a
     poll summary is one interval-dataflow solve plus a live-set walk,
     an entry is one abstract value carried in a summary, a check is
     one per-entry axis comparison in a pair verdict *)
  let compat_poll_s = 900e-9
  let compat_entry_s = 180e-9
  let compat_check_s = 25e-9

  let compat_s ~polls ~entries ~checks =
    (float_of_int polls *. compat_poll_s)
    +. (float_of_int entries *. compat_entry_s)
    +. (float_of_int checks *. compat_check_s)

  (* query-engine management-plane cost (lib/query): a row is one tuple
     materialized by a pipeline stage, a cell is one typed value touched
     by a filter/projection/aggregate *)
  let query_row_s = 90e-9
  let query_cell_s = 6e-9

  let query_s ~rows ~cells =
    (float_of_int rows *. query_row_s) +. (float_of_int cells *. query_cell_s)
end

(* ------------------------------------------------------------------ *)
(* Global sink                                                         *)
(* ------------------------------------------------------------------ *)

let cur_trace : Trace.t option ref = ref None
let cur_metrics : Metrics.t option ref = ref None
let amb_labels : labels ref = ref []
let amb_now : float ref = ref 0.0

let set_trace t = cur_trace := t
let set_metrics m = cur_metrics := m

let tracing () = match !cur_trace with Some _ -> true | None -> false
let metrics_on () = match !cur_metrics with Some _ -> true | None -> false
let on () = tracing () || metrics_on ()

(** The ambient simulated clock: drivers (handoff, pre-copy, scheduler)
    advance it so nested components emit correctly-based timestamps. *)
let now () = !amb_now

let set_now t = amb_now := t

(** Ambient labels, prepended to every metric publish ([proc],
    [arch_pair], [epoch] scopes). *)
let labels () = !amb_labels

let set_labels ls = amb_labels := ls

let with_labels ls f =
  let prev = !amb_labels in
  amb_labels := ls @ prev;
  Fun.protect ~finally:(fun () -> amb_labels := prev) f

(** Drop both sinks, the ambient labels, and the clock — fresh state for
    the next run. *)
let reset () =
  cur_trace := None;
  cur_metrics := None;
  amb_labels := [];
  amb_now := 0.0

(* Guarded publish helpers: no-ops (one match) without a sink. *)

let inc ?by name ls =
  match !cur_metrics with
  | None -> ()
  | Some m -> Metrics.inc m ?by name (ls @ !amb_labels)

let set_gauge name ls v =
  match !cur_metrics with
  | None -> ()
  | Some m -> Metrics.set m name (ls @ !amb_labels) v

let observe name ls v =
  match !cur_metrics with
  | None -> ()
  | Some m -> Metrics.observe m name (ls @ !amb_labels) v

let span_b ~ts ?tid ?args ~cat name =
  match !cur_trace with None -> () | Some t -> Trace.emit_b t ~ts ?tid ?args ~cat name

let span_e ~ts ?tid ?args name =
  match !cur_trace with None -> () | Some t -> Trace.emit_e t ~ts ?tid ?args name

let instant ~ts ?tid ?args ~cat name =
  match !cur_trace with None -> () | Some t -> Trace.emit_i t ~ts ?tid ?args ~cat name
