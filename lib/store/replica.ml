(** Continuous delta replication with warm standbys.

    {!Hpm_store.Precopy} ships converging deltas once, immediately ahead
    of a migration.  This module generalizes those delta rounds into an
    {e ongoing subscription}: at every stream epoch the source suspends
    at a poll-point, snapshots its wgen-dirty blocks ({!Snapshot}), and
    ships one v3 delta ({!Store.encode_delta}) to the durable {!Store}
    and to every live subscriber.  Failover then stops being a
    stop-the-world collect — a planned migration ships only the {e final}
    delta under the two-phase {!Hpm_core.Handoff} commit, and a source
    crash is answered by {e promoting} the freshest committed standby,
    catching it up from the store and fencing the dead incarnation.

    Protocol rules (docs/REPLICATION.md):

    - the {b store is always shipped first}: an epoch is durable (and its
      output released) before any subscriber sees it, so the store's
      newest committed manifest is the authoritative resume point;
    - standby application is {b idempotent and base-checked}: a duplicate
      or re-sent-base delta is a no-op, a gap raises a typed
      [Resync_required] answered with a full resync;
    - {b lag and backpressure} are accounted per subscriber
      (epochs-behind, bytes-in-flight); a partitioned subscriber's deltas
      queue in a bounded outbox, and overflowing it degrades the
      subscriber to store-only shipping;
    - {b liveness} is heartbeat-based ({!Transport.encode_heartbeat});
      [miss_limit] consecutive misses declare the standby lost;
    - {b exactly-once} across promotion: output is released only at
      durable (store-committed) epochs, promotion resumes from exactly
      the newest committed epoch, and the promoted standby {e fences}
      the old incarnation — a recovering source finds the fence and
      discards itself instead of running twice. *)

open Hpm_machine
open Hpm_net
open Hpm_core
module Obs = Hpm_obs.Obs

type config = {
  epoch_polls : int;   (** poll events the source advances per stream epoch (>= 1) *)
  max_lag : int;       (** epochs-behind before a subscriber degrades to store-only *)
  outbox_limit : int;  (** queued deltas per partitioned subscriber before degrade *)
  miss_limit : int;    (** consecutive heartbeat misses before the standby is lost *)
  handoff : Handoff.config;  (** protocol config for planned-migration handoffs *)
}

let default_config =
  { epoch_polls = 25; max_lag = 4; outbox_limit = 2; miss_limit = 2;
    handoff = Handoff.default_config }

type sub_state = Sub_live | Sub_degraded | Sub_lost

let sub_state_name = function
  | Sub_live -> "live"
  | Sub_degraded -> "degraded"
  | Sub_lost -> "lost"

(** What one delivery did on the standby. *)
type apply_result =
  | Applied of int    (** advanced to this epoch *)
  | Duplicate         (** duplicate or re-sent base: no-op (idempotence) *)
  | Resync_required of { rr_have : int; rr_base : string }
      (** the delta names a base this standby never held (gap, reorder,
          or crash-restart): it needs a full resync.  [rr_have] is the
          newest epoch it still holds (0 = none), [rr_base] the hex hash
          of the base the delta wanted. *)

type standby = {
  sb_name : string;
  sb_arch : Hpm_arch.Arch.t;
  sb_chunks : (string, string) Hashtbl.t;  (* volatile standby memory *)
  sb_seen : (string, int) Hashtbl.t;       (* applied manifest hex hash -> epoch *)
  mutable sb_manifest : Store.manifest option;
  mutable sb_epoch : int;                  (* newest applied epoch; 0 = none *)
  mutable sb_state : sub_state;
  mutable sb_outbox : (int * string) list; (* queued (epoch, wire), oldest first *)
  mutable sb_outbox_bytes : int;
  mutable sb_held : (int * string) option; (* reorder fault: delta held back *)
  mutable sb_applied : int;
  mutable sb_dups : int;
  mutable sb_resyncs : int;
  mutable sb_hb_misses : int;              (* consecutive *)
  mutable sb_hb_seq : int;
}

(** The deterministic replication event log — the replication sibling of
    {!Hpm_core.Handoff.step}. *)
type event =
  | Ev_store of { es_epoch : int; es_bytes : int }
  | Ev_delta of { ed_epoch : int; ed_sub : string; ed_kind : [ `Full | `Delta ];
                  ed_bytes : int }
  | Ev_dup of { eu_epoch : int; eu_sub : string }
  | Ev_gap of { eg_epoch : int; eg_sub : string; eg_have : int }
  | Ev_resync of { er_epoch : int; er_sub : string; er_bytes : int }
  | Ev_partition of { ep_epoch : int; ep_sub : string; ep_queued : int }
  | Ev_degraded of { ed2_epoch : int; ed2_sub : string }
  | Ev_hb_miss of { eh_epoch : int; eh_sub : string; eh_misses : int }
  | Ev_standby_lost of { el_epoch : int; el_sub : string }
  | Ev_standby_crash of { ec_epoch : int; ec_sub : string }
  | Ev_source_crash of { ek_phase : Netsim.rep_phase; ek_epoch : int }
  | Ev_promoted of { ev_sub : string; ev_from : int; ev_epoch : int;
                     ev_catchup : int }
  | Ev_fenced of { ef_incarnation : int }

let pp_event ppf = function
  | Ev_store { es_epoch; es_bytes } ->
      Fmt.pf ppf "epoch %d: store committed (%d B)" es_epoch es_bytes
  | Ev_delta { ed_epoch; ed_sub; ed_kind; ed_bytes } ->
      Fmt.pf ppf "epoch %d: %s delta -> %s (%d B)" ed_epoch
        (match ed_kind with `Full -> "full" | `Delta -> "incr") ed_sub ed_bytes
  | Ev_dup { eu_epoch; eu_sub } ->
      Fmt.pf ppf "epoch %d: %s ignored a duplicate" eu_epoch eu_sub
  | Ev_gap { eg_epoch; eg_sub; eg_have } ->
      Fmt.pf ppf "epoch %d: %s hit a gap (holds %d); resync required" eg_epoch
        eg_sub eg_have
  | Ev_resync { er_epoch; er_sub; er_bytes } ->
      Fmt.pf ppf "epoch %d: full resync -> %s (%d B)" er_epoch er_sub er_bytes
  | Ev_partition { ep_epoch; ep_sub; ep_queued } ->
      Fmt.pf ppf "epoch %d: %s partitioned (%d queued)" ep_epoch ep_sub ep_queued
  | Ev_degraded { ed2_epoch; ed2_sub } ->
      Fmt.pf ppf "epoch %d: %s outbox overflow; degraded to store-only" ed2_epoch
        ed2_sub
  | Ev_hb_miss { eh_epoch; eh_sub; eh_misses } ->
      Fmt.pf ppf "epoch %d: heartbeat of %s missed (%d consecutive)" eh_epoch
        eh_sub eh_misses
  | Ev_standby_lost { el_epoch; el_sub } ->
      Fmt.pf ppf "epoch %d: standby %s declared lost" el_epoch el_sub
  | Ev_standby_crash { ec_epoch; ec_sub } ->
      Fmt.pf ppf "epoch %d: standby %s crashed mid-apply (state wiped)" ec_epoch
        ec_sub
  | Ev_source_crash { ek_phase; ek_epoch } ->
      Fmt.pf ppf "epoch %d: SOURCE CRASH during %s" ek_epoch
        (Netsim.rep_phase_name ek_phase)
  | Ev_promoted { ev_sub; ev_from; ev_epoch; ev_catchup } ->
      Fmt.pf ppf "promoted %s: epoch %d -> %d (%d catch-up deltas)" ev_sub ev_from
        ev_epoch ev_catchup
  | Ev_fenced { ef_incarnation } ->
      Fmt.pf ppf "old incarnation fenced; incarnation now %d" ef_incarnation

type t = {
  r_config : config;
  r_channel : Netsim.t;
  r_store : Store.t;
  r_proc : string;
  r_m : Migration.migratable;
  mutable r_src : Interp.t;
  r_cache : Snapshot.cache;
  r_chunks : (string, string) Hashtbl.t;  (* union of serialized payloads *)
  r_standbys : standby list;
  mutable r_faults : Netsim.rep_faults option;
  mutable r_epoch : int;                  (* newest store-committed epoch *)
  mutable r_manifest : Store.manifest option;
  r_output : Buffer.t;                    (* output released at durable epochs *)
  mutable r_incarnation : int;
  mutable r_fenced : bool;
  mutable r_src_alive : bool;
  mutable r_pins : string list;           (* retention pins currently held *)
  mutable r_time : float;                 (* simulated replication seconds *)
  r_stats : Cstats.delta;
  mutable r_events : event list;          (* newest first *)
  r_journal : Journal.t option;           (* durable fleet journal (HPMJ) *)
  mutable r_j_shipped : int;              (* ship counter at last journal entry *)
  mutable r_j_reused : int;               (* reuse counter at last journal entry *)
}

let events t = List.rev t.r_events
let epoch t = t.r_epoch
let time_s t = t.r_time
let stats t = t.r_stats
let source_alive t = t.r_src_alive
let incarnation t = t.r_incarnation
let standbys t = t.r_standbys

(** Swap in a new deterministic fault plan mid-session (tests drive the
    matrix with this). *)
let set_faults t rf = t.r_faults <- rf

let find_standby t name =
  match List.find_opt (fun sb -> sb.sb_name = name) t.r_standbys with
  | Some sb -> sb
  | None -> Store.err "replica: no standby named %s" name

(** Epochs a subscriber trails the newest committed epoch. *)
let lag t sb = t.r_epoch - sb.sb_epoch

(** A blank subscriber holding no state — the fuzz harness drives these
    directly through {!standby_apply}. *)
let fresh_standby ~arch name =
  {
    sb_name = name;
    sb_arch = arch;
    sb_chunks = Hashtbl.create 64;
    sb_seen = Hashtbl.create 16;
    sb_manifest = None;
    sb_epoch = 0;
    sb_state = Sub_live;
    sb_outbox = [];
    sb_outbox_bytes = 0;
    sb_held = None;
    sb_applied = 0;
    sb_dups = 0;
    sb_resyncs = 0;
    sb_hb_misses = 0;
    sb_hb_seq = 0;
  }

let create ?(config = default_config) ?faults ?journal ~(channel : Netsim.t)
    ~(store : Store.t) ~(proc : string)
    ~(standbys : (string * Hpm_arch.Arch.t) list) (m : Migration.migratable)
    (src : Interp.t) : t =
  if config.epoch_polls < 1 then invalid_arg "Replica.create: epoch_polls must be >= 1";
  if config.max_lag < 1 then invalid_arg "Replica.create: max_lag must be >= 1";
  if config.outbox_limit < 0 then invalid_arg "Replica.create: negative outbox_limit";
  if config.miss_limit < 1 then invalid_arg "Replica.create: miss_limit must be >= 1";
  if standbys = [] then invalid_arg "Replica.create: at least one standby required";
  let faults = match faults with Some _ as f -> f | None -> channel.Netsim.rep_faults in
  {
    r_config = config;
    r_channel = channel;
    r_store = store;
    r_proc = proc;
    r_m = m;
    r_src = src;
    r_cache = Snapshot.new_cache ();
    r_chunks = Hashtbl.create 256;
    r_standbys = List.map (fun (name, arch) -> fresh_standby ~arch name) standbys;
    r_faults = faults;
    r_epoch = 0;
    r_manifest = None;
    r_output = Buffer.create 256;
    r_incarnation = 1;
    r_fenced = false;
    r_src_alive = true;
    r_pins = [];
    r_time = 0.0;
    r_stats = Cstats.delta_zero ();
    r_events = [];
    r_journal = journal;
    r_j_shipped = 0;
    r_j_reused = 0;
  }

(* Durable projection of the in-memory event stream: the subset of
   events an operator replays after the process is gone goes to the
   HPMJ journal (when one was attached).  Chatter that only matters to
   a live debugging session — dups, gaps, partitions, heartbeat
   misses — stays in-memory only. *)
let journalize t e =
  match t.r_journal with
  | None -> ()
  | Some j ->
      let ts = Hpm_obs.Obs.now () +. t.r_time in
      let entry = Journal.entry ~ts ~proc:t.r_proc in
      let je =
        match e with
        | Ev_store { es_epoch; es_bytes } ->
            (* the replica's Cstats counters are cumulative; the journal
               records what each epoch itself shipped/reused *)
            let shipped = t.r_stats.Cstats.d_chunks_shipped - t.r_j_shipped in
            let reused = t.r_stats.Cstats.d_chunks_reused - t.r_j_reused in
            t.r_j_shipped <- t.r_stats.Cstats.d_chunks_shipped;
            t.r_j_reused <- t.r_stats.Cstats.d_chunks_reused;
            Some (entry ~ev:Journal.Checkpointed ~epoch:es_epoch
                    ~delta_bytes:es_bytes ~chunks_shipped:shipped
                    ~chunks_reused:reused ())
        | Ev_resync { er_epoch; er_sub; er_bytes } ->
            Some (entry ~ev:Journal.Resynced ~node:er_sub ~epoch:er_epoch
                    ~stream_bytes:er_bytes ())
        | Ev_standby_lost { el_epoch; el_sub } ->
            Some (entry ~ev:Journal.Standby_lost ~node:el_sub
                    ~epoch:el_epoch ())
        | Ev_promoted { ev_sub; ev_from; ev_epoch; ev_catchup } ->
            Some (entry ~ev:Journal.Promoted ~dst:ev_sub ~epoch:ev_epoch
                    ~incarnation:t.r_incarnation
                    ~delta_bytes:ev_catchup
                    ~note:(Printf.sprintf "from epoch %d" ev_from) ())
        | Ev_source_crash { ek_phase; ek_epoch } ->
            Some (entry ~ev:Journal.Failed ~epoch:ek_epoch
                    ~note:(Printf.sprintf "source crashed (%s)"
                             (Netsim.rep_phase_name ek_phase)) ())
        | Ev_delta _ | Ev_dup _ | Ev_gap _ | Ev_partition _ | Ev_degraded _
        | Ev_hb_miss _ | Ev_standby_crash _ | Ev_fenced _ ->
            None
      in
      match je with None -> () | Some je -> Journal.append j je

let record t e =
  t.r_events <- e :: t.r_events;
  journalize t e

(* ------------------------------------------------------------------ *)
(* Fault plan helpers (deterministic, consumed when they fire)         *)
(* ------------------------------------------------------------------ *)

let fault_hit t sub epoch get set =
  match t.r_faults with
  | None -> false
  | Some rf ->
      if List.mem (sub, epoch) (get rf) then (
        set rf (List.filter (fun x -> x <> (sub, epoch)) (get rf));
        true)
      else false

let partitioned t sub epoch =
  match t.r_faults with
  | None -> false
  | Some rf ->
      List.exists
        (fun (s, e0, n) -> s = sub && epoch >= e0 && epoch < e0 + n)
        rf.Netsim.rp_partition

let crash_source_now t phase epoch =
  match t.r_faults with
  | None -> false
  | Some rf -> (
      match rf.Netsim.rp_crash_source_at with
      | Some (p, e) when p = phase && e = epoch ->
          rf.Netsim.rp_crash_source_at <- None;
          true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Standby-side application (idempotent, base-checked)                  *)
(* ------------------------------------------------------------------ *)

(** Apply one delivered v3 delta to [sb]'s volatile state.  Pure
    standby-side logic (also driven directly by the fuzz tests): a delta
    whose manifest epoch is not ahead of the standby's, or whose base is
    a manifest the standby already advanced past, is a no-op duplicate;
    a delta against a base the standby never held demands a resync.
    @raise Store.Corrupt on a damaged wire *)
let standby_apply (sb : standby) (wire : string) : apply_result =
  let dup () =
    sb.sb_dups <- sb.sb_dups + 1;
    if Obs.metrics_on () then
      Obs.inc "hpm_replica_dup_deltas_total" [ ("sub", sb.sb_name) ];
    Duplicate
  in
  match Store.parse_delta ?base:sb.sb_manifest wire with
  | d ->
      let mf = d.Store.d_manifest in
      if mf.Store.mf_epoch <= sb.sb_epoch then dup ()
      else (
        List.iter
          (fun (h, payload) -> Hashtbl.replace sb.sb_chunks h payload)
          d.Store.d_chunks;
        (match
           List.find_opt
             (fun h -> not (Hashtbl.mem sb.sb_chunks h))
             (Store.manifest_hashes mf)
         with
        | Some h ->
            Store.corrupt "standby %s: delta leaves chunk %s unmaterializable"
              sb.sb_name (Store.hash_hex h)
        | None -> ());
        sb.sb_manifest <- Some mf;
        sb.sb_epoch <- mf.Store.mf_epoch;
        Hashtbl.replace sb.sb_seen (Store.hash_hex (Store.manifest_hash mf))
          mf.Store.mf_epoch;
        sb.sb_applied <- sb.sb_applied + 1;
        Applied mf.Store.mf_epoch)
  | exception Store.Base_mismatch (_, got) ->
      if Hashtbl.mem sb.sb_seen got then dup ()
      else Resync_required { rr_have = sb.sb_epoch; rr_base = got }

(** The standby's state as a byte-exact v2 stream (what promotion would
    resume from).  @raise Store.Error when it holds no manifest yet *)
let standby_stream t (sb : standby) : string =
  match sb.sb_manifest with
  | None -> Store.err "standby %s holds no committed state" sb.sb_name
  | Some mf ->
      Snapshot.materialize ~ti:t.r_m.Migration.ti
        ~lookup:(fun h ->
          match Hashtbl.find_opt sb.sb_chunks h with
          | Some p -> p
          | None -> Store.err "standby %s lost chunk %s" sb.sb_name (Store.hash_hex h))
        mf

(* ------------------------------------------------------------------ *)
(* Source-side shipping                                                 *)
(* ------------------------------------------------------------------ *)

let lookup_src t h =
  match Hashtbl.find_opt t.r_chunks h with
  | Some payload -> payload
  | None -> Store.err "replica lost chunk %s" (Store.hash_hex h)

(* Snapshot the source at [epoch]; its chunks join the source's union. *)
let snapshot t epoch =
  let mf, chunks, stats =
    Snapshot.collect ~epoch ~proc:t.r_proc ~cache:t.r_cache t.r_src t.r_m.Migration.ti
  in
  Hashtbl.iter (Hashtbl.replace t.r_chunks) chunks;
  (mf, stats)

let tx t bytes =
  let s = Netsim.tx_time t.r_channel bytes in
  t.r_channel.Netsim.bytes_sent <- t.r_channel.Netsim.bytes_sent + bytes;
  t.r_channel.Netsim.messages <- t.r_channel.Netsim.messages + 1;
  t.r_time <- t.r_time +. s;
  s

let publish_lag t sb =
  if Obs.metrics_on () then begin
    let ls = [ ("proc", t.r_proc); ("sub", sb.sb_name) ] in
    Obs.set_gauge "hpm_replica_lag_epochs" ls (float_of_int (lag t sb));
    Obs.set_gauge "hpm_replica_bytes_in_flight" ls
      (float_of_int sb.sb_outbox_bytes)
  end

(* Serve a full resync: the newest committed manifest as a base-less
   delta, encoded from the source's chunk union. *)
let serve_resync t sb epoch =
  match t.r_manifest with
  | None -> ()
  | Some mf ->
      let wire = Store.encode_delta ~lookup:(lookup_src t) mf in
      let ship_s = tx t (String.length wire) in
      if Obs.metrics_on () then begin
        Obs.inc "hpm_replica_deltas_total" [ ("kind", "resync") ];
        Obs.inc "hpm_replica_delta_bytes_total" [] ~by:(float_of_int (String.length wire));
        Obs.observe "hpm_replica_ship_seconds" [ ("sub", sb.sb_name) ] ship_s
      end;
      (match standby_apply sb wire with
      | Applied _ | Duplicate -> ()
      | Resync_required _ ->
          Store.err "standby %s rejected a full resync" sb.sb_name);
      sb.sb_resyncs <- sb.sb_resyncs + 1;
      record t (Ev_resync { er_epoch = epoch; er_sub = sb.sb_name;
                            er_bytes = String.length wire })

(* Deliver one delta wire to a standby, honouring the fault plan.
   Returns [true] when the standby ends the delivery needing a resync
   (which is served immediately). *)
let deliver t sb ~epoch ~kind (wire : string) =
  let ship_s = tx t (String.length wire) in
  if Obs.metrics_on () then begin
    Obs.inc "hpm_replica_deltas_total"
      [ ("kind", match kind with `Full -> "full" | `Delta -> "incr") ];
    Obs.inc "hpm_replica_delta_bytes_total" [] ~by:(float_of_int (String.length wire));
    Obs.observe "hpm_replica_ship_seconds" [ ("sub", sb.sb_name) ] ship_s
  end;
  if Obs.tracing () then
    Obs.instant ~ts:(Obs.now () +. t.r_time) ~cat:"replica"
      ~args:[ ("sub", Obs.Trace.S sb.sb_name); ("epoch", Obs.Trace.I epoch);
              ("bytes", Obs.Trace.I (String.length wire)) ]
      "replica.ship";
  record t (Ev_delta { ed_epoch = epoch; ed_sub = sb.sb_name; ed_kind = kind;
                       ed_bytes = String.length wire });
  if fault_hit t sb.sb_name epoch
       (fun rf -> rf.Netsim.rp_crash_apply)
       (fun rf l -> rf.Netsim.rp_crash_apply <- l)
  then begin
    (* crash-restart mid-apply: volatile standby memory is wiped; no
       manifest was committed, so the next delivery finds a base the
       restarted standby never held and triggers a full resync *)
    Hashtbl.reset sb.sb_chunks;
    Hashtbl.reset sb.sb_seen;
    sb.sb_manifest <- None;
    sb.sb_epoch <- 0;
    record t (Ev_standby_crash { ec_epoch = epoch; ec_sub = sb.sb_name })
  end
  else
    let deliveries =
      if fault_hit t sb.sb_name epoch
           (fun rf -> rf.Netsim.rp_dup)
           (fun rf l -> rf.Netsim.rp_dup <- l)
      then [ wire; wire ]
      else [ wire ]
    in
    List.iter
      (fun w ->
        match standby_apply sb w with
        | Applied _ -> ()
        | Duplicate -> record t (Ev_dup { eu_epoch = epoch; eu_sub = sb.sb_name })
        | Resync_required { rr_have; _ } ->
            record t (Ev_gap { eg_epoch = epoch; eg_sub = sb.sb_name;
                               eg_have = rr_have });
            serve_resync t sb epoch)
      deliveries

(* Ship [wire] (the epoch's delta) to [sb], going through the outbox /
   partition / reorder machinery. *)
let ship t sb ~epoch (wire : string) =
  match sb.sb_state with
  | Sub_degraded | Sub_lost -> ()  (* store-only: nothing crosses the wire *)
  | Sub_live ->
      if partitioned t sb.sb_name epoch then begin
        sb.sb_outbox <- sb.sb_outbox @ [ (epoch, wire) ];
        sb.sb_outbox_bytes <- sb.sb_outbox_bytes + String.length wire;
        record t (Ev_partition { ep_epoch = epoch; ep_sub = sb.sb_name;
                                 ep_queued = List.length sb.sb_outbox });
        if List.length sb.sb_outbox > t.r_config.outbox_limit
           || lag t sb > t.r_config.max_lag
        then begin
          (* backpressure: stop buffering for a subscriber this far
             behind; it degrades to store-only shipping *)
          sb.sb_outbox <- [];
          sb.sb_outbox_bytes <- 0;
          sb.sb_state <- Sub_degraded;
          record t (Ev_degraded { ed2_epoch = epoch; ed2_sub = sb.sb_name })
        end;
        publish_lag t sb
      end
      else begin
        (* partition healed: flush the outbox in order first *)
        if sb.sb_outbox <> [] then begin
          List.iter (fun (e, w) -> deliver t sb ~epoch:e ~kind:`Delta w)
            sb.sb_outbox;
          sb.sb_outbox <- [];
          sb.sb_outbox_bytes <- 0
        end;
        (if fault_hit t sb.sb_name epoch
              (fun rf -> rf.Netsim.rp_drop)
              (fun rf l -> rf.Netsim.rp_drop <- l)
         then
           (* lost in flight: the source paid the transfer, the standby
              saw nothing; the gap surfaces at the next delivery *)
           ignore (tx t (String.length wire) : float)
         else if
           fault_hit t sb.sb_name epoch
             (fun rf -> rf.Netsim.rp_reorder)
             (fun rf l -> rf.Netsim.rp_reorder <- l)
         then sb.sb_held <- Some (epoch, wire)
         else begin
           deliver t sb ~epoch ~kind:(if epoch = 1 then `Full else `Delta) wire;
           match sb.sb_held with
           | Some (e, w) ->
               sb.sb_held <- None;
               deliver t sb ~epoch:e ~kind:`Delta w
           | None -> ()
         end);
        publish_lag t sb
      end

(* One heartbeat round: every live subscriber replies with a validated
   liveness frame; a partition or an injected loss counts as a miss, and
   [miss_limit] consecutive misses declare the standby lost. *)
let heartbeat_round t epoch =
  List.iter
    (fun sb ->
      match sb.sb_state with
      | Sub_lost -> ()
      | Sub_degraded | Sub_live ->
          let lost_reply =
            partitioned t sb.sb_name epoch
            || fault_hit t sb.sb_name epoch
                 (fun rf -> rf.Netsim.rp_lose_heartbeat)
                 (fun rf l -> rf.Netsim.rp_lose_heartbeat <- l)
          in
          ignore (tx t Transport.heartbeat_bytes : float);
          if lost_reply then begin
            sb.sb_hb_misses <- sb.sb_hb_misses + 1;
            if Obs.metrics_on () then
              Obs.inc "hpm_replica_heartbeat_misses_total" [ ("sub", sb.sb_name) ];
            record t (Ev_hb_miss { eh_epoch = epoch; eh_sub = sb.sb_name;
                                   eh_misses = sb.sb_hb_misses });
            if sb.sb_hb_misses >= t.r_config.miss_limit then begin
              sb.sb_state <- Sub_lost;
              record t (Ev_standby_lost { el_epoch = epoch; el_sub = sb.sb_name })
            end
          end
          else begin
            sb.sb_hb_seq <- sb.sb_hb_seq + 1;
            let hb = Transport.encode_heartbeat ~seq:sb.sb_hb_seq ~epoch:sb.sb_epoch in
            (match Transport.decode_heartbeat hb with
            | Ok _ -> ()
            | Error m -> Store.err "heartbeat of %s dead on arrival: %s" sb.sb_name m);
            sb.sb_hb_misses <- 0
          end)
    t.r_standbys

(* Retention pinning: as long as a live subscription may still need them
   (resync bases, catch-up encoding), the chunks of the newest manifest
   and of every standby's current base stay pinned, so a concurrent
   [Store.retain]+[Store.gc] cannot reclaim them from under the
   subscription. *)
let refresh_pins t =
  let fresh =
    List.sort_uniq compare
      (List.concat_map
         (fun mf -> Store.manifest_hashes mf)
         (List.filter_map (fun x -> x)
            (t.r_manifest :: List.map (fun sb -> sb.sb_manifest) t.r_standbys)))
  in
  Store.pin t.r_store fresh;
  Store.unpin t.r_store t.r_pins;
  t.r_pins <- fresh

(* ------------------------------------------------------------------ *)
(* The stream loop                                                      *)
(* ------------------------------------------------------------------ *)

type step =
  | Streamed of int        (** this epoch was committed and shipped *)
  | Source_finished        (** the program completed; the stream is over *)
  | Source_crashed of Netsim.rep_phase
      (** the source died (injected); promote a standby *)

exception Fenced of int
(** Raised by source-side operations after a promotion fenced this
    incarnation (the argument is the current incarnation number). *)

let check_fence t = if t.r_fenced then raise (Fenced t.r_incarnation)

(** Advance the source by [epoch_polls] poll events and ship one stream
    epoch: snapshot dirty blocks, commit the delta to the store (the
    durable point — output is released here), then ship it to every live
    subscriber and run a heartbeat round.
    @raise Fenced after a promotion fenced this incarnation *)
let stream_epoch t : step =
  check_fence t;
  if not t.r_src_alive then Store.err "replica source is down";
  let epoch = t.r_epoch + 1 in
  if crash_source_now t Netsim.Rp_stream epoch then begin
    t.r_src_alive <- false;
    record t (Ev_source_crash { ek_phase = Netsim.Rp_stream; ek_epoch = epoch });
    Source_crashed Netsim.Rp_stream
  end
  else begin
    Interp.request_migration_after t.r_src (t.r_config.epoch_polls - 1);
    match Interp.run t.r_src with
    | Interp.RDone _ -> Source_finished
    | Interp.RFuel -> Store.err "replica source ran out of fuel"
    | Interp.RPolled _ ->
        let ts0 = Obs.now () +. t.r_time in
        if Obs.tracing () then
          Obs.span_b ~ts:ts0 ~cat:"replica"
            ~args:[ ("epoch", Obs.Trace.I epoch); ("proc", Obs.Trace.S t.r_proc) ]
            "replica.epoch";
        let base = t.r_manifest in
        let mf, stats = snapshot t epoch in
        let wire = Store.encode_delta ?base ~stats ~lookup:(lookup_src t) mf in
        Precopy.fold_stats t.r_stats stats;
        (* durable first: the store commit is the release point for both
           the epoch and its output *)
        ignore (Store.apply t.r_store ?expect_base:base wire : Store.manifest);
        Buffer.add_string t.r_output (Interp.output t.r_src);
        Buffer.clear t.r_src.Interp.out;
        t.r_manifest <- Some mf;
        t.r_epoch <- epoch;
        record t (Ev_store { es_epoch = epoch; es_bytes = String.length wire });
        List.iter (fun sb -> ship t sb ~epoch wire) t.r_standbys;
        heartbeat_round t epoch;
        refresh_pins t;
        if Obs.tracing () then
          Obs.span_e ~ts:(Obs.now () +. t.r_time)
            ~args:[ ("wire_bytes", Obs.Trace.I (String.length wire)) ]
            "replica.epoch";
        Streamed epoch
  end

(** Stream up to [epochs] epochs; stops early on completion or crash. *)
let run t ~epochs : step =
  let rec go n last =
    if n = 0 then last
    else
      match stream_epoch t with
      | Streamed _ as s -> go (n - 1) s
      | s -> s
  in
  if epochs < 1 then invalid_arg "Replica.run: epochs must be >= 1";
  go epochs (Streamed t.r_epoch)

(** Exactly-once output view: everything released at durable epochs plus
    whatever the live source has produced since. *)
let output t =
  Buffer.contents t.r_output
  ^ (if t.r_src_alive then Interp.output t.r_src else "")

(** Output released at durable epochs only (what survives a source
    crash). *)
let released_output t = Buffer.contents t.r_output

(* ------------------------------------------------------------------ *)
(* Promotion (failover) and fencing                                     *)
(* ------------------------------------------------------------------ *)

type promotion = {
  pm_sub : string;        (** the standby that became primary *)
  pm_from : int;          (** its own epoch before catch-up *)
  pm_epoch : int;         (** the epoch it resumed at (store newest) *)
  pm_catchup : int;       (** store deltas applied to reach it *)
  pm_incarnation : int;   (** the new incarnation number *)
  pm_interp : Interp.t;   (** the promoted, runnable process *)
}

(** This incarnation's verdict when a crashed source comes back. *)
type recovery = Sole_primary | Recovery_fenced of int

let source_recover t : recovery =
  if t.r_fenced then Recovery_fenced t.r_incarnation else Sole_primary

(* Catch a standby up to the newest store epoch by encoding store-side
   deltas against the base it holds.  Returns how many deltas applied. *)
let catch_up t (sb : standby) : int =
  let applied = ref 0 in
  let epochs =
    List.filter (fun e -> e > sb.sb_epoch)
      (Store.manifest_epochs t.r_store ~proc:t.r_proc)
  in
  List.iter
    (fun e ->
      let mf = Store.load_manifest t.r_store ~proc:t.r_proc ~epoch:e in
      let wire =
        Store.encode_delta ?base:sb.sb_manifest
          ~lookup:(Store.get_chunk t.r_store) mf
      in
      ignore (tx t (String.length wire) : float);
      match standby_apply sb wire with
      | Applied _ -> incr applied
      | Duplicate -> ()
      | Resync_required _ ->
          (* the standby holds a base the store no longer derives from
             (crash-restart): restart it from the newest full state *)
          let full =
            Store.encode_delta ~lookup:(Store.get_chunk t.r_store) mf
          in
          ignore (tx t (String.length full) : float);
          (match standby_apply sb full with
          | Applied _ -> incr applied
          | Duplicate -> ()
          | Resync_required _ ->
              Store.err "standby %s rejected a full catch-up" sb.sb_name))
    epochs;
  !applied

(** Promote the freshest committed standby to primary: catch it up from
    the store to the newest durable epoch, fence the old incarnation
    (a recovering source finds {!Recovery_fenced} and must discard
    itself), and resume the process from the standby's materialized
    state under the {!Hpm_core.Handoff} epoch rule — the resumed stream
    is stamped with the manifest epoch, so an image from any other
    attempt is refused.  @raise Store.Error when no standby holds
    committed state *)
let promote ?sub t : promotion =
  let candidates = List.filter (fun sb -> sb.sb_manifest <> None) t.r_standbys in
  let sb =
    match sub with
    | Some name -> find_standby t name
    | None -> (
        match
          List.fold_left
            (fun best sb ->
              match best with
              | Some b when b.sb_epoch >= sb.sb_epoch -> best
              | _ -> Some sb)
            None candidates
        with
        | Some sb -> sb
        | None -> Store.err "replica: no committed standby to promote")
  in
  if sb.sb_manifest = None then
    Store.err "replica: standby %s holds no committed state" sb.sb_name;
  let from_epoch = sb.sb_epoch in
  let catchup = catch_up t sb in
  (* fence: the old incarnation must never run again *)
  t.r_src_alive <- false;
  t.r_fenced <- true;
  t.r_incarnation <- t.r_incarnation + 1;
  record t (Ev_fenced { ef_incarnation = t.r_incarnation });
  let stream = standby_stream t sb in
  let interp, _rstats =
    Handoff.resume_from_checkpoint t.r_m sb.sb_arch ~epoch:sb.sb_epoch stream
  in
  record t
    (Ev_promoted { ev_sub = sb.sb_name; ev_from = from_epoch;
                   ev_epoch = sb.sb_epoch; ev_catchup = catchup });
  if Obs.metrics_on () then
    Obs.inc "hpm_sched_promotions_total" [ ("proc", t.r_proc) ];
  if Obs.tracing () then
    Obs.instant ~ts:(Obs.now () +. t.r_time) ~cat:"replica"
      ~args:[ ("sub", Obs.Trace.S sb.sb_name);
              ("epoch", Obs.Trace.I sb.sb_epoch) ]
      "replica.promoted";
  {
    pm_sub = sb.sb_name;
    pm_from = from_epoch;
    pm_epoch = sb.sb_epoch;
    pm_catchup = catchup;
    pm_incarnation = t.r_incarnation;
    pm_interp = interp;
  }

(** Re-admit a degraded or lost subscriber: serve a full resync of the
    newest committed state and mark it live again. *)
let rejoin t (sb : standby) : unit =
  serve_resync t sb t.r_epoch;
  sb.sb_hb_misses <- 0;
  sb.sb_state <- Sub_live;
  publish_lag t sb

(* ------------------------------------------------------------------ *)
(* Planned migration: final delta + two-phase handoff                   *)
(* ------------------------------------------------------------------ *)

type migration_outcome =
  | Migrated of Handoff.result
      (** the final round ran under two-phase commit toward the standby *)
  | Finished_before_migration
      (** the source completed while draining; nothing migrated *)
  | Crashed_before_handoff of Netsim.rep_phase
      (** the source died collecting the final delta; promote instead *)

(** Planned migration to [sub]: the source advances one last epoch worth
    of polls, collects {e only} the blocks dirtied since the newest
    stream epoch (no stop-the-world full collect), and hands off under
    two-phase commit with the final delta as the wire payload — the
    standby already holds everything else.  On commit the final manifest
    is also committed to the store, keeping it the newest durable point.
    @raise Fenced after a promotion fenced this incarnation *)
let migrate ?faults t ~(sub : string) : migration_outcome =
  check_fence t;
  if not t.r_src_alive then Store.err "replica source is down";
  let sb = find_standby t sub in
  let final_epoch = t.r_epoch + 1 in
  Interp.request_migration_after t.r_src (t.r_config.epoch_polls - 1);
  match Interp.run t.r_src with
  | Interp.RDone _ -> Finished_before_migration
  | Interp.RFuel -> Store.err "replica source ran out of fuel"
  | Interp.RPolled _ ->
      if crash_source_now t Netsim.Rp_final_delta final_epoch then begin
        t.r_src_alive <- false;
        record t
          (Ev_source_crash { ek_phase = Netsim.Rp_final_delta;
                             ek_epoch = final_epoch });
        Crashed_before_handoff Netsim.Rp_final_delta
      end
      else begin
        (* bring the destination standby fully up to date first, so the
           final delta is coded against the base it actually holds *)
        ignore (catch_up t sb : int);
        let base = t.r_manifest in
        let decode delivered =
          (* idempotent: a destination restarting after commit re-decodes
             its durable image; the duplicate is a no-op and the standby's
             current state materializes to the same bytes *)
          match standby_apply sb delivered with
          | Applied _ | Duplicate -> Ok (standby_stream t sb)
          | Resync_required { rr_base; _ } ->
              Error (Printf.sprintf "final delta against unknown base %s" rr_base)
          | exception Store.Corrupt m -> Error m
        in
        if Obs.on () then Obs.set_now (Obs.now () +. t.r_time);
        let hres, mf, _, wire =
          Precopy.final_handoff ~config:t.r_config.handoff ?faults ~channel:t.r_channel
            ~snapshot:(snapshot t) ~lookup:(lookup_src t) ?base ~stats:t.r_stats ~decode
            ~epoch:final_epoch t.r_m t.r_src sb.sb_arch
        in
        (match hres.Handoff.outcome with
        | Handoff.Committed _ ->
            (* the destination owns the process; make the final epoch the
               store's newest durable point and release its output *)
            ignore (Store.apply t.r_store ?expect_base:base wire : Store.manifest);
            Buffer.add_string t.r_output (Interp.output t.r_src);
            Buffer.clear t.r_src.Interp.out;
            t.r_manifest <- Some mf;
            t.r_epoch <- final_epoch;
            t.r_src_alive <- false;
            record t (Ev_store { es_epoch = final_epoch;
                                 es_bytes = String.length wire });
            refresh_pins t
        | _ -> ());
        Migrated hres
      end

(** Release every retention pin this replica holds (end of session). *)
let close t =
  Store.unpin t.r_store t.r_pins;
  t.r_pins <- []
