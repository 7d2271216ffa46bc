(** Crash-consistent two-phase migration handoff.

    Every migration that crosses a (simulated) network runs here.  It is
    {!Migration.migrate}'s collect → restore pipeline with the chunked
    transport ({!Hpm_net.Transport}) in between, which survives a bad
    {e link}, run as an explicit five-phase commit protocol, which
    survives a crash of either {e endpoint}: at every instant exactly
    one durable copy of the process is authoritative:

    {v
              source                          destination
      COLLECT  persist checkpoint (epoch e)
      TRANSFER chunked transport  ─────────▶  persist delivered image
      RESTORE                                 rebuild + MSR verify (Verify)
      COMMIT                     ◀─ ack ───   record "committed e" durably
      RELEASE  discard checkpoint, terminate source copy
    v}

    The source keeps its process suspended-but-recoverable (and its
    checkpoint durable) until the COMMIT ack for epoch [e] arrives; the
    destination runs nothing until it has durably recorded the commit.
    Every migration attempt carries a fresh {e epoch} (incarnation
    number), stamped into the stream header, and crash recovery reduces
    to one question answerable from durable state alone: {e "destination,
    what is your committed epoch?"}

    - source crash before COMMIT: the restarted source probes, hears
      "nothing committed", and resumes from its retained checkpoint;
    - source crash after the destination committed (including the
      ambiguous lost-ack case): the probe hears "committed e", so the
      source discards its checkpoint — the process already runs at the
      destination, never twice;
    - destination crash before COMMIT: the source's deadline watchdog
      fires, the probe hears "nothing committed", the epoch is aborted
      and the retained checkpoint re-queued to another node;
    - destination crash after COMMIT: the restarted destination rebuilds
      the process from its own durable image and answers probes, so the
      source still releases.

    Crash points and message drops come from {!Hpm_net.Netsim.node_faults}
    (crash-restart semantics: memory wiped, durable store intact).  All
    timing is simulated; waits are charged against the watchdog deadline.
    If every probe reply is lost the protocol {e blocks} (classic 2PC):
    the outcome is [Stalled] with the checkpoint retained — conservative,
    because re-queuing while the destination's state is unknown could run
    the process twice. *)

open Hpm_machine
open Hpm_net
module Obs = Hpm_obs.Obs

(* Re-export so callers can name phases without reaching into Hpm_net. *)
type phase = Netsim.protocol_phase =
  | Ph_collect
  | Ph_transfer
  | Ph_restore
  | Ph_commit
  | Ph_release

type config = {
  transport : Transport.config;
  ack_deadline_s : float;
      (** watchdog: simulated seconds the source waits for the COMMIT ack
          (and for each probe reply) before assuming it lost *)
  probe_retries : int;   (** epoch probes after a watchdog timeout *)
  restart_delay_s : float;  (** simulated reboot time of a crashed node *)
}

let default_config =
  {
    transport = Transport.default_config;
    ack_deadline_s = 0.5;
    probe_retries = 3;
    restart_delay_s = 0.25;
  }

(* Control messages on the wire: COMMIT ack and epoch probe/reply. *)
let ack_bytes = 16
let probe_bytes = 12

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type committed = {
  c_dst : Interp.t;          (** the (sole) live copy, on the destination *)
  c_epoch : int;
  c_stream_bytes : int;
  c_cstats : Cstats.collect;
  c_rstats : Cstats.restore;
  c_tstats : Transport.stats;
  c_verify : Verify.report;
  c_ack_recovered : bool;    (** COMMIT ack was lost; resolved by epoch probe *)
  c_dest_restarted : bool;   (** dest crashed post-commit, rebuilt from its image *)
  c_src_crashed : bool;      (** source crashed mid-protocol; probe found the commit *)
  c_time_s : float;          (** simulated protocol time, waits included *)
}

type source_recovered = {
  r_interp : Interp.t;   (** rebuilt from the retained checkpoint, source arch *)
  r_crash_phase : phase;
  r_epoch : int;
  r_cstats : Cstats.collect;
  r_time_s : float;
}

type requeue = {
  q_ckpt : string;       (** retained durable checkpoint (stream wire format) *)
  q_epoch : int;         (** the aborted epoch, stamped in [q_ckpt]'s header *)
  q_reason : string;
  q_cstats : Cstats.collect;
  q_time_s : float;
}

type link_failure = {
  l_seq : int;           (** chunk that exhausted its retries *)
  l_attempts : int;
  l_reason : string;
  l_stats : Transport.stats;
  l_time_s : float;
}

type outcome =
  | Committed of committed
      (** destination owns the process; source released *)
  | Source_recovered of source_recovered
      (** source crashed pre-commit, restarted, resumed from its checkpoint *)
  | Abort_requeue of requeue
      (** destination died pre-commit (or its image failed verification):
          epoch aborted, checkpoint retained for re-queuing elsewhere *)
  | Link_failed of link_failure
      (** transport gave up; the still-suspended source process resumes *)
  | Stalled of { s_ckpt : string; s_epoch : int; s_time_s : float }
      (** destination state unknowable (every probe lost): block, keeping
          the checkpoint — never guess and risk running twice *)

type step = { s_phase : phase; s_actor : string; s_note : string; s_at : float }

type result = { outcome : outcome; trace : step list }

let outcome_name = function
  | Committed _ -> "committed"
  | Source_recovered _ -> "source-recovered"
  | Abort_requeue _ -> "abort-requeue"
  | Link_failed _ -> "link-failed"
  | Stalled _ -> "stalled"

let pp_step ppf s =
  Fmt.pf ppf "[%8.4fs] %-8s %-4s %s" s.s_at (Netsim.phase_name s.s_phase) s.s_actor
    s.s_note

let pp_trace ppf tr = List.iter (fun s -> Fmt.pf ppf "%a@." pp_step s) tr

let pp_outcome ppf = function
  | Committed c ->
      Fmt.pf ppf
        "committed: epoch %d on %s in %.4f s (%d stream bytes%s%s%s); %a" c.c_epoch
        c.c_dst.Interp.arch.Hpm_arch.Arch.name c.c_time_s c.c_stream_bytes
        (if c.c_ack_recovered then ", ack lost+probed" else "")
        (if c.c_dest_restarted then ", dest restarted" else "")
        (if c.c_src_crashed then ", source crashed" else "")
        Verify.pp_report c.c_verify
  | Source_recovered r ->
      Fmt.pf ppf "source recovered: crash after %s, resumed from checkpoint (epoch %d) in %.4f s"
        (Netsim.phase_name r.r_crash_phase) r.r_epoch r.r_time_s
  | Abort_requeue q ->
      Fmt.pf ppf "epoch %d aborted in %.4f s (%s); checkpoint retained for re-queue"
        q.q_epoch q.q_time_s q.q_reason
  | Link_failed l ->
      Fmt.pf ppf "link failed at chunk #%d after %d attempts (%s); source resumes locally"
        l.l_seq l.l_attempts l.l_reason
  | Stalled s ->
      Fmt.pf ppf "stalled after %.4f s: destination unreachable, epoch %d unresolved; checkpoint retained"
        s.s_time_s s.s_epoch

(* ------------------------------------------------------------------ *)
(* The state machine                                                   *)
(* ------------------------------------------------------------------ *)

(* Durable per-endpoint state: what survives a crash-restart.  The
   in-memory interpreter does not; these records do. *)
type durable = {
  mutable src_ckpt : (int * string) option;     (* epoch, checkpoint image *)
  mutable dst_image : (int * string) option;    (* epoch, delivered stream *)
  mutable dst_committed : int option;           (* highest committed epoch *)
}

exception Error of string

(** Run one handoff attempt for [epoch], migrating [src] (suspended at a
    poll-point) to a fresh process on [dst_arch].  Node faults come from
    [faults] or, failing that, the channel's installed plan.  [tamper] is
    a test hook that corrupts the restored image before verification.

    Delta-transfer hooks (used by [Hpm_store.Precopy.final_handoff], the
    final round of pre-copy and of a planned replica migration):
    [collect_fn] replaces the phase-1 collection, returning the full
    stream that serves as the durable checkpoint; [encode] maps that stream to what actually
    crosses the wire (e.g. a v3 delta against state the destination
    already holds); [decode] inverts it at the destination — it must be
    idempotent, since a destination restarting after commit decodes its
    durable image a second time.  A decode failure NAKs the epoch exactly
    like a corrupt stream.
    @raise Invalid_argument on a non-positive deadline, negative retries
    or a negative epoch. *)
let execute ?(config = default_config) ?faults ?tamper ?collect_fn
    ?(encode = fun s -> s) ?(decode = fun s -> Ok s) ~(channel : Netsim.t)
    ~(epoch : int) (m : Migration.migratable) (src : Interp.t)
    (dst_arch : Hpm_arch.Arch.t) : result =
  if config.ack_deadline_s <= 0.0 then
    invalid_arg "Handoff.execute: ack_deadline_s must be positive";
  if config.probe_retries < 0 then invalid_arg "Handoff.execute: probe_retries < 0";
  if config.restart_delay_s < 0.0 then invalid_arg "Handoff.execute: restart_delay_s < 0";
  if epoch < 0 then invalid_arg "Handoff.execute: negative epoch";
  let faults = match faults with Some _ as f -> f | None -> channel.Netsim.node_faults in
  let time = ref 0.0 in
  (* Observability.  The protocol clock [time] only advances on network
     transfers and waits; spans additionally charge the modelled CPU
     costs of {!Obs.Model} into [cpu], so the trace timeline is
     [t0 + !time + !cpu] with [t0] the ambient simulated start time.
     [cpu] never feeds back into [time] or any [*_time_s] result — the
     protocol outcome is byte-identical with or without a sink. *)
  let t0 = Obs.now () in
  let cpu = ref 0.0 in
  let ts () = t0 +. !time +. !cpu in
  (* Open-span stack: [finish] is the single exit point, so whatever is
     still open there (crash/abort paths) is closed then, keeping every
     exported trace's B/E events balanced. *)
  let open_spans = ref [] in
  let span_b ?args name =
    if Obs.tracing () then begin
      open_spans := name :: !open_spans;
      Obs.span_b ~ts:(ts ()) ?args ~cat:"handoff" name
    end
  in
  let span_e ?args name =
    if Obs.tracing () then
      match !open_spans with
      | top :: rest when String.equal top name ->
          open_spans := rest;
          Obs.span_e ~ts:(ts ()) ?args name
      | _ -> ()
  in
  let prev_labels = Obs.labels () in
  if Obs.on () then
    Obs.set_labels
      (("arch_pair",
        src.Interp.arch.Hpm_arch.Arch.name ^ "->" ^ dst_arch.Hpm_arch.Arch.name)
      :: ("epoch", string_of_int epoch)
      :: prev_labels);
  span_b "migration"
    ~args:
      [
        ("epoch", Obs.Trace.I epoch);
        ("src_arch", Obs.Trace.S src.Interp.arch.Hpm_arch.Arch.name);
        ("dst_arch", Obs.Trace.S dst_arch.Hpm_arch.Arch.name);
      ];
  let trace = ref [] in
  let step phase actor fmt =
    Fmt.kstr
      (fun note ->
        trace := { s_phase = phase; s_actor = actor; s_note = note; s_at = !time } :: !trace;
        if Obs.tracing () then
          Obs.instant ~ts:(ts ()) ~cat:"handoff.step"
            ~args:
              [
                ("phase", Obs.Trace.S (Netsim.phase_name phase));
                ("actor", Obs.Trace.S actor);
              ]
            note)
      fmt
  in
  let finish outcome =
    if Obs.tracing () then begin
      List.iter
        (fun n ->
          if String.equal n "migration" then
            Obs.span_e ~ts:(ts ())
              ~args:[ ("outcome", Obs.Trace.S (outcome_name outcome)) ]
              n
          else Obs.span_e ~ts:(ts ()) n)
        !open_spans;
      open_spans := []
    end;
    if Obs.metrics_on () then begin
      Obs.inc "hpm_handoff_outcomes_total" [ ("outcome", outcome_name outcome) ];
      Obs.observe "hpm_handoff_time_seconds" [] !time
    end;
    if Obs.on () then begin
      Obs.set_now (ts ());
      Obs.set_labels prev_labels
    end;
    { outcome; trace = List.rev !trace }
  in
  (* one-shot crash hooks: consumed when they fire, so the restarted node
     does not crash again during recovery *)
  let crash who phase =
    match faults with
    | None -> false
    | Some f -> (
        match who with
        | `Src when f.Netsim.crash_source_after = Some phase ->
            f.Netsim.crash_source_after <- None;
            true
        | `Dst when f.Netsim.crash_dest_after = Some phase ->
            f.Netsim.crash_dest_after <- None;
            true
        | _ -> false)
  in
  let drop_ack () =
    match faults with
    | Some f when f.Netsim.drop_commit_acks > 0 ->
        f.Netsim.drop_commit_acks <- f.Netsim.drop_commit_acks - 1;
        true
    | _ -> false
  in
  let drop_probe () =
    match faults with
    | Some f when f.Netsim.drop_probe_replies > 0 ->
        f.Netsim.drop_probe_replies <- f.Netsim.drop_probe_replies - 1;
        true
    | _ -> false
  in
  let durable = { src_ckpt = None; dst_image = None; dst_committed = None } in

  (* Ask the destination's durable store for its committed epoch.  Each
     round costs a request + reply transfer, or a full watchdog deadline
     when the reply is dropped.  [`Committed] / [`None] / [`No_reply]. *)
  let probe_dest ~actor =
    let rec go k =
      if k > config.probe_retries then (
        step Ph_commit actor "epoch probe: no reply after %d attempts" (k);
        `No_reply)
      else (
        time := !time +. Netsim.tx_time channel probe_bytes;
        if drop_probe () then (
          time := !time +. config.ack_deadline_s;
          step Ph_commit actor "epoch probe #%d reply lost (waited %.3fs)" k
            config.ack_deadline_s;
          go (k + 1))
        else (
          time := !time +. Netsim.tx_time channel probe_bytes;
          match durable.dst_committed with
          | Some e when e = epoch ->
              step Ph_commit actor "epoch probe #%d: destination committed epoch %d" k e;
              `Committed
          | e ->
              step Ph_commit actor "epoch probe #%d: destination committed %s" k
                (match e with None -> "nothing" | Some e -> string_of_int e);
              `None))
    in
    go 0
  in

  (* Source crash recovery: reboot, probe, then either concede to the
     destination's commit or rebuild from the retained checkpoint. *)
  let recover_source ~crash_phase ~committed_dst ~cstats ~ckpt ~tstats_opt =
    time := !time +. config.restart_delay_s;
    step crash_phase "src" "restarted (%.3fs); probing destination before resuming"
      config.restart_delay_s;
    match probe_dest ~actor:"src" with
    | `Committed -> (
        match committed_dst with
        | Some (dst, rstats, tstats, verify, dest_restarted, ack_recovered) ->
            durable.src_ckpt <- None;
            step Ph_release "src" "checkpoint discarded: process lives at destination";
            finish
              (Committed
                 {
                   c_dst = dst;
                   c_epoch = epoch;
                   c_stream_bytes = String.length ckpt;
                   c_cstats = cstats;
                   c_rstats = rstats;
                   c_tstats = tstats;
                   c_verify = verify;
                   c_ack_recovered = ack_recovered;
                   c_dest_restarted = dest_restarted;
                   c_src_crashed = true;
                   c_time_s = !time;
                 })
        | None ->
            (* durable store says committed but we hold no interpreter:
               cannot happen — commits are recorded only with a live or
               restartable image in hand *)
            raise (Error "committed epoch without a destination image"))
    | `None ->
        let interp, _ =
          Restore.restore ~expect_epoch:epoch m.Migration.prog
            src.Interp.arch m.Migration.ti ckpt
        in
        step Ph_release "src" "resumed from retained checkpoint on %s"
          src.Interp.arch.Hpm_arch.Arch.name;
        ignore tstats_opt;
        finish
          (Source_recovered
             {
               r_interp = interp;
               r_crash_phase = crash_phase;
               r_epoch = epoch;
               r_cstats = cstats;
               r_time_s = !time;
             })
    | `No_reply ->
        finish (Stalled { s_ckpt = ckpt; s_epoch = epoch; s_time_s = !time })
  in

  (* Destination died pre-commit while the source is alive: watchdog
     deadline, confirm via probe, abort the epoch, hand back the ckpt. *)
  let watchdog_abort ~reason ~cstats ~ckpt =
    time := !time +. config.ack_deadline_s;
    step Ph_commit "src" "watchdog: no COMMIT ack within %.3fs" config.ack_deadline_s;
    match probe_dest ~actor:"src" with
    | `None ->
        step Ph_commit "src" "epoch %d aborted (%s)" epoch reason;
        finish
          (Abort_requeue
             { q_ckpt = ckpt; q_epoch = epoch; q_reason = reason; q_cstats = cstats;
               q_time_s = !time })
    | `Committed ->
        (* a pre-commit dest crash cannot have committed; defensive *)
        raise (Error "aborting an epoch the destination committed")
    | `No_reply ->
        finish (Stalled { s_ckpt = ckpt; s_epoch = epoch; s_time_s = !time })
  in

  (* ---------------- Phase 1: COLLECT ---------------- *)
  span_b "collect";
  let ckpt, cstats =
    match collect_fn with
    | Some f -> f ()
    | None -> Collect.collect ~epoch src m.Migration.ti
  in
  cpu :=
    !cpu
    +. Obs.Model.collect_s ~searches:cstats.Cstats.c_searches
         ~blocks:cstats.Cstats.c_blocks ~bytes:cstats.Cstats.c_data_bytes;
  span_e "collect"
    ~args:
      [
        ("blocks", Obs.Trace.I cstats.Cstats.c_blocks);
        ("searches", Obs.Trace.I cstats.Cstats.c_searches);
        ("stream_bytes", Obs.Trace.I cstats.Cstats.c_stream_bytes);
      ];
  durable.src_ckpt <- Some (epoch, ckpt);
  step Ph_collect "src" "checkpoint persisted: %d bytes, epoch %d" (String.length ckpt)
    epoch;
  if crash `Src Ph_collect then (
    step Ph_collect "src" "CRASH after collect (process memory lost)";
    recover_source ~crash_phase:Ph_collect ~committed_dst:None ~cstats ~ckpt
      ~tstats_opt:None)
  else
    (* ---------------- Phase 2: TRANSFER ---------------- *)
    match
      span_b "encode";
      let wire = encode ckpt in
      cpu := !cpu +. Obs.Model.encode_s ~bytes:(String.length wire);
      span_e "encode" ~args:[ ("wire_bytes", Obs.Trace.I (String.length wire)) ];
      span_b "transfer";
      Transport.transfer ~config:config.transport ~ts0:(ts ()) channel wire
    with
    | Transport.Aborted { failed_seq; attempts; reason; stats } ->
        time := !time +. stats.Transport.t_time_s;
        span_e "transfer" ~args:[ ("aborted_at_chunk", Obs.Trace.I failed_seq) ];
        step Ph_transfer "src" "transport aborted at chunk #%d (%s); epoch %d aborted"
          failed_seq reason epoch;
        finish
          (Link_failed
             { l_seq = failed_seq; l_attempts = attempts; l_reason = reason;
               l_stats = stats; l_time_s = !time })
    | Transport.Delivered (delivered, tstats) -> (
        time := !time +. tstats.Transport.t_time_s;
        span_e "transfer"
          ~args:
            [
              ("chunks", Obs.Trace.I tstats.Transport.t_chunks);
              ("retries", Obs.Trace.I tstats.Transport.t_retries);
              ("wire_bytes", Obs.Trace.I tstats.Transport.t_wire_bytes);
            ];
        durable.dst_image <- Some (epoch, delivered);
        step Ph_transfer "dst" "image persisted: %d chunks, %d retries, %.4fs"
          tstats.Transport.t_chunks tstats.Transport.t_retries
          tstats.Transport.t_time_s;
        let src_dead = crash `Src Ph_transfer in
        if src_dead then step Ph_transfer "src" "CRASH after transfer";
        if crash `Dst Ph_transfer then (
          step Ph_transfer "dst" "CRASH holding an uncommitted image (discarded on restart)";
          time := !time +. config.restart_delay_s;
          if src_dead then
            recover_source ~crash_phase:Ph_transfer ~committed_dst:None ~cstats ~ckpt
              ~tstats_opt:(Some tstats)
          else watchdog_abort ~reason:"destination crashed after transfer" ~cstats ~ckpt)
        else
          (* ---------------- Phase 3: RESTORE + verify ---------------- *)
          let restored =
            match
              match decode delivered with
              | Ok plain ->
                  Restore.restore ~expect_epoch:epoch m.Migration.prog dst_arch
                    m.Migration.ti plain
              | Error reason ->
                  raise (Restore.Error (Printf.sprintf "delta decode failed: %s" reason))
            with
            | dst, rstats -> (
                (match tamper with Some f -> f dst | None -> ());
                match Verify.check_result dst m.Migration.ti with
                | Ok verify -> Ok (dst, rstats, verify)
                | Error msg -> Error (Printf.sprintf "MSR verification failed: %s" msg))
            | exception Restore.Error msg ->
                Error (Printf.sprintf "restore failed: %s" msg)
            | exception Stream.Corrupt msg ->
                Error (Printf.sprintf "corrupt stream: %s" msg)
            | exception Hpm_xdr.Xdr.Underflow msg ->
                Error (Printf.sprintf "truncated stream: %s" msg)
          in
          match restored with
          | Error reason ->
              (* the [restored] computation never advances [time], so
                 opening the span here, after the fact, lands its B event
                 at the exact simulated instant restoration started *)
              span_b "restore";
              cpu := !cpu +. Obs.Model.decode_s ~bytes:(String.length delivered);
              span_e "restore" ~args:[ ("error", Obs.Trace.S reason) ];
              (* the destination refuses to commit and NAKs the epoch *)
              step Ph_restore "dst" "%s; NAK epoch %d" reason epoch;
              time := !time +. Netsim.tx_time channel ack_bytes;
              if src_dead then
                recover_source ~crash_phase:Ph_transfer ~committed_dst:None ~cstats
                  ~ckpt ~tstats_opt:(Some tstats)
              else (
                step Ph_restore "src" "NAK received; epoch %d aborted" epoch;
                finish
                  (Abort_requeue
                     { q_ckpt = ckpt; q_epoch = epoch; q_reason = reason;
                       q_cstats = cstats; q_time_s = !time }))
          | Ok (dst, rstats, verify) -> (
              span_b "restore";
              cpu :=
                !cpu
                +. Obs.Model.decode_s ~bytes:(String.length delivered)
                +. Obs.Model.restore_s ~updates:rstats.Cstats.r_updates
                     ~blocks:rstats.Cstats.r_blocks ~bytes:rstats.Cstats.r_data_bytes;
              span_e "restore"
                ~args:
                  [
                    ("blocks", Obs.Trace.I rstats.Cstats.r_blocks);
                    ("updates", Obs.Trace.I rstats.Cstats.r_updates);
                    ("heap_allocs", Obs.Trace.I rstats.Cstats.r_heap_allocs);
                  ];
              span_b "verify";
              cpu :=
                !cpu
                +. Obs.Model.verify_s ~blocks:verify.Verify.v_blocks
                     ~pointers:verify.Verify.v_pointers;
              span_e "verify"
                ~args:
                  [
                    ("blocks", Obs.Trace.I verify.Verify.v_blocks);
                    ("pointers", Obs.Trace.I verify.Verify.v_pointers);
                    ("edges", Obs.Trace.I verify.Verify.v_edges);
                  ];
              step Ph_restore "dst" "restored and verified: %a" Verify.pp_report verify;
              if crash `Dst Ph_restore then (
                step Ph_restore "dst" "CRASH before commit (restored image discarded)";
                time := !time +. config.restart_delay_s;
                if src_dead then
                  recover_source ~crash_phase:Ph_transfer ~committed_dst:None ~cstats
                    ~ckpt ~tstats_opt:(Some tstats)
                else
                  watchdog_abort ~reason:"destination crashed after restore" ~cstats
                    ~ckpt)
              else (
                (* ---------------- Phase 4: COMMIT ---------------- *)
                span_b "commit";
                durable.dst_committed <- Some epoch;
                step Ph_commit "dst" "commit recorded durably (epoch %d); sending ack"
                  epoch;
                let dst, dest_restarted =
                  if crash `Dst Ph_commit then (
                    step Ph_commit "dst" "CRASH after commit; restarting from durable image";
                    time := !time +. config.restart_delay_s;
                    let plain =
                      (* committed, so the image decoded once already;
                         decode is idempotent by contract *)
                      match decode delivered with
                      | Ok s -> s
                      | Error reason ->
                          raise (Error ("delta decode failed on restart: " ^ reason))
                    in
                    let rebuilt, _ =
                      Restore.restore ~expect_epoch:epoch m.Migration.prog dst_arch
                        m.Migration.ti plain
                    in
                    (rebuilt, true))
                  else (dst, false)
                in
                let committed ~ack_recovered =
                  Some (dst, rstats, tstats, verify, dest_restarted, ack_recovered)
                in
                let ack_lost = drop_ack () in
                if src_dead then (
                  if not ack_lost then
                    step Ph_commit "dst" "ack sent, but the source is down";
                  recover_source ~crash_phase:Ph_transfer
                    ~committed_dst:(committed ~ack_recovered:ack_lost) ~cstats ~ckpt
                    ~tstats_opt:(Some tstats))
                else if ack_lost then (
                  step Ph_commit "dst" "COMMIT ack lost in flight";
                  time := !time +. config.ack_deadline_s;
                  step Ph_commit "src" "watchdog: no COMMIT ack within %.3fs"
                    config.ack_deadline_s;
                  match probe_dest ~actor:"src" with
                  | `Committed ->
                      (* the lost-ack ambiguity, resolved idempotently *)
                      if crash `Src Ph_commit then (
                        step Ph_commit "src" "CRASH after learning of the commit";
                        recover_source ~crash_phase:Ph_commit
                          ~committed_dst:(committed ~ack_recovered:true) ~cstats ~ckpt
                          ~tstats_opt:(Some tstats))
                      else (
                        durable.src_ckpt <- None;
                        step Ph_release "src" "released (probe confirmed commit)";
                        ignore (crash `Src Ph_release);
                        finish
                          (Committed
                             {
                               c_dst = dst;
                               c_epoch = epoch;
                               c_stream_bytes = String.length ckpt;
                               c_cstats = cstats;
                               c_rstats = rstats;
                               c_tstats = tstats;
                               c_verify = verify;
                               c_ack_recovered = true;
                               c_dest_restarted = dest_restarted;
                               c_src_crashed = false;
                               c_time_s = !time;
                             }))
                  | `None -> raise (Error "probe denies an epoch the destination committed")
                  | `No_reply ->
                      finish (Stalled { s_ckpt = ckpt; s_epoch = epoch; s_time_s = !time }))
                else (
                  time := !time +. Netsim.tx_time channel ack_bytes;
                  step Ph_commit "src" "COMMIT ack received (epoch %d)" epoch;
                  if crash `Src Ph_commit then (
                    step Ph_commit "src" "CRASH before releasing";
                    recover_source ~crash_phase:Ph_commit
                      ~committed_dst:(committed ~ack_recovered:false) ~cstats ~ckpt
                      ~tstats_opt:(Some tstats))
                  else (
                    (* ---------------- Phase 5: RELEASE ---------------- *)
                    durable.src_ckpt <- None;
                    step Ph_release "src" "released: checkpoint discarded, source copy terminates";
                    if crash `Src Ph_release then
                      step Ph_release "src"
                        "CRASH after release (harmless: process lives at destination)";
                    finish
                      (Committed
                         {
                           c_dst = dst;
                           c_epoch = epoch;
                           c_stream_bytes = String.length ckpt;
                           c_cstats = cstats;
                           c_rstats = rstats;
                           c_tstats = tstats;
                           c_verify = verify;
                           c_ack_recovered = false;
                           c_dest_restarted = dest_restarted;
                           c_src_crashed = false;
                           c_time_s = !time;
                         }))))))

(** Rebuild a process from a checkpoint retained by an aborted handoff
    ([Abort_requeue]/[Stalled]), on any architecture — the re-queue path.
    The epoch check refuses images from a different attempt. *)
let resume_from_checkpoint (m : Migration.migratable) (arch : Hpm_arch.Arch.t)
    ~(epoch : int) (ckpt : string) : Interp.t * Cstats.restore =
  Restore.restore ~expect_epoch:epoch m.Migration.prog arch m.Migration.ti ckpt

(** The single copy that continues after [res], with [src] the suspended
    source passed to {!execute}: the destination copy on commit, the
    rebuilt source after a source crash, the retained checkpoint resumed
    on the source's architecture after an abort or a stall, and [src]
    itself (its migration request cleared) after a link failure.  The
    survivor's output buffer starts at the handoff: [src]'s is emptied in
    the last case, as a restored copy's is empty, so the run's output is
    always [Interp.output src] taken before this call followed by the
    survivor's. *)
let survivor (m : Migration.migratable) (src : Interp.t) (res : result) : Interp.t =
  match res.outcome with
  | Committed c -> c.c_dst
  | Source_recovered r -> r.r_interp
  | Abort_requeue { q_ckpt = ckpt; q_epoch = epoch; _ }
  | Stalled { s_ckpt = ckpt; s_epoch = epoch; _ } ->
      fst (resume_from_checkpoint m src.Interp.arch ~epoch ckpt)
  | Link_failed _ ->
      Interp.clear_migration_request src;
      Buffer.clear src.Interp.out;
      src
