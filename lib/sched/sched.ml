(** The distributed process-migration environment of §2.

    The paper models "a distributed environment [with] a scheduler which
    performs process management and sends a migration request to a
    process"; migration then proceeds by remote invocation — the waiting
    destination process is started, the migrating process collects and
    transmits its state, terminates, and the new process resumes.  The
    paper leaves the scheduler itself as future work; this module provides
    the environment simulation plus two concrete policies (explicit
    placement commands and a simple load balancer), which is what the
    load-balancing example and the scheduler tests exercise.

    Migrations run through {!Hpm_core.Handoff}'s crash-consistent
    two-phase protocol, so the scheduler also owns the recovery actions
    the protocol can demand of "process management":

    - [Source_recovered]: the source node crashed pre-commit and came
      back; the process resumes there from its retained checkpoint;
    - [Abort_requeue]: the destination died before committing; the
      retained checkpoint is re-queued to the least-loaded other node
      (or, in a two-node cluster, the source simply resumes);
    - [Stalled]: the destination's fate is unknowable (every probe reply
      lost); the scheduler resumes the source copy from the checkpoint —
      a stand-in for the operator intervention classic 2PC blocking
      requires, safe here because a destination that never heard a
      RELEASE keeps its copy suspended forever;
    - [Link_failed]: the transport gave up; the still-live source process
      keeps running where it is (§2's migrating process must never be
      lost to a bad link).

    In every case the process runs exactly once and loses no output.

    Simulation model: discrete ticks of [quantum_s] simulated seconds.  A
    node executes [speed × 1e6 × quantum_s] IR instructions per runnable
    process per tick (its [Arch.speed] making fast and slow machines
    real).  A migration requested by the scheduler is noticed at the
    process's next poll-point; the handoff then occupies the network for
    its simulated protocol time (transfers, watchdog waits, reboots) and
    the process stays blocked until that completes. *)

open Hpm_arch
open Hpm_machine
open Hpm_core
open Hpm_net
open Hpm_store

type node = {
  n_name : string;
  n_arch : Arch.t;
  n_site : string;             (** locality tag for {!Policy.locality}; [""] = untagged *)
  mutable n_procs : int;       (** runnable processes currently placed here *)
  mutable n_instrs : int;      (** total instructions executed here *)
}

let node ?(site = "") name arch =
  { n_name = name; n_arch = arch; n_site = site; n_procs = 0; n_instrs = 0 }

type proc_state =
  | Runnable
  | Blocked_until of float     (** migrating: in flight until this time *)
  | Finished of Mem.value option

type proc = {
  p_id : int;
  p_name : string;
  p_m : Migration.migratable;
  mutable p_interp : Interp.t;
  mutable p_node : node;
  mutable p_state : proc_state;
  mutable p_pending_dst : node option;  (** where the scheduler wants it *)
  mutable p_epoch : int;                (** next handoff incarnation number *)
  mutable p_migrations : int;
  mutable p_failed_migrations : int;    (** epochs aborted (link or node faults) *)
  mutable p_recoveries : int;           (** resumes from a retained checkpoint *)
  mutable p_bytes_collected : int;      (** Σ Dᵢ collected across migrations *)
  mutable p_bytes_restored : int;       (** Σ Dᵢ restored across migrations *)
  mutable p_finish_time : float option;
  mutable p_output : Buffer.t;          (** output accumulated across hosts *)
  mutable p_cache : Snapshot.cache;     (** incremental-snapshot cache, per interpreter *)
  mutable p_next_ckpt : float;          (** next periodic checkpoint is due at this time *)
  mutable p_ckpt_pending : bool;        (** a checkpoint suspension has been requested *)
  mutable p_ckpt_epoch : int;           (** next store-manifest epoch for this process *)
  mutable p_group : string;             (** gang-migration group; [""] = ungrouped *)
  mutable p_last_move_s : float;
      (** when the scheduler last asked this process to move
          ([neg_infinity] = never) — the anti-flap hysteresis input *)
}

(* Store manifests restrict process names to [A-Za-z0-9_-]. *)
let store_name (p : proc) =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c | _ -> '_')
    p.p_name

(* One simulation tick, in simulated seconds. *)
let quantum_s = 0.01

(* Instructions per simulated second at speed 1.0. *)
let base_ips = 1e6

type t = {
  nodes : node list;
  by_name : (string, node) Hashtbl.t;
      (** name → node; {!node_named} used to scan [nodes] linearly *)
  channel : Netsim.t;
  handoff : Handoff.config;
  compat : (Migration.migratable -> src:Arch.t -> dst:Arch.t -> bool) option;
      (** placement gate: when set, {!request_migration} refuses pairs
          the predicate rejects (see {!Hpm_core.Compat.ok}) *)
  store : Store.t option;      (** shared checkpoint store (cluster storage) *)
  ckpt_every_s : float option; (** periodic background checkpoint interval *)
  precopy : Precopy.config option;
      (** when set (and a store is), migrations run as iterative pre-copy *)
  procs : proc Vec.t;          (** spawn order *)
  mutable now : float;
  mutable next_pid : int;
  events : Journal.entry Vec.t;
      (** the event log, oldest first: the same records the journal
          holds, so {!events} and [Journal.load] agree entry for entry *)
  timers : action Eheap.t;
      (** the global event heap: actions {!at} scheduled against the
          simulated clock, fired by {!run} in (time, seq) order *)
  journal : Journal.t option;  (** durable fleet journal (HPMJ, docs/FORMAT.md) *)
}

and action = t -> unit

let create ?(transport = Transport.default_config) ?store ?ckpt_every_s ?precopy
    ?compat ?journal ~channel nodes =
  let handoff = { Handoff.default_config with Handoff.transport } in
  (match ckpt_every_s with
  | Some d when d <= 0.0 -> invalid_arg "Sched.create: ckpt_every_s must be positive"
  | _ -> ());
  (match (ckpt_every_s, precopy, store) with
  | (Some _, _, None) | (_, Some _, None) ->
      invalid_arg "Sched.create: checkpointing and pre-copy need a store"
  | _ -> ());
  let by_name = Hashtbl.create (max 16 (List.length nodes)) in
  List.iter
    (fun n ->
      if Hashtbl.mem by_name n.n_name then
        invalid_arg (Printf.sprintf "Sched.create: duplicate node %s" n.n_name);
      Hashtbl.replace by_name n.n_name n)
    nodes;
  {
    nodes;
    by_name;
    channel;
    handoff;
    compat;
    store;
    ckpt_every_s;
    precopy;
    procs = Vec.create ();
    now = 0.;
    next_pid = 0;
    events = Vec.create ();
    timers = Eheap.create ();
    journal;
  }

(* Single event chokepoint: every scheduler decision is one HPMJ entry
   (docs/FORMAT.md), kept in memory, appended to the journal, counted in
   [hpm_sched_events_total{kind,proc}] and traced as [sched.<kind>].
   Event timestamps are the scheduler's own simulated clock. *)
let log t (e : Journal.entry) =
  Vec.push t.events e;
  Option.iter (fun j -> Journal.append j e) t.journal;
  if Hpm_obs.Obs.on () then begin
    let module Obs = Hpm_obs.Obs in
    let kind = Journal.ev_name e.Journal.j_ev in
    Obs.inc "hpm_sched_events_total" [ ("kind", kind); ("proc", e.Journal.j_proc) ];
    if Obs.tracing () then
      Obs.instant ~ts:e.Journal.j_ts ~cat:"sched"
        ~args:[ ("proc", Obs.Trace.S e.Journal.j_proc) ]
        ("sched." ^ kind)
  end

let recovered t (p : proc) (n : node) why =
  Journal.entry ~ts:t.now ~ev:Journal.Recovered ~proc:p.p_name ~node:n.n_name
    ~note:why ()

let spawn t (nd : node) name (m : Migration.migratable) : proc =
  let p =
    {
      p_id = t.next_pid;
      p_name = name;
      p_m = m;
      p_interp = Migration.start m nd.n_arch;
      p_node = nd;
      p_state = Runnable;
      p_pending_dst = None;
      p_epoch = 1;
      p_migrations = 0;
      p_failed_migrations = 0;
      p_recoveries = 0;
      p_bytes_collected = 0;
      p_bytes_restored = 0;
      p_finish_time = None;
      p_output = Buffer.create 64;
      p_cache = Snapshot.new_cache ();
      p_next_ckpt =
        (match t.ckpt_every_s with Some d -> t.now +. d | None -> infinity);
      p_ckpt_pending = false;
      p_ckpt_epoch = 1;
      p_group = "";
      p_last_move_s = neg_infinity;
    }
  in
  t.next_pid <- t.next_pid + 1;
  nd.n_procs <- nd.n_procs + 1;
  Vec.push t.procs p;
  log t (Journal.entry ~ts:t.now ~ev:Journal.Spawned ~proc:name ~node:nd.n_name ());
  p

(** May the scheduler place [p] onto [dst] at all?  [true] without a
    compat gate; with one, exactly {!Hpm_core.Compat.ok} for the pair. *)
let placement_ok t (p : proc) (dst : node) =
  match t.compat with
  | None -> true
  | Some ok -> ok p.p_m ~src:p.p_node.n_arch ~dst:dst.n_arch

(** Scheduler action: ask [p] to migrate to [dst].  The request is noticed
    at the process's next poll-point.  With a compat gate, a destination
    whose arch pair is Illegal for [p]'s program is refused up front —
    the process never even attempts the move ([Compat_rejected]). *)
let request_migration t (p : proc) (dst : node) =
  if dst != p.p_node then
    if not (placement_ok t p dst) then
      log t
        (Journal.entry ~ts:t.now ~ev:Journal.Compat_rejected ~proc:p.p_name
           ~src:p.p_node.n_name ~dst:dst.n_name ())
    else (
      p.p_pending_dst <- Some dst;
      p.p_last_move_s <- t.now;
      Interp.request_migration p.p_interp;
      log t
        (Journal.entry ~ts:t.now ~ev:Journal.Requested ~proc:p.p_name
           ~src:p.p_node.n_name ~dst:dst.n_name ()))

let node_named t name = Hashtbl.find_opt t.by_name name

(* The policy-facing node view: what {!Policy.POLICY} implementations
   see. *)
let node_view t : Policy.node_info list =
  List.map
    (fun n ->
      {
        Policy.ni_name = n.n_name;
        ni_speed = n.n_arch.Arch.speed;
        ni_load = n.n_procs;
        ni_site = n.n_site;
        ni_alive = true;
      })
    t.nodes

(* Re-home [p]'s bookkeeping onto [dst] with a freshly restored
   interpreter.  The old interpreter's output is folded first: a restored
   image carries no output buffer (in a real system that output already
   reached the terminal before the move). *)
let rehome p (dst : node) interp =
  Buffer.add_string p.p_output (Interp.output p.p_interp);
  p.p_node.n_procs <- p.p_node.n_procs - 1;
  dst.n_procs <- dst.n_procs + 1;
  p.p_interp <- interp;
  p.p_node <- dst;
  p.p_pending_dst <- None

(* Checkpoint [p]'s interpreter (suspended at a poll-point) into the
   shared store, incrementally against its snapshot cache.  Folding the
   interpreter's output into [p_output] and clearing its buffer here
   makes the manifest a durable point: after a crash, [p_output] holds
   exactly the output up to the newest manifest and replay regenerates
   exactly the rest — output is neither lost nor duplicated.  No-op
   without a store. *)
let checkpoint_now t (p : proc) =
  p.p_ckpt_pending <- false;
  match t.store with
  | None -> ()
  | Some st ->
      let epoch = p.p_ckpt_epoch in
      p.p_ckpt_epoch <- epoch + 1;
      let mf, chunks, stats =
        Snapshot.collect ~epoch ~proc:(store_name p) ~cache:p.p_cache p.p_interp
          p.p_m.Migration.ti
      in
      Snapshot.persist st mf chunks stats;
      Buffer.add_string p.p_output (Interp.output p.p_interp);
      Buffer.clear p.p_interp.Interp.out;
      (match t.ckpt_every_s with
      | Some d -> p.p_next_ckpt <- t.now +. d
      | None -> ());
      log t
        (Journal.entry ~ts:t.now ~ev:Journal.Checkpointed ~proc:p.p_name ~epoch
           ~collected_bytes:stats.Cstats.d_data_bytes
           ~delta_bytes:stats.Cstats.d_delta_bytes
           ~chunks_shipped:stats.Cstats.d_chunks_shipped
           ~chunks_reused:stats.Cstats.d_chunks_reused ())

(** Crash-restart [p] on its current node from durable state: the
    in-memory interpreter is lost (its unfolded output buffer is
    discarded, {e not} folded — replay regenerates it).  Prefers the
    newest {e committed} store manifest; returns [false] when none
    yields a process.  Damaged manifests are skipped silently — recovery
    never trusts a torn write. *)
let recover_from_store t (p : proc) : bool =
  let from_store =
    match (p.p_state, t.store) with
    | Finished _, _ | _, None -> None
    | _, Some st -> Snapshot.restore_latest p.p_m p.p_node.n_arch st ~proc:(store_name p)
  in
  match from_store with
  | None -> false
  | Some (interp, rstats, mf) ->
      p.p_interp <- interp;
      p.p_cache <- Snapshot.new_cache ();
      p.p_pending_dst <- None;
      p.p_ckpt_pending <- false;
      p.p_recoveries <- p.p_recoveries + 1;
      p.p_bytes_restored <- p.p_bytes_restored + rstats.Cstats.r_data_bytes;
      p.p_state <- Blocked_until (t.now +. t.handoff.Handoff.restart_delay_s);
      let why = Printf.sprintf "crash recovery: store manifest epoch %d" mf.Store.mf_epoch in
      log t (recovered t p p.p_node why);
      true

(* Resume on the source from a retained checkpoint (crash recovery or
   blocked-protocol stand-in).  Same-node rehome: only the interp swaps. *)
let resume_from_ckpt t p ~epoch ~why ckpt busy_s =
  let interp, rstats =
    Handoff.resume_from_checkpoint p.p_m p.p_node.n_arch ~epoch ckpt
  in
  rehome p p.p_node interp;
  p.p_recoveries <- p.p_recoveries + 1;
  p.p_bytes_restored <- p.p_bytes_restored + rstats.Cstats.r_data_bytes;
  p.p_state <- Blocked_until (t.now +. busy_s);
  log t (recovered t p p.p_node why)

let finish t (p : proc) v =
  Buffer.add_string p.p_output (Interp.output p.p_interp);
  p.p_state <- Finished v;
  p.p_node.n_procs <- p.p_node.n_procs - 1;
  p.p_finish_time <- Some t.now;
  log t
    (Journal.entry ~ts:t.now ~ev:Journal.Finished ~proc:p.p_name
       ~node:p.p_node.n_name ())

(* Apply whatever recovery a completed handoff's outcome demands (see the
   module header).  [extra_s] is protocol time already spent before the
   handoff (pre-copy rounds); [delta] the incremental stats to surface on
   the [Migrated] event; [already_durable] suppresses the post-migration
   store checkpoint when the destination store already holds a manifest at
   this very suspension (the pre-copy path). *)
let apply_handoff_outcome t (p : proc) (dst : node) ~epoch ?delta
    ?(extra_s = 0.0) ?(already_durable = false) (res : Handoff.result) =
  let src = p.p_node in
  (* Any branch that swaps the interpreter for a restored copy starts a
     fresh snapshot-cache lineage, and — with a store — immediately makes
     the new suspension durable so crash recovery replays from here. *)
  let fresh_lineage () =
    p.p_cache <- Snapshot.new_cache ();
    if not already_durable then checkpoint_now t p
    else p.p_ckpt_pending <- false
  in
  match res.Handoff.outcome with
  | Handoff.Committed c ->
      rehome p dst c.Handoff.c_dst;
      p.p_migrations <- p.p_migrations + 1;
      p.p_bytes_collected <- p.p_bytes_collected + c.Handoff.c_cstats.Cstats.c_data_bytes;
      p.p_bytes_restored <- p.p_bytes_restored + c.Handoff.c_rstats.Cstats.r_data_bytes;
      p.p_state <- Blocked_until (t.now +. c.Handoff.c_time_s +. extra_s);
      let delta_bytes, chunks_shipped, chunks_reused =
        match delta with
        | Some d ->
            (d.Cstats.d_delta_bytes, d.Cstats.d_chunks_shipped, d.Cstats.d_chunks_reused)
        | None -> (0, 0, 0)
      in
      log t
        (Journal.entry ~ts:t.now ~ev:Journal.Migrated ~proc:p.p_name ~src:src.n_name
           ~dst:dst.n_name ~epoch ~stream_bytes:c.Handoff.c_stream_bytes
           ~collected_bytes:c.Handoff.c_cstats.Cstats.c_data_bytes
           ~restored_bytes:c.Handoff.c_rstats.Cstats.r_data_bytes
           ~retries:c.Handoff.c_tstats.Transport.t_retries
           ~time_s:(c.Handoff.c_time_s +. extra_s) ~delta_bytes ~chunks_shipped
           ~chunks_reused ());
      fresh_lineage ()
  | Handoff.Source_recovered r ->
      p.p_failed_migrations <- p.p_failed_migrations + 1;
      p.p_bytes_collected <- p.p_bytes_collected + r.Handoff.r_cstats.Cstats.c_data_bytes;
      rehome p src r.Handoff.r_interp;
      p.p_recoveries <- p.p_recoveries + 1;
      p.p_state <- Blocked_until (t.now +. r.Handoff.r_time_s +. extra_s);
      log t
        (recovered t p src
           (Printf.sprintf "source crashed after %s; resumed from checkpoint (epoch %d)"
              (Netsim.phase_name r.Handoff.r_crash_phase) epoch));
      fresh_lineage ()
  | Handoff.Abort_requeue q -> (
      p.p_failed_migrations <- p.p_failed_migrations + 1;
      p.p_bytes_collected <- p.p_bytes_collected + q.Handoff.q_cstats.Cstats.c_data_bytes;
      let resume_locally why =
        (* the source copy is still live and suspended: just keep it *)
        p.p_pending_dst <- None;
        Interp.clear_migration_request p.p_interp;
        p.p_recoveries <- p.p_recoveries + 1;
        p.p_state <- Blocked_until (t.now +. q.Handoff.q_time_s +. extra_s);
        log t (recovered t p src why)
      in
      match
        Option.bind
          (Policy.least_loaded_node ~avoid:[ dst.n_name; src.n_name ] (node_view t))
          (fun n -> node_named t n.Policy.ni_name)
      with
      | None ->
          resume_locally
            (Printf.sprintf "%s; no other node, source copy resumes" q.Handoff.q_reason)
      | Some alt -> (
          (* ship the retained checkpoint to a third node *)
          match
            Transport.transfer ~config:t.handoff.Handoff.transport t.channel
              q.Handoff.q_ckpt
          with
          | Transport.Delivered (delivered, ts) ->
              let interp, rstats =
                Handoff.resume_from_checkpoint p.p_m alt.n_arch
                  ~epoch:q.Handoff.q_epoch delivered
              in
              rehome p alt interp;
              p.p_migrations <- p.p_migrations + 1;
              p.p_bytes_restored <- p.p_bytes_restored + rstats.Cstats.r_data_bytes;
              p.p_state <-
                Blocked_until
                  (t.now +. q.Handoff.q_time_s +. ts.Transport.t_time_s +. extra_s);
              log t
                (Journal.entry ~ts:t.now ~ev:Journal.Requeued ~proc:p.p_name
                   ~src:src.n_name ~dst:alt.n_name ~note:("dead " ^ dst.n_name) ());
              p.p_cache <- Snapshot.new_cache ();
              checkpoint_now t p
          | Transport.Aborted _ ->
              resume_locally
                (Printf.sprintf "%s; re-queue link also failed, source copy resumes"
                   q.Handoff.q_reason)))
  | Handoff.Stalled { s_ckpt; s_epoch; s_time_s } ->
      p.p_failed_migrations <- p.p_failed_migrations + 1;
      p.p_pending_dst <- None;
      (* destination unreachable and its committed epoch unknown: classic
         2PC blocking.  The simulation stands in for the operator by
         resuming the checkpoint on the source — safe because an unheard
         destination never got a RELEASE and keeps its copy suspended. *)
      resume_from_ckpt t p ~epoch:s_epoch
        ~why:
          (Printf.sprintf
             "handoff stalled (epoch %d unresolved); checkpoint resumed on source"
             s_epoch)
        s_ckpt (s_time_s +. extra_s);
      p.p_cache <- Snapshot.new_cache ();
      checkpoint_now t p
  | Handoff.Link_failed l ->
      p.p_pending_dst <- None;
      p.p_failed_migrations <- p.p_failed_migrations + 1;
      Interp.clear_migration_request p.p_interp;
      (* the process stayed put; it only wasted the transfer attempt's time *)
      p.p_state <- Blocked_until (t.now +. l.Handoff.l_time_s +. extra_s);
      log t
        (Journal.entry ~ts:t.now ~ev:Journal.Failed ~proc:p.p_name ~src:src.n_name
           ~dst:dst.n_name ~retries:l.Handoff.l_stats.Transport.t_retries
           ~time_s:(l.Handoff.l_time_s +. extra_s) ())

(* One-shot stop-and-copy migration: the classic path. *)
let perform_handoff t (p : proc) (dst : node) =
  let epoch = p.p_epoch in
  p.p_epoch <- epoch + 1;
  let run () =
    Handoff.execute ~config:t.handoff ~channel:t.channel ~epoch p.p_m p.p_interp
      dst.n_arch
  in
  let res =
    if Hpm_obs.Obs.on () then (
      Hpm_obs.Obs.set_now t.now;
      Hpm_obs.Obs.with_labels [ ("proc", p.p_name) ] run)
    else run ()
  in
  apply_handoff_outcome t p dst ~epoch res

(* Iterative pre-copy migration through the shared store. *)
let perform_precopy t (p : proc) (dst : node) (pcfg : Precopy.config) (st : Store.t) =
  let src = p.p_node in
  (* one epoch sequence serves store manifests and handoff incarnations,
     keeping both monotonic per process *)
  let epoch0 = max p.p_epoch p.p_ckpt_epoch in
  if Hpm_obs.Obs.on () then Hpm_obs.Obs.set_now t.now;
  let pres =
    Precopy.execute
      ~config:{ pcfg with Precopy.handoff = t.handoff }
      ~channel:t.channel ~dst_store:st ~proc:(store_name p) ~epoch0 p.p_m p.p_interp
      dst.n_arch
  in
  p.p_epoch <- pres.Precopy.p_final_epoch + 1;
  p.p_ckpt_epoch <- pres.Precopy.p_final_epoch + 1;
  match pres.Precopy.p_outcome with
  | Precopy.Handed_off hres ->
      apply_handoff_outcome t p dst ~epoch:pres.Precopy.p_final_epoch
        ~delta:pres.Precopy.p_stats ~extra_s:pres.Precopy.p_precopy_s
        ~already_durable:true hres
  | Precopy.Finished_before_handoff -> (
      (* the source completed while pre-copying; nothing migrated *)
      p.p_pending_dst <- None;
      match p.p_interp.Interp.result with
      | Some v -> finish t p v
      | None -> p.p_state <- Runnable (* defensive; cannot happen *))
  | Precopy.Round_link_failed { rl_stats; _ } ->
      p.p_pending_dst <- None;
      p.p_failed_migrations <- p.p_failed_migrations + 1;
      p.p_state <- Blocked_until (t.now +. pres.Precopy.p_precopy_s);
      log t
        (Journal.entry ~ts:t.now ~ev:Journal.Failed ~proc:p.p_name ~src:src.n_name
           ~dst:dst.n_name
           ~retries:(match rl_stats with Some s -> s.Transport.t_retries | None -> 0)
           ~time_s:pres.Precopy.p_precopy_s ())

(** Move [p]'s state to [dst] — through iterative pre-copy when the
    scheduler was created with a store and a pre-copy config, otherwise
    through the one-shot two-phase handoff. *)
let perform_migration t (p : proc) (dst : node) =
  match (t.precopy, t.store) with
  | Some pcfg, Some st -> perform_precopy t p dst pcfg st
  | _ -> perform_handoff t p dst

(** One simulation tick: give every runnable process its quantum. *)
let tick t =
  if Hpm_obs.Obs.on () then Hpm_obs.Obs.set_now t.now;
  Vec.iter
    (fun p ->
      match p.p_state with
      | Finished _ -> ()
      | Blocked_until until ->
          if t.now >= until then p.p_state <- Runnable
      | Runnable -> (
          (* periodic durability: ask for the next poll-point so we can
             checkpoint at a consistent suspension *)
          (if t.store <> None && t.now >= p.p_next_ckpt && p.p_pending_dst = None
              && not p.p_ckpt_pending then (
             p.p_ckpt_pending <- true;
             Interp.request_migration p.p_interp));
          (* the node's CPU is shared equally by its runnable processes *)
          let share = max 1 p.p_node.n_procs in
          let fuel =
            int_of_float
              (base_ips *. p.p_node.n_arch.Arch.speed *. quantum_s
              /. float_of_int share)
          in
          p.p_node.n_instrs <- p.p_node.n_instrs + fuel;
          match Interp.run ~fuel p.p_interp with
          | Interp.RFuel -> ()
          | Interp.RDone v -> finish t p v
          | Interp.RPolled _ -> (
              match p.p_pending_dst with
              | Some dst -> perform_migration t p dst
              | None ->
                  Interp.clear_migration_request p.p_interp;
                  if p.p_ckpt_pending then checkpoint_now t p)))
    t.procs;
  t.now <- t.now +. quantum_s

let all_finished t =
  Vec.for_all (fun p -> match p.p_state with Finished _ -> true | _ -> false) t.procs

(** Schedule [f] to run against the scheduler at simulated [time] —
    the event-heap face of {!run}.  Actions due at the same instant
    fire in scheduling order (the heap's (time, seq) total order),
    before that instant's tick.  Use it to script a fleet: inject a
    crash at t=2s, request a migration at t=5s, flip a policy on at
    t=10s. *)
let at t ~(time : float) (f : action) : unit =
  ignore (Eheap.add t.timers ~time f : int)

(* Fire every scheduled action due at or before the current instant. *)
let fire_due t =
  let rec go () =
    match Eheap.peek t.timers with
    | Some (time, _, _) when time <= t.now -> (
        match Eheap.pop t.timers with
        | Some (_, _, f) ->
            f t;
            go ()
        | None -> ())
    | _ -> ()
  in
  go ()

(** Run until every process finished (or [max_ticks] elapsed); returns the
    number of ticks executed.  Each iteration fires due {!at}-scheduled
    actions (in (time, seq) order), consults [policy], then ticks. *)
let run ?(max_ticks = 1_000_000) ?(policy = fun (_ : t) -> ()) t : int =
  let ticks = ref 0 in
  while (not (all_finished t)) && !ticks < max_ticks do
    fire_due t;
    policy t;
    tick t;
    incr ticks
  done;
  (* actions due by the instant the last process finished still fire:
     [fire_due] runs at loop *start*, so anything that came due during
     the final tick would otherwise be lost *)
  fire_due t;
  !ticks

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

(* The policy-facing process view, in spawn order (the candidate
   tie-break). *)
let proc_view t : Policy.proc_info list =
  Vec.fold_left
    (fun acc p ->
      match p.p_state with
      | Finished _ -> acc
      | _ ->
          {
            Policy.pi_name = p.p_name;
            pi_node = p.p_node.n_name;
            pi_group = p.p_group;
            pi_runnable = (p.p_state = Runnable);
            pi_migrating = p.p_pending_dst <> None;
            pi_last_move_s = p.p_last_move_s;
          }
          :: acc)
    [] t.procs
  |> List.rev

(** Drive one placement round of [policy]: build the views, take its
    decisions, and turn each into a {!request_migration}.  Decisions
    naming unknown processes or nodes are dropped (a policy is data,
    not a capability). *)
let apply_policy t (policy : Policy.t) : unit =
  let decisions = Policy.decide policy ~now:t.now (node_view t) (proc_view t) in
  List.iter
    (fun { Policy.d_proc; d_dst } ->
      match
        ( Vec.find_opt (fun p -> p.p_name = d_proc) t.procs,
          node_named t d_dst )
      with
      | Some p, Some dst -> request_migration t p dst
      | _ -> ())
    decisions

(** Greedy load balancing: whenever some node runs ≥ 2 more processes than
    another, ask one (that is not already migrating) to move.  This is
    {!Policy.least_loaded} applied once per call. *)
let load_balance (t : t) = apply_policy t (Policy.least_loaded ())

(** Speed-seeking policy: move work from slow nodes to the fastest idle
    node — the "reconfigurable computing" motivation of §1.  This is
    {!Policy.seek_fastest} applied once per call. *)
let seek_fastest (t : t) = apply_policy t (Policy.seek_fastest ())

let events t = Vec.to_list t.events

(** How many [kind] entries the event log holds for [p]: e.g.
    [count t p Journal.Promoted] is its promotions, [Compat_rejected]
    its refused placements, [Requeued] its checkpoints re-queued to a
    third node, [Resynced] the full resyncs served to its standbys. *)
let count t (p : proc) (kind : Journal.ev) =
  Vec.fold_left
    (fun n e -> if e.Journal.j_ev = kind && e.Journal.j_proc = p.p_name then n + 1 else n)
    0 t.events

let output (p : proc) =
  (* finished processes folded their last host's output already *)
  match p.p_state with
  | Finished _ -> Buffer.contents p.p_output
  | _ -> Buffer.contents p.p_output ^ Interp.output p.p_interp

(* ------------------------------------------------------------------ *)
(* Continuous replication: warm standbys and promotion-on-failure      *)
(* ------------------------------------------------------------------ *)

(** Open a continuous-replication session for [p]: every stream epoch
    ships a delta to the scheduler's store (required — it is the
    authoritative resume point) and to warm standbys on [standbys].
    Standby names are node names, so a later promotion can re-home the
    process onto the standby's node. *)
let replicate ?config ?faults t (p : proc) ~(standbys : node list) : Replica.t =
  let st =
    match t.store with
    | Some st -> st
    | None -> invalid_arg "Sched.replicate: scheduler has no store"
  in
  if standbys = [] then invalid_arg "Sched.replicate: no standby nodes";
  if List.exists (fun n -> n == p.p_node) standbys then
    invalid_arg "Sched.replicate: a standby cannot be the source node";
  Replica.create ?config ?faults ~channel:t.channel ~store:st
    ~proc:(store_name p)
    ~standbys:(List.map (fun n -> (n.n_name, n.n_arch)) standbys)
    p.p_m p.p_interp

(* Surface the replica's event log as scheduler events (resyncs and lost
   standbys), starting after the first [seen0] replica events. *)
let absorb_replica_events t (p : proc) (r : Replica.t) seen0 =
  List.iteri
    (fun i e ->
      if i >= seen0 then
        match e with
        | Replica.Ev_resync { er_epoch; er_sub; _ } ->
            log t
              (Journal.entry ~ts:t.now ~ev:Journal.Resynced ~proc:p.p_name
                 ~node:er_sub ~epoch:er_epoch ())
        | Replica.Ev_standby_lost { el_epoch = _; el_sub } ->
            log t
              (Journal.entry ~ts:t.now ~ev:Journal.Standby_lost ~proc:p.p_name
                 ~node:el_sub ())
        | _ -> ())
    (Replica.events r)

(** Stream up to [epochs] replication epochs for [p], advancing the
    scheduler clock by the simulated replication time and folding output
    the replica released at durable epochs into the process's
    accumulated output.  A completed source finishes the process. *)
let stream_replica t (p : proc) (r : Replica.t) ~epochs : Replica.step =
  let seen = List.length (Replica.events r) in
  let t0 = Replica.time_s r in
  let rel0 = String.length (Replica.released_output r) in
  if Hpm_obs.Obs.on () then Hpm_obs.Obs.set_now t.now;
  let step = Replica.run r ~epochs in
  absorb_replica_events t p r seen;
  let rel = Replica.released_output r in
  Buffer.add_string p.p_output (String.sub rel rel0 (String.length rel - rel0));
  p.p_ckpt_epoch <- max p.p_ckpt_epoch (Replica.epoch r + 1);
  p.p_epoch <- max p.p_epoch (Replica.epoch r + 1);
  t.now <- t.now +. (Replica.time_s r -. t0);
  (match step with
  | Replica.Source_finished -> (
      match p.p_interp.Interp.result with
      | Some v -> finish t p v
      | None -> ())
  | _ -> ());
  step

(** Fail [p] over: promote the freshest committed standby (or [sub]),
    fence the dead incarnation, and re-home the process onto the
    promoted standby's node.  The dead interpreter's unreleased output
    is discarded, not folded — the replica released output only at
    durable epochs and replay regenerates exactly the rest. *)
let promote_standby ?sub t (p : proc) (r : Replica.t) : Replica.promotion =
  let seen = List.length (Replica.events r) in
  let t0 = Replica.time_s r in
  if Hpm_obs.Obs.on () then Hpm_obs.Obs.set_now t.now;
  let pm = Replica.promote ?sub r in
  absorb_replica_events t p r seen;
  let src_name = p.p_node.n_name in
  let dst =
    match node_named t pm.Replica.pm_sub with
    | Some n -> n
    | None ->
        invalid_arg
          (Printf.sprintf "Sched.promote_standby: standby %s is not a node"
             pm.Replica.pm_sub)
  in
  Buffer.clear p.p_interp.Interp.out;
  rehome p dst pm.Replica.pm_interp;
  p.p_cache <- Snapshot.new_cache ();
  p.p_recoveries <- p.p_recoveries + 1;
  p.p_epoch <- pm.Replica.pm_epoch + 1;
  p.p_ckpt_epoch <- pm.Replica.pm_epoch + 1;
  t.now <- t.now +. (Replica.time_s r -. t0);
  p.p_state <- Blocked_until (t.now +. t.handoff.Handoff.restart_delay_s);
  log t
    (Journal.entry ~ts:t.now ~ev:Journal.Promoted ~proc:p.p_name ~src:src_name
       ~dst:dst.n_name ~epoch:pm.Replica.pm_epoch ());
  pm
