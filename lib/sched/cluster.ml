(** The at-scale discrete-event cluster scheduler.

    {!Sched} drives real interpreters through the full
    collect/transfer/restore pipeline — perfect fidelity, but a handful
    of nodes is its natural size.  This engine is the other end of the
    telescope: processes are modelled (a work budget, a state size, a
    poll cadence) and every protocol step is a scheduled event, so a
    seeded 1000-node / 10k-process churn run with hundreds of
    overlapping two-phase migrations completes in seconds and is
    byte-identical across same-seed reruns.

    The machinery it runs on is shared with {!Sched}: the {!Eheap}
    global event heap (total order (time, seq) — same-instant events
    fire in scheduling order), the {!Policy} placement signature, and
    the HPMJ fleet journal / {!Hpm_obs.Obs} trace surfaces.

    The modelled protocol mirrors {!Hpm_core.Handoff}'s outcomes:

    - a migration is requested by a policy round, noticed at the
      process's next poll point, then collect → transfer → restore →
      commit as scheduled events (the process is suspended from its
      source run queue at the poll, and joins the destination's on
      commit);
    - gang decisions move as one migration: members suspend at their
      own poll points, the transfer begins when the {e last} member is
      in, and a single commit lands every member on the destination —
      or a crash aborts every member (all-or-nothing);
    - a destination crash before commit re-queues the whole migration
      to the least-loaded live node ([Requeued]);
    - a source crash before the transfer completes aborts the
      migration ([Failed]) and the victims recover from their newest
      implicit checkpoint ([Recovered], after a restart delay) — work
      since the checkpoint is re-executed, output is never duplicated
      (exactly one [Finished] journal record per process, ever);
    - a source crash after the transfer completes commits normally —
      the bytes are already on the destination.

    Determinism: every choice flows from the seeded {!Rng}, the event
    heap's (time, seq) order, and name-tie-broken node selection.
    Nothing iterates a hash table to make a decision. *)

open Hpm_machine
open Hpm_store

module ISet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  c_nodes : int;
  c_procs : int;
  c_seed : int;
  c_sites : int;              (** nodes striped across this many sites *)
  c_max_moves : int;          (** moves one policy round may request *)
  c_cooldown_s : float;       (** anti-flap hysteresis window *)
  c_gang_groups : int;        (** process groups that must move as one *)
  c_gang_size : int;
  c_crash_nodes : int;        (** nodes that crash during the run *)
}

(** The standing churn scenario: 1000 nodes / 10k processes, everything
    spawned on the hottest 10% of the fleet, 10 node crashes while the
    policy drains the imbalance.  The policy default is
    hysteresis(gang(least-loaded)). *)
let default_churn : config =
  {
    c_nodes = 1000;
    c_procs = 10_000;
    c_seed = 42;
    c_sites = 10;
    c_max_moves = 150;
    c_cooldown_s = 1.0;
    c_gang_groups = 20;
    c_gang_size = 5;
    c_crash_nodes = 10;
  }

(* The fleet's fixed model: workload shape, cadences, crash timing and
   the data-plane rates every migration is costed at. *)
let speeds = [| 1.0; 1.5; 0.75; 2.0 |]  (* node speeds, cycled by node id *)
let mean_work_s = 30.0  (* mean process work at speed 1.0 (±50%) *)
let state_bytes_min = 64 * 1024
let state_bytes_max = 1024 * 1024

(* all processes spawn on this fraction of nodes — the imbalance churn
   must drain *)
let hot_frac = 0.1
let poll_every_s = 0.05  (* poll-point grid (migration notice latency) *)
let policy_every_s = 0.25  (* placement policy cadence *)
let crash_from_s = 2.0
let crash_window_s = 10.0
let restart_delay_s = 0.5  (* crash-victim recovery delay *)

(* implicit checkpoint granularity, in work-seconds: recovery replays at
   most this much re-execution *)
let ckpt_work_s = 1.0
let collect_bps = 400e6  (* state collection rate, bytes/s *)
let restore_bps = 300e6  (* state restoration rate, bytes/s *)
let bw_bps = 1e9  (* transfer bandwidth, bytes/s *)
let latency_s = 2e-3  (* per-transfer latency floor *)
let jitter_s = 5e-3  (* max seeded uniform extra transfer latency *)
let max_sim_s = 600.0  (* hard stop for the simulated clock *)

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type cnode = {
  cn_id : int;
  cn_name : string;
  cn_speed : float;
  cn_site : string;
  mutable cn_alive : bool;
  mutable cn_running : ISet.t;  (** the run queue: pids sharing this CPU *)
}

type cproc = {
  cp_id : int;
  cp_name : string;
  cp_group : string;           (** gang group; [""] = ungrouped *)
  cp_work_s : float;           (** total work at speed 1.0 *)
  cp_state_bytes : int;
  mutable cp_node : int;
  mutable cp_done_s : float;
  mutable cp_rate : float;     (** current work-units/second (0 = not running) *)
  mutable cp_updated_s : float;
  mutable cp_version : int;    (** stamps finish events; stale ones are dropped *)
  mutable cp_mig : int option; (** migration in flight, by id *)
  mutable cp_suspended : bool; (** off the run queue, mid-handoff *)
  mutable cp_down : bool;      (** crash victim awaiting recovery *)
  mutable cp_finished : bool;
  mutable cp_epoch : int;
  mutable cp_migrations : int;
  mutable cp_last_move_s : float;
}

(* One in-flight (possibly gang) migration. *)
type cmig = {
  m_id : int;
  mutable m_dst : int;
  mutable m_members : (int * int) list;  (** (pid, src node id), decision order *)
  mutable m_waiting : int;     (** members not yet at their poll point *)
  mutable m_version : int;     (** stamps commit events (requeue bumps it) *)
  mutable m_begun : bool;
  mutable m_transfer_done_s : float;
      (** once begun: when the wire transfer completes — a source crash
          before this aborts, after it the commit stands *)
  mutable m_cancelled : bool;
  mutable m_committed : bool;
  m_start_s : float;
}

type ev =
  | Ev_finish of int * int   (* pid, proc version *)
  | Ev_poll of int * int     (* pid, migration id *)
  | Ev_commit of int * int   (* migration id, migration version *)
  | Ev_crash of int          (* node id *)
  | Ev_recover of int        (* pid *)
  | Ev_policy

type t = {
  policy : Policy.t;
  cnodes : cnode array;
  cprocs : cproc array;
  heap : ev Eheap.t;
  rng : Rng.t;
  migs : cmig Vec.t;
  journal : Journal.t option;
  mutable now : float;
  mutable finished : int;
  mutable inflight : int;
  mutable peak_inflight : int;
  mutable processed : int;     (** events executed (stale ones included) *)
  mutable n_requested : int;
  mutable n_migrations : int;  (** committed member moves *)
  mutable n_failed : int;
  mutable n_requeued : int;
  mutable n_recovered : int;
  mutable n_crashes : int;
}

(* ------------------------------------------------------------------ *)
(* Recording: one HPMJ entry per event, counted and traced by kind     *)
(* ------------------------------------------------------------------ *)

(* Count and trace one event of [kind] at the current instant. *)
let observe t kind =
  if Hpm_obs.Obs.metrics_on () then
    Hpm_obs.Obs.inc "hpm_cluster_events_total" [ ("kind", kind) ];
  if Hpm_obs.Obs.tracing () then
    Hpm_obs.Obs.instant ~ts:t.now ~cat:"cluster" ("cluster." ^ kind)

(* Record one fleet event: its journal entry (the only event log), its
   [hpm_cluster_events_total{kind}] count and its trace instant.  Node
   crashes have no journal kind; they are only [observe]d. *)
let emit t (e : Journal.entry) =
  Option.iter (fun j -> Journal.append j e) t.journal;
  observe t (Journal.ev_name e.Journal.j_ev)

let set_inflight t d =
  t.inflight <- t.inflight + d;
  if t.inflight > t.peak_inflight then t.peak_inflight <- t.inflight;
  if Hpm_obs.Obs.metrics_on () then begin
    Hpm_obs.Obs.set_gauge "hpm_cluster_inflight_migrations" []
      (float_of_int t.inflight);
    Hpm_obs.Obs.set_gauge "hpm_cluster_peak_inflight" []
      (float_of_int t.peak_inflight)
  end

(* ------------------------------------------------------------------ *)
(* Run-queue mechanics (processor sharing, lazy reschedule)            *)
(* ------------------------------------------------------------------ *)

let schedule t ~time ev = ignore (Eheap.add t.heap ~time ev : int)

(* Bank the work [p] accrued at its current rate. *)
let accumulate t (p : cproc) =
  if p.cp_rate > 0.0 then
    p.cp_done_s <-
      Float.min p.cp_work_s
        (p.cp_done_s +. (p.cp_rate *. (t.now -. p.cp_updated_s)));
  p.cp_updated_s <- t.now

(* The node's load changed: re-share its CPU.  Every running process
   banks its work, takes the new rate, and gets a fresh finish event;
   the version bump turns the old finish events into no-ops when they
   eventually pop (lazy invalidation — cheaper than heap deletion). *)
let reshare t (n : cnode) =
  let k = ISet.cardinal n.cn_running in
  if k > 0 then begin
    let rate = n.cn_speed /. float_of_int k in
    ISet.iter
      (fun pid ->
        let p = t.cprocs.(pid) in
        accumulate t p;
        p.cp_rate <- rate;
        p.cp_version <- p.cp_version + 1;
        let finish_at = t.now +. ((p.cp_work_s -. p.cp_done_s) /. rate) in
        schedule t ~time:finish_at (Ev_finish (pid, p.cp_version)))
      n.cn_running
  end

let start_running t (p : cproc) (n : cnode) =
  p.cp_node <- n.cn_id;
  p.cp_suspended <- false;
  p.cp_down <- false;
  p.cp_rate <- 0.0;
  p.cp_updated_s <- t.now;
  n.cn_running <- ISet.add p.cp_id n.cn_running

(* Take [p] off its node's run queue (handoff suspension or crash). *)
let stop_running t (p : cproc) =
  let n = t.cnodes.(p.cp_node) in
  accumulate t p;
  p.cp_rate <- 0.0;
  p.cp_version <- p.cp_version + 1;
  if ISet.mem p.cp_id n.cn_running then begin
    n.cn_running <- ISet.remove p.cp_id n.cn_running;
    reshare t n
  end

(* Least-loaded live node by (load, name), skipping ids in [avoid]. *)
let pick_node t ~(avoid : int list) : cnode option =
  Array.fold_left
    (fun acc n ->
      if (not n.cn_alive) || List.mem n.cn_id avoid then acc
      else
        match acc with
        | Some (b : cnode)
          when ISet.cardinal b.cn_running < ISet.cardinal n.cn_running
               || (ISet.cardinal b.cn_running = ISet.cardinal n.cn_running
                   && b.cn_name <= n.cn_name) ->
            acc
        | _ -> Some n)
    None t.cnodes

(* ------------------------------------------------------------------ *)
(* Migration chains                                                    *)
(* ------------------------------------------------------------------ *)

let next_poll_s t =
  let k = int_of_float (t.now /. poll_every_s) in
  float_of_int (k + 1) *. poll_every_s

(* All members are suspended: cost the collect/transfer/restore chain
   and schedule the single commit that lands the whole migration. *)
let begin_transfer t (m : cmig) =
  m.m_begun <- true;
  let bytes =
    List.fold_left
      (fun acc (pid, _) -> acc + t.cprocs.(pid).cp_state_bytes)
      0 m.m_members
  in
  let max_member f =
    List.fold_left (fun acc (pid, _) -> Float.max acc (f t.cprocs.(pid))) 0.0
      m.m_members
  in
  (* members collect/restore in parallel on distinct hosts; the wire is
     shared, so transfer time is the summed bytes *)
  let collect_s =
    max_member (fun p -> float_of_int p.cp_state_bytes /. collect_bps)
  in
  let restore_s =
    max_member (fun p -> float_of_int p.cp_state_bytes /. restore_bps)
  in
  let jitter =
    jitter_s *. float_of_int (Rng.next_int t.rng mod 1000) /. 1000.0
  in
  let transfer_s =
    (float_of_int bytes /. bw_bps) +. latency_s +. jitter
  in
  m.m_transfer_done_s <- t.now +. collect_s +. transfer_s;
  schedule t
    ~time:(t.now +. collect_s +. transfer_s +. restore_s)
    (Ev_commit (m.m_id, m.m_version))

(* Abort an in-flight migration (source crash, or last member gone).
   Suspended members on live nodes resume where they were; members on
   dead nodes become crash victims; members still pre-poll just shed
   the request.  All-or-nothing: one abort releases every member. *)
let abort_mig t (m : cmig) ~reason =
  if not (m.m_cancelled || m.m_committed) then begin
    m.m_cancelled <- true;
    set_inflight t (-1);
    List.iter
      (fun (pid, src) ->
        let p = t.cprocs.(pid) in
        p.cp_mig <- None;
        t.n_failed <- t.n_failed + 1;
        let src_n = t.cnodes.(src) in
        emit t
          (Journal.entry ~ts:t.now ~ev:Journal.Failed ~proc:p.cp_name
             ~src:src_n.cn_name ~dst:t.cnodes.(m.m_dst).cn_name ~note:reason ());
        if p.cp_suspended then
          if src_n.cn_alive then begin
            (* still live: the retained source copy just resumes *)
            start_running t p src_n;
            reshare t src_n
          end
          else begin
            (* source died under the suspension: recover from checkpoint *)
            p.cp_suspended <- false;
            p.cp_down <- true;
            p.cp_done_s <-
              Float.of_int (int_of_float (p.cp_done_s /. ckpt_work_s))
              *. ckpt_work_s;
            schedule t
              ~time:(t.now +. restart_delay_s)
              (Ev_recover pid)
          end)
      m.m_members
  end

(* The destination died before commit: re-aim the whole migration at
   the least-loaded live node and re-run the wire transfer there. *)
let requeue_mig t (m : cmig) ~dead =
  match pick_node t ~avoid:[ dead ] with
  | None -> abort_mig t m ~reason:"no live node to requeue to"
  | Some alt ->
      let bytes =
        List.fold_left
          (fun acc (pid, _) -> acc + t.cprocs.(pid).cp_state_bytes)
          0 m.m_members
      in
      m.m_dst <- alt.cn_id;
      m.m_version <- m.m_version + 1;
      t.n_requeued <- t.n_requeued + List.length m.m_members;
      List.iter
        (fun (pid, src) ->
          let p = t.cprocs.(pid) in
          emit t
            (Journal.entry ~ts:t.now ~ev:Journal.Requeued ~proc:p.cp_name
               ~src:t.cnodes.(src).cn_name ~dst:alt.cn_name
               ~note:("dead " ^ t.cnodes.(dead).cn_name) ()))
        m.m_members;
      if m.m_begun then begin
        let transfer_s =
          (float_of_int bytes /. bw_bps) +. latency_s
        in
        m.m_transfer_done_s <- t.now +. transfer_s;
        schedule t
          ~time:(t.now +. transfer_s)
          (Ev_commit (m.m_id, m.m_version))
      end
(* not yet begun: members still drain to their poll points; the chain
   continues toward the new destination *)

(* Detach a member that finished before its poll point fired. *)
let detach_member t (m : cmig) pid =
  m.m_members <- List.filter (fun (id, _) -> id <> pid) m.m_members;
  m.m_waiting <- m.m_waiting - 1;
  if m.m_members = [] then begin
    m.m_cancelled <- true;
    set_inflight t (-1)
  end
  else if m.m_waiting = 0 && not m.m_begun then begin_transfer t m

(* ------------------------------------------------------------------ *)
(* Policy rounds                                                       *)
(* ------------------------------------------------------------------ *)

let node_view t : Policy.node_info list =
  Array.to_list t.cnodes
  |> List.map (fun n ->
         {
           Policy.ni_name = n.cn_name;
           ni_speed = n.cn_speed;
           ni_load = ISet.cardinal n.cn_running;
           ni_site = n.cn_site;
           ni_alive = n.cn_alive;
         })

let proc_view t : Policy.proc_info list =
  let acc = ref [] in
  for i = Array.length t.cprocs - 1 downto 0 do
    let p = t.cprocs.(i) in
    if not p.cp_finished then
      acc :=
        {
          Policy.pi_name = p.cp_name;
          pi_node = t.cnodes.(p.cp_node).cn_name;
          pi_group = p.cp_group;
          pi_runnable = not (p.cp_suspended || p.cp_down);
          pi_migrating = p.cp_mig <> None;
          pi_last_move_s = p.cp_last_move_s;
        }
        :: !acc
  done;
  !acc

let node_id t name =
  (* node names are "n%04d" *)
  match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
  | Some id when id >= 0 && id < Array.length t.cnodes -> Some id
  | _ -> None

let proc_id t name =
  match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
  | Some id when id >= 0 && id < Array.length t.cprocs -> Some id
  | _ -> None

(* Turn one policy round's decisions into migrations.  Decisions for
   grouped processes headed to the same destination fuse into a single
   gang migration (one commit, all-or-nothing); everything else is a
   singleton chain.  Members are asked at their next poll point. *)
let start_migrations t (decisions : Policy.decision list) =
  (* (group, dst) → member list, preserving first-appearance order *)
  let batches : (string * int * (int * int) list ref) list ref = ref [] in
  let singletons = ref [] in
  (* a process is claimable once per round, whatever the policy emitted *)
  let claimed = ref ISet.empty in
  List.iter
    (fun { Policy.d_proc; d_dst } ->
      match (proc_id t d_proc, node_id t d_dst) with
      | Some pid, Some dst ->
          let p = t.cprocs.(pid) in
          let dst_n = t.cnodes.(dst) in
          if
            (not p.cp_finished) && (not p.cp_suspended) && (not p.cp_down)
            && p.cp_mig = None && dst_n.cn_alive && p.cp_node <> dst
            && not (ISet.mem pid !claimed)
          then begin
            claimed := ISet.add pid !claimed;
            if p.cp_group <> "" then begin
              match
                List.find_opt
                  (fun (g, d, _) -> g = p.cp_group && d = dst)
                  !batches
              with
              | Some (_, _, members) ->
                  members := (pid, p.cp_node) :: !members
              | None ->
                  batches :=
                    !batches @ [ (p.cp_group, dst, ref [ (pid, p.cp_node) ]) ]
            end
            else singletons := (pid, p.cp_node, dst) :: !singletons
          end
      | _ -> ())
    decisions;
  let launch members dst =
    let members = List.rev members in
    let m =
      {
        m_id = Vec.length t.migs;
        m_dst = dst;
        m_members = members;
        m_waiting = List.length members;
        m_version = 0;
        m_begun = false;
        m_transfer_done_s = infinity;
        m_cancelled = false;
        m_committed = false;
        m_start_s = t.now;
      }
    in
    Vec.push t.migs m;
    set_inflight t 1;
    let poll_at = next_poll_s t in
    List.iter
      (fun (pid, src) ->
        let p = t.cprocs.(pid) in
        p.cp_mig <- Some m.m_id;
        p.cp_last_move_s <- t.now;
        t.n_requested <- t.n_requested + 1;
        emit t
          (Journal.entry ~ts:t.now ~ev:Journal.Requested ~proc:p.cp_name
             ~src:t.cnodes.(src).cn_name ~dst:t.cnodes.(dst).cn_name ());
        schedule t ~time:poll_at (Ev_poll (pid, m.m_id)))
      members
  in
  List.iter
    (fun (g, dst, members) ->
      ignore (g : string);
      launch !members dst)
    !batches;
  List.iter (fun (pid, src, dst) -> launch [ (pid, src) ] dst)
    (List.rev !singletons)

(* ------------------------------------------------------------------ *)
(* Event handlers                                                      *)
(* ------------------------------------------------------------------ *)

let handle t = function
  | Ev_finish (pid, version) ->
      let p = t.cprocs.(pid) in
      if (not p.cp_finished) && p.cp_version = version then begin
        let n = t.cnodes.(p.cp_node) in
        p.cp_done_s <- p.cp_work_s;
        p.cp_finished <- true;
        p.cp_rate <- 0.0;
        t.finished <- t.finished + 1;
        n.cn_running <- ISet.remove pid n.cn_running;
        (* a request it never noticed dies with it *)
        (match p.cp_mig with
        | Some mid ->
            let m = Vec.get t.migs mid in
            p.cp_mig <- None;
            if not (m.m_cancelled || m.m_committed) then detach_member t m pid
        | None -> ());
        emit t
          (Journal.entry ~ts:t.now ~ev:Journal.Finished ~proc:p.cp_name
             ~node:n.cn_name ());
        reshare t n
      end
  | Ev_poll (pid, mid) ->
      let p = t.cprocs.(pid) in
      let m = Vec.get t.migs mid in
      if
        (not p.cp_finished) && p.cp_mig = Some mid
        && not (m.m_cancelled || m.m_committed)
      then begin
        stop_running t p;
        p.cp_suspended <- true;
        m.m_waiting <- m.m_waiting - 1;
        if m.m_waiting = 0 then begin_transfer t m
      end
  | Ev_commit (mid, version) ->
      let m = Vec.get t.migs mid in
      if (not (m.m_cancelled || m.m_committed)) && m.m_version = version then begin
        let dst = t.cnodes.(m.m_dst) in
        if not dst.cn_alive then
          (* razor-thin race: the commit popped at the same instant as
             the crash; treat as pre-commit death *)
          requeue_mig t m ~dead:m.m_dst
        else begin
          m.m_committed <- true;
          set_inflight t (-1);
          let dur = t.now -. m.m_start_s in
          if Hpm_obs.Obs.metrics_on () then
            Hpm_obs.Obs.observe "hpm_cluster_migration_seconds" [] dur;
          List.iter
            (fun (pid, src) ->
              let p = t.cprocs.(pid) in
              p.cp_mig <- None;
              p.cp_epoch <- p.cp_epoch + 1;
              p.cp_migrations <- p.cp_migrations + 1;
              p.cp_last_move_s <- t.now;
              t.n_migrations <- t.n_migrations + 1;
              start_running t p dst;
              emit t
                (Journal.entry ~ts:t.now ~ev:Journal.Migrated ~proc:p.cp_name
                   ~src:t.cnodes.(src).cn_name ~dst:dst.cn_name
                   ~epoch:p.cp_epoch ~stream_bytes:p.cp_state_bytes
                   ~collected_bytes:p.cp_state_bytes
                   ~restored_bytes:p.cp_state_bytes ~time_s:dur ()))
            m.m_members;
          reshare t dst
        end
      end
  | Ev_crash nid ->
      let n = t.cnodes.(nid) in
      let live =
        Array.fold_left
          (fun acc x -> if x.cn_alive then acc + 1 else acc)
          0 t.cnodes
      in
      if n.cn_alive && live > 1 then begin
        n.cn_alive <- false;
        t.n_crashes <- t.n_crashes + 1;
        observe t "crash";
        (* resolve in-flight migrations touching this node, in id order *)
        for i = 0 to Vec.length t.migs - 1 do
          let m = Vec.get t.migs i in
          if not (m.m_cancelled || m.m_committed) then
            if m.m_dst = nid then requeue_mig t m ~dead:nid
            else if
              List.exists (fun (_, src) -> src = nid) m.m_members
              && t.now < m.m_transfer_done_s
            then
              abort_mig t m
                ~reason:
                  (Printf.sprintf "source %s crashed mid-handoff" n.cn_name)
        done;
        (* everything still running here recovers from its checkpoint *)
        let victims = ISet.elements n.cn_running in
        n.cn_running <- ISet.empty;
        List.iter
          (fun pid ->
            let p = t.cprocs.(pid) in
            if not p.cp_finished then begin
              accumulate t p;
              p.cp_rate <- 0.0;
              p.cp_version <- p.cp_version + 1;
              p.cp_down <- true;
              (match p.cp_mig with
              | Some mid ->
                  let m = Vec.get t.migs mid in
                  if not (m.m_cancelled || m.m_committed) then
                    abort_mig t m
                      ~reason:
                        (Printf.sprintf "source %s crashed before handoff"
                           n.cn_name);
                  p.cp_mig <- None
              | None -> ());
              p.cp_done_s <-
                Float.of_int (int_of_float (p.cp_done_s /. ckpt_work_s))
                *. ckpt_work_s;
              schedule t
                ~time:(t.now +. restart_delay_s)
                (Ev_recover pid)
            end)
          victims
      end
  | Ev_recover pid ->
      let p = t.cprocs.(pid) in
      if (not p.cp_finished) && p.cp_down then begin
        match pick_node t ~avoid:[] with
        | None -> (* no live node at all: retry after another delay *)
            schedule t
              ~time:(t.now +. restart_delay_s)
              (Ev_recover pid)
        | Some target ->
            p.cp_epoch <- p.cp_epoch + 1;
            t.n_recovered <- t.n_recovered + 1;
            start_running t p target;
            emit t
              (Journal.entry ~ts:t.now ~ev:Journal.Recovered ~proc:p.cp_name
                 ~node:target.cn_name ~epoch:p.cp_epoch
                 ~note:"crash recovery: modelled checkpoint" ());
            reshare t target
      end
  | Ev_policy ->
      if t.finished < Array.length t.cprocs then begin
        start_migrations t
          (Policy.decide t.policy ~now:t.now (node_view t) (proc_view t));
        schedule t ~time:(t.now +. policy_every_s) Ev_policy
      end

(* ------------------------------------------------------------------ *)
(* Setup and run                                                       *)
(* ------------------------------------------------------------------ *)

let validate (c : config) =
  if c.c_nodes < 2 then invalid_arg "Cluster: need at least 2 nodes";
  if c.c_procs < 1 then invalid_arg "Cluster: need at least 1 process"

let create ?journal ?policy (c : config) : t =
  validate c;
  let policy =
    match policy with
    | Some p -> p
    | None ->
        Policy.with_hysteresis ~cooldown_s:c.c_cooldown_s
          (Policy.gang (Policy.least_loaded ~max_moves:c.c_max_moves ()))
  in
  let rng = Rng.create c.c_seed in
  let cnodes =
    Array.init c.c_nodes (fun i ->
        {
          cn_id = i;
          cn_name = Printf.sprintf "n%04d" i;
          cn_speed = speeds.(i mod Array.length speeds);
          cn_site = Printf.sprintf "s%02d" (i mod max 1 c.c_sites);
          cn_alive = true;
          cn_running = ISet.empty;
        })
  in
  let span = state_bytes_max - state_bytes_min + 1 in
  let hot = max 1 (int_of_float (float_of_int c.c_nodes *. hot_frac)) in
  let cprocs =
    Array.init c.c_procs (fun i ->
        let work =
          mean_work_s
          *. (0.5 +. (float_of_int (Rng.next_int rng mod 1000) /. 1000.0))
        in
        let bytes = state_bytes_min + (Rng.next_int rng mod span) in
        let group =
          if i < c.c_gang_groups * c.c_gang_size then
            Printf.sprintf "g%03d" (i / max 1 c.c_gang_size)
          else ""
        in
        {
          cp_id = i;
          cp_name = Printf.sprintf "p%05d" i;
          cp_group = group;
          cp_work_s = work;
          cp_state_bytes = bytes;
          cp_node = i mod hot;
          cp_done_s = 0.0;
          cp_rate = 0.0;
          cp_updated_s = 0.0;
          cp_version = 0;
          cp_mig = None;
          cp_suspended = false;
          cp_down = false;
          cp_finished = false;
          cp_epoch = 1;
          cp_migrations = 0;
          cp_last_move_s = neg_infinity;
        })
  in
  let t =
    {
      policy;
      cnodes;
      cprocs;
      heap = Eheap.create ();
      rng;
      migs = Vec.create ();
      journal;
      now = 0.0;
      finished = 0;
      inflight = 0;
      peak_inflight = 0;
      processed = 0;
      n_requested = 0;
      n_migrations = 0;
      n_failed = 0;
      n_requeued = 0;
      n_recovered = 0;
      n_crashes = 0;
    }
  in
  (* spawn everything at t=0, then share each hot node's CPU once *)
  Array.iter
    (fun p ->
      let n = cnodes.(p.cp_node) in
      n.cn_running <- ISet.add p.cp_id n.cn_running;
      emit t
        (Journal.entry ~ts:0.0 ~ev:Journal.Spawned ~proc:p.cp_name
           ~node:n.cn_name ()))
    cprocs;
  Array.iter (fun n -> reshare t n) cnodes;
  (* seeded crash plan: distinct nodes, times spread over the window *)
  let crashed = Hashtbl.create 16 in
  let planned = ref 0 in
  while !planned < min c.c_crash_nodes (c.c_nodes - 1) do
    let nid = Rng.next_int rng mod c.c_nodes in
    if not (Hashtbl.mem crashed nid) then begin
      Hashtbl.replace crashed nid ();
      let at =
        crash_from_s
        +. crash_window_s
           *. float_of_int (Rng.next_int rng mod 1000)
           /. 1000.0
      in
      schedule t ~time:at (Ev_crash nid);
      incr planned
    end
  done;
  schedule t ~time:policy_every_s Ev_policy;
  t

(** Run the scenario to completion (every process finished), the event
    heap draining dry, or the [max_sim_s] horizon — whichever first.
    Returns the same [t] for inspection. *)
let run (t : t) : t =
  let continue = ref true in
  while !continue do
    if t.finished >= Array.length t.cprocs then continue := false
    else
      match Eheap.pop t.heap with
      | None -> continue := false
      | Some (time, _, ev) ->
          if time > max_sim_s then continue := false
          else begin
            t.now <- time;
            if Hpm_obs.Obs.on () then Hpm_obs.Obs.set_now time;
            t.processed <- t.processed + 1;
            handle t ev
          end
  done;
  t

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  cs_events : int;          (** events executed (stale included) *)
  cs_spawned : int;
  cs_finished : int;
  cs_requested : int;
  cs_migrations : int;      (** committed member moves *)
  cs_failed : int;
  cs_requeued : int;
  cs_recovered : int;
  cs_crashes : int;
  cs_peak_inflight : int;
  cs_makespan_s : float;    (** simulated time of the last event *)
  cs_journal_bytes : int;   (** HPMJ bytes this run appended *)
}

let stats (t : t) : stats =
  {
    cs_events = t.processed;
    cs_spawned = Array.length t.cprocs;
    cs_finished = t.finished;
    cs_requested = t.n_requested;
    cs_migrations = t.n_migrations;
    cs_failed = t.n_failed;
    cs_requeued = t.n_requeued;
    cs_recovered = t.n_recovered;
    cs_crashes = t.n_crashes;
    cs_peak_inflight = t.peak_inflight;
    cs_makespan_s = t.now;
    cs_journal_bytes =
      (match t.journal with None -> 0 | Some j -> Journal.bytes_written j);
  }

(** Gang groups and their member process names, group-name order. *)
let groups (t : t) : (string * string list) list =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      if p.cp_group <> "" then
        Hashtbl.replace tbl p.cp_group
          (p.cp_name
           :: (match Hashtbl.find_opt tbl p.cp_group with
              | Some l -> l
              | None -> [])))
    t.cprocs;
  Hashtbl.fold (fun g members acc -> (g, List.rev members) :: acc) tbl []
  |> List.sort compare

(** Final placement: process name → node name (finished processes
    report the node they finished on). *)
let placement (t : t) : (string * string) list =
  Array.to_list t.cprocs
  |> List.map (fun p -> (p.cp_name, t.cnodes.(p.cp_node).cn_name))

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "events %d; finished %d/%d; migrations %d (requested %d, failed %d, \
     requeued %d); recovered %d after %d crashes; peak in-flight %d; \
     makespan %.3f s; journal %d B"
    s.cs_events s.cs_finished s.cs_spawned s.cs_migrations s.cs_requested
    s.cs_failed s.cs_requeued s.cs_recovered s.cs_crashes s.cs_peak_inflight
    s.cs_makespan_s s.cs_journal_bytes
