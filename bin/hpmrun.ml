(* hpmrun: run a Mini-C program, optionally migrating it between two
   simulated machines mid-execution.

     hpmrun FILE                          run on ultra5, no migration
     hpmrun FILE --from dec5000 --to sparc20 --after-polls 100
     hpmrun workload:bitonic:5000 --from sparc20 --to x86_64 --report
     hpmrun workload:nqueens:6 --to x86_64 --crash-dst-after restore --report

   FILE may be "workload:NAME[:N]" for a built-in workload.  Every --to
   migration runs the crash-consistent two-phase handoff
   (docs/PROTOCOL.md) over a simulated 10 Mb/s link; link-fault flags
   (--loss, --corrupt) and node-fault flags (--crash-src-after,
   --crash-dst-after, --drop-ack, --drop-probe) only change what that
   link and those nodes do.  --report prints the protocol trace. *)

open Cmdliner
open Hpm_core
open Hpm_net
open Hpm_store

let read_input (spec : string) : string =
  match String.split_on_char ':' spec with
  | [ "workload"; name ] ->
      let w = Hpm_workloads.Registry.find_exn name in
      w.Hpm_workloads.Registry.source w.Hpm_workloads.Registry.default_n
  | [ "workload"; name; n ] ->
      let w = Hpm_workloads.Registry.find_exn name in
      w.Hpm_workloads.Registry.source (int_of_string n)
  | _ ->
      let ic = open_in_bin spec in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s

(* Store process names mirror the file spec with anything outside the
   manifest-safe alphabet mapped to '_'. *)
let store_proc_name (spec : string) : string =
  String.map
    (function ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-') as c -> c | _ -> '_')
    spec

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let parse_phase flag = function
  | None -> None
  | Some s -> (
      match Netsim.phase_of_string s with
      | Some p -> Some p
      | None ->
          Fmt.epr "hpmrun: %s must be one of %s (got %S)@." flag
            (String.concat ", " (List.map Netsim.phase_name Netsim.all_phases))
            s;
          exit 1)

(* Start [m] on [arch] and run it to the (K+1)-th poll.  A process that
   finishes first prints its output and "; process finished before
   [what]", and gives [None]. *)
let run_to_poll m arch ~after ~what =
  let p = Migration.start m arch in
  Hpm_machine.Interp.request_migration_after p after;
  match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RPolled _ -> Some p
  | Hpm_machine.Interp.RDone _ ->
      print_string (Hpm_machine.Interp.output p);
      Fmt.pr "; process finished before %s@." what;
      None
  | Hpm_machine.Interp.RFuel -> assert false

(* Run the surviving copy to completion and print its output (exit 0),
   or report that it did not finish [after] (exit 2). *)
let run_survivor interp ~after =
  match Hpm_machine.Interp.run interp with
  | Hpm_machine.Interp.RDone _ ->
      print_string (Hpm_machine.Interp.output interp);
      0
  | _ ->
      Fmt.epr "hpmrun: process did not run to completion after %s@." after;
      2

(* Print the handoff trace and outcome, then [pre] (the output released
   before the handoff), then finish the surviving copy and print its
   output.  [p] is the (suspended) source interpreter. *)
let conclude_handoff m p (res : Handoff.result) ~pre ~report ~show_net =
  if report then Fmt.pr "%a" Handoff.pp_trace res.Handoff.trace;
  Fmt.pr "; %a@." Handoff.pp_outcome res.Handoff.outcome;
  (match res.Handoff.outcome with
  | Handoff.Committed c when report ->
      Fmt.pr "; %a@.; %a@.; %a@." Hpm_core.Cstats.pp_collect c.Handoff.c_cstats
        Hpm_core.Cstats.pp_restore c.Handoff.c_rstats Transport.pp_stats
        c.Handoff.c_tstats;
      if show_net then (
        let tx ch = Netsim.tx_time ch c.Handoff.c_stream_bytes in
        Fmt.pr "; Tx over 10Mb Ethernet : %.4f s@." (tx (Netsim.ethernet_10 ()));
        Fmt.pr "; Tx over 100Mb Ethernet: %.4f s@." (tx (Netsim.ethernet_100 ())))
  | _ -> ());
  print_string pre;
  run_survivor (Handoff.survivor m p res) ~after:"the handoff"

(* Run to the poll-point on the source, hand off under the two-phase
   protocol, then finish the surviving copy and print its output. *)
let run_handoff m ~src_arch ~dst_arch ~after ~channel ~config ~report ~show_net =
  match run_to_poll m src_arch ~after ~what:"the migration triggered" with
  | None -> 0
  | Some p ->
      let res = Handoff.execute ~config ~channel ~epoch:1 m p dst_arch in
      conclude_handoff m p res ~pre:(Hpm_machine.Interp.output p) ~report ~show_net

(* Iterative pre-copy migration through the store: ship a full snapshot
   and converging deltas while the source runs, then hand off under the
   two-phase protocol carrying only the final delta on the wire. *)
let run_precopy m ~src_arch ~dst_arch ~after ~channel ~config ~report ~show_net
    ~st ~proc ~rounds ~threshold =
  match run_to_poll m src_arch ~after ~what:"the migration triggered" with
  | None -> 0
  | Some p -> (
      let epoch0 =
        match Store.latest_manifest st ~proc with
        | Some mf -> mf.Store.mf_epoch + 1
        | None -> 1
      in
      let pconfig =
        { Precopy.default_config with Precopy.rounds; threshold; handoff = config }
      in
      let pres =
        Precopy.execute ~config:pconfig ~channel ~dst_store:st ~proc ~epoch0 m p
          dst_arch
      in
      if report then (
        List.iter (fun r -> Fmt.pr "; %a@." Precopy.pp_round r) pres.Precopy.p_rounds;
        Fmt.pr "; pre-copy %s after %d round(s); %a@."
          (if pres.Precopy.p_converged then "converged" else "did not converge")
          (List.length pres.Precopy.p_rounds)
          Hpm_core.Cstats.pp_delta pres.Precopy.p_stats);
      match pres.Precopy.p_outcome with
      | Precopy.Handed_off hres ->
          conclude_handoff m p hres ~pre:(Hpm_machine.Interp.output p) ~report ~show_net
      | Precopy.Finished_before_handoff ->
          print_string (Hpm_machine.Interp.output p);
          Fmt.pr "; process finished during pre-copy; nothing migrated@.";
          0
      | Precopy.Round_link_failed { rl_round; rl_reason; _ } -> (
          Fmt.pr "; pre-copy round %d failed (%s); source copy resumes locally@."
            rl_round rl_reason;
          run_survivor p ~after:"the failed round"))

let run file from_ to_ after report show_net loss corrupt
    max_retries net_seed crash_src crash_dst drop_ack drop_probe ack_deadline
    probe_retries store_dir delta precopy_rounds precopy_threshold restore_store
    store_gc gc_dry_run journal_file trace_file metrics_file standby
    replica_epochs promote =
  let module Obs = Hpm_obs.Obs in
  let obs_on = trace_file <> None || metrics_file <> None in
  if obs_on then begin
    if trace_file <> None then Obs.set_trace (Some (Obs.Trace.create ()));
    if metrics_file <> None then Obs.set_metrics (Some (Obs.Metrics.create ()));
    Hpm_xdr.Xdr.reset_io_counters ();
    Hpm_xdr.Xdr.count_io := true;
    match file with
    | Some f -> Obs.set_labels [ ("proc", store_proc_name f) ]
    | None -> ()
  end;
  (* On exit, fold the XDR byte counters into the registry and write the
     requested sinks.  Error paths that [exit] early skip the dump. *)
  let finish_obs rc =
    if obs_on then begin
      if Obs.metrics_on () then begin
        Obs.inc "hpm_xdr_encoded_bytes_total" []
          ~by:(float_of_int !Hpm_xdr.Xdr.encoded_bytes);
        Obs.inc "hpm_xdr_decoded_bytes_total" []
          ~by:(float_of_int !Hpm_xdr.Xdr.decoded_bytes)
      end;
      (match (metrics_file, !Obs.cur_metrics) with
      | Some path, Some reg -> write_file path (Obs.Metrics.render reg)
      | _ -> ());
      (match (trace_file, !Obs.cur_trace) with
      | Some path, Some tr -> write_file path (Obs.Trace.to_json tr)
      | _ -> ());
      Hpm_xdr.Xdr.count_io := false;
      Obs.reset ()
    end;
    rc
  in
  finish_obs
  @@ (
  if loss < 0.0 || loss > 1.0 then (
    Fmt.epr "hpmrun: --loss must be in [0,1] (got %g)@." loss;
    exit 1);
  if corrupt < 0.0 || corrupt > 1.0 then (
    Fmt.epr "hpmrun: --corrupt must be in [0,1] (got %g)@." corrupt;
    exit 1);
  if max_retries < 0 then (
    Fmt.epr "hpmrun: --max-retries must be non-negative (got %d)@." max_retries;
    exit 1);
  if drop_ack < 0 then (
    Fmt.epr "hpmrun: --drop-ack must be non-negative (got %d)@." drop_ack;
    exit 1);
  if drop_probe < 0 then (
    Fmt.epr "hpmrun: --drop-probe must be non-negative (got %d)@." drop_probe;
    exit 1);
  if ack_deadline <= 0.0 then (
    Fmt.epr "hpmrun: --ack-deadline must be positive (got %g)@." ack_deadline;
    exit 1);
  if probe_retries < 0 then (
    Fmt.epr "hpmrun: --probe-retries must be non-negative (got %d)@." probe_retries;
    exit 1);
  (match precopy_rounds with
  | Some r when r < 1 ->
      Fmt.epr "hpmrun: --precopy-rounds must be >= 1 (got %d)@." r;
      exit 1
  | _ -> ());
  if precopy_threshold < 0.0 then (
    Fmt.epr "hpmrun: --precopy-threshold must be non-negative (got %g)@."
      precopy_threshold;
    exit 1);
  (match store_gc with
  | Some k when k < 0 ->
      Fmt.epr "hpmrun: --store-gc must be non-negative (got %d)@." k;
      exit 1
  | _ -> ());
  if
    store_dir = None
    && (delta || restore_store || precopy_rounds <> None || store_gc <> None
       || standby > 0)
  then (
    Fmt.epr
      "hpmrun: --delta, --restore-latest, --precopy-rounds, --standby and \
       --store-gc need --store-dir@.";
    exit 1);
  if precopy_rounds <> None && to_ = None then (
    Fmt.epr "hpmrun: --precopy-rounds needs --to@.";
    exit 1);
  if standby < 0 then (
    Fmt.epr "hpmrun: --standby must be non-negative (got %d)@." standby;
    exit 1);
  if replica_epochs < 1 then (
    Fmt.epr "hpmrun: --replica-epochs must be >= 1 (got %d)@." replica_epochs;
    exit 1);
  if promote && standby = 0 then (
    Fmt.epr "hpmrun: --promote needs --standby@.";
    exit 1);
  (* with --standby, --crash-src-after names a replication phase rather
     than a handoff phase *)
  let rep_crash =
    if standby = 0 then None
    else
      match crash_src with
      | None -> None
      | Some s -> (
          match Netsim.rep_phase_of_string s with
          | Some p -> Some p
          | None ->
              Fmt.epr
                "hpmrun: with --standby, --crash-src-after must be one of %s (got %S)@."
                (String.concat ", "
                   (List.map Netsim.rep_phase_name Netsim.all_rep_phases))
                s;
              exit 1)
  in
  let crash_src =
    if standby > 0 then None else parse_phase "--crash-src-after" crash_src
  in
  let crash_dst = parse_phase "--crash-dst-after" crash_dst in
  (* a networked migration crosses the paper's §4.1 10 Mb/s link under a
     seeded (replayable) fault schedule, with any node faults installed *)
  let network () =
    let channel =
      Netsim.ethernet_10
        ~faults:(Netsim.fault_model ~loss_rate:loss ~corrupt_rate:corrupt ~seed:net_seed ())
        ()
    in
    Netsim.set_node_faults channel
      (Some
         (Netsim.node_faults ?crash_source_after:crash_src ?crash_dest_after:crash_dst
            ~drop_commit_acks:drop_ack ~drop_probe_replies:drop_probe ()));
    let transport = { Transport.default_config with max_retries } in
    ( channel,
      { Handoff.default_config with Handoff.transport; ack_deadline_s = ack_deadline;
        probe_retries } )
  in
  let store =
    match store_dir with
    | None -> None
    | Some dir -> (
        try Some (Store.open_store dir)
        with Store.Error msg ->
          Fmt.epr "hpmrun: %s@." msg;
          exit 1)
  in
  if gc_dry_run && store_gc = None then (
    Fmt.epr "hpmrun: --gc-dry-run needs --store-gc@.";
    exit 1);
  match (store_gc, store) with
  | Some keep, Some st when gc_dry_run ->
      (* dry run: the same retention predicate `query gc-candidates`
         applies, printed instead of enforced — nothing is deleted *)
      let journal =
        match journal_file with
        | Some p -> Some (Hpm_store.Journal.load p)
        | None -> None
      in
      let victims =
        Hpm_query.Report.retention_victims ~store:st ?journal ~keep_last:keep ()
      in
      List.iter
        (fun (proc, epoch, _) -> Fmt.pr "would drop %s epoch %d@." proc epoch)
        victims;
      Fmt.pr "gc dry run: %d candidate manifest(s), nothing deleted@."
        (List.length victims);
      0
  | Some keep, Some st ->
      (* maintenance mode: no program involved *)
      List.iter (fun proc -> ignore (Store.retain st ~proc ~keep : int)) (Store.procs st);
      Fmt.pr "%a@." Store.pp_gc (Store.gc st);
      0
  | _ -> (
  let file =
    match file with
    | Some f -> f
    | None ->
        Fmt.epr "hpmrun: FILE is required@.";
        exit 1
  in
  try
    let m = Migration.prepare (read_input file) in
    let proc = store_proc_name file in
    match store with
    | Some st when restore_store -> (
        (* resume the newest committed snapshot on --from *)
        let arch = Hpm_arch.Arch.by_name_exn from_ in
        (* an edited program is refused by name, not as "no snapshot":
           restore_latest skips every epoch it cannot restore *)
        Option.iter
          (fun mf -> Restore.check_fingerprint m.Migration.ti mf.Store.mf_prog_hash)
          (Store.latest_manifest st ~proc);
        match Snapshot.restore_latest m arch st ~proc with
        | None ->
            Fmt.epr "hpmrun: no recoverable snapshot for %s in the store@." proc;
            3
        | Some (interp, rstats, mf) ->
            if report || delta then
              Fmt.pr "; restored store epoch %d@.; %a@." mf.Store.mf_epoch
                Hpm_core.Cstats.pp_restore rstats;
            run_survivor interp ~after:"the restore")
    | Some st when standby > 0 -> (
        (* continuous delta replication: stream wgen-dirty deltas to the
           store and N warm standbys each epoch; --promote fails over to
           the freshest committed standby after a source crash *)
        let src_arch = Hpm_arch.Arch.by_name_exn from_ in
        let sb_arch =
          match to_ with
          | Some t -> Hpm_arch.Arch.by_name_exn t
          | None -> src_arch
        in
        let channel = Hpm_net.Netsim.ethernet_10 () in
        let standbys =
          List.init standby (fun i -> (Printf.sprintf "sb%d" i, sb_arch))
        in
        let faults =
          match rep_crash with
          | Some (Netsim.Rp_stream as ph) ->
              Some (Netsim.rep_faults ~crash_source_at:(ph, replica_epochs) ())
          | Some (Netsim.Rp_final_delta as ph) ->
              (* the final delta ships as epoch replica_epochs+1, during
                 the planned migration *)
              Some
                (Netsim.rep_faults ~crash_source_at:(ph, replica_epochs + 1) ())
          | Some Netsim.Rp_commit | None ->
              (* commit crashes are a handoff-protocol fault, injected
                 below through the two-phase machinery *)
              None
        in
        match run_to_poll m src_arch ~after ~what:"replication started" with
        | None -> 0
        | Some p -> (
            let journal =
              match journal_file with
              | Some path -> Some (Hpm_store.Journal.open_journal path)
              | None -> None
            in
            let r =
              Replica.create ?faults ?journal ~channel ~store:st ~proc ~standbys
                m p
            in
            let print_events () =
              if report then
                List.iter
                  (fun e -> Fmt.pr "; %a@." Replica.pp_event e)
                  (Replica.events r)
            in
            let do_promote ~why =
              let pm = Replica.promote r in
              print_events ();
              Fmt.pr
                "; %s; promoted %s at epoch %d (catch-up %d epoch(s), \
                 incarnation %d)@."
                why pm.Replica.pm_sub pm.Replica.pm_epoch pm.Replica.pm_catchup
                pm.Replica.pm_incarnation;
              print_string (Replica.released_output r);
              run_survivor pm.Replica.pm_interp ~after:"the failover"
            in
            let crashed ph =
              if promote then
                do_promote
                  ~why:
                    (Printf.sprintf "source crashed during %s"
                       (Netsim.rep_phase_name ph))
              else (
                print_events ();
                Fmt.epr
                  "hpmrun: source crashed during %s; re-run with --promote to \
                   fail over@."
                  (Netsim.rep_phase_name ph);
                3)
            in
            match Replica.run r ~epochs:replica_epochs with
            | Replica.Source_finished ->
                print_events ();
                Fmt.pr "; process finished after %d replication epoch(s)@."
                  (Replica.epoch r);
                print_string (Replica.output r);
                0
            | Replica.Source_crashed ph -> crashed ph
            | Replica.Streamed _ -> (
                let wants_migration =
                  to_ <> None
                  ||
                  match rep_crash with
                  | Some (Netsim.Rp_final_delta | Netsim.Rp_commit) -> true
                  | _ -> false
                in
                if wants_migration then (
                  (* planned migration onto a standby: catch it up, ship
                     only the final delta, hand off under the two-phase
                     protocol *)
                  let hfaults =
                    match rep_crash with
                    | Some Netsim.Rp_commit ->
                        Some
                          (Netsim.node_faults
                             ~crash_source_after:Netsim.Ph_commit ())
                    | _ -> None
                  in
                  match Replica.migrate ?faults:hfaults r ~sub:"sb0" with
                  | Replica.Crashed_before_handoff ph -> crashed ph
                  | Replica.Finished_before_migration ->
                      print_events ();
                      print_string (Replica.output r);
                      Fmt.pr "; process finished before the final delta@.";
                      0
                  | Replica.Migrated res ->
                      print_events ();
                      conclude_handoff m p res ~pre:(Replica.output r) ~report
                        ~show_net)
                else if promote then
                  (* operator-initiated failover drill: fence the live
                     source and continue on the freshest standby *)
                  do_promote ~why:"operator failover requested"
                else (
                  print_events ();
                  Fmt.pr
                    "; replicated %d epoch(s) to %d standby(s); store at epoch \
                     %d@."
                    (Replica.epoch r) standby (Replica.epoch r);
                  print_string (Replica.released_output r);
                  0))))
    | Some st when to_ = None -> (
        (* incremental snapshot mode: run to the poll, commit, stop *)
        let arch = Hpm_arch.Arch.by_name_exn from_ in
        match run_to_poll m arch ~after ~what:"the snapshot point" with
        | None -> 0
        | Some p ->
            let epoch =
              match Store.latest_manifest st ~proc with
              | Some mf -> mf.Store.mf_epoch + 1
              | None -> 1
            in
            let mf, chunks, stats = Snapshot.collect ~epoch ~proc p m.Migration.ti in
            Snapshot.persist st mf chunks stats;
            print_string (Hpm_machine.Interp.output p);
            Fmt.pr "; snapshot epoch %d committed (manifest %s)@." epoch
              (Store.hash_hex (Store.manifest_hash mf));
            if report || delta then Fmt.pr "; %a@." Hpm_core.Cstats.pp_delta stats;
            0)
    | Some st when precopy_rounds <> None ->
        let rounds = Option.get precopy_rounds in
        let src_arch = Hpm_arch.Arch.by_name_exn from_ in
        let dst_arch = Hpm_arch.Arch.by_name_exn (Option.get to_) in
        let channel, config = network () in
        run_precopy m ~src_arch ~dst_arch ~after ~channel ~config ~report ~show_net
          ~st ~proc ~rounds ~threshold:precopy_threshold
    | Some _ | None -> (
    match to_ with
    | None ->
        let arch = Hpm_arch.Arch.by_name_exn from_ in
        let out, ret, stats = Migration.run_plain m arch in
        print_string out;
        if report then (
          Fmt.pr "; exit=%s@."
            (match ret with
            | Some (Hpm_machine.Mem.Vint v) -> Int64.to_string v
            | _ -> "void");
          Fmt.pr "; %a@." Hpm_machine.Mstats.pp stats);
        0
    | Some toname ->
        let src_arch = Hpm_arch.Arch.by_name_exn from_ in
        let dst_arch = Hpm_arch.Arch.by_name_exn toname in
        let channel, config = network () in
        run_handoff m ~src_arch ~dst_arch ~after ~channel ~config ~report ~show_net)
  with
  | Hpm_lang.Lexer.Error (m, l, c) ->
      Fmt.epr "lexical error at %d:%d: %s@." l c m;
      1
  | Hpm_lang.Parser.Error (m, l, c) ->
      Fmt.epr "syntax error at %d:%d: %s@." l c m;
      1
  | Hpm_lang.Typecheck.Error (m, loc) ->
      Fmt.epr "type error at %a: %s@." Hpm_lang.Ast.pp_loc loc m;
      1
  | Hpm_ir.Diag.Rejected diags ->
      Fmt.epr "program rejected by static analysis:@.";
      List.iter (fun d -> Fmt.epr "  %a@." Hpm_ir.Diag.pp d) diags;
      1
  | Hpm_machine.Interp.Trap m | Hpm_machine.Mem.Fault m ->
      Fmt.epr "runtime fault: %s@." m;
      2
  | Restore.Error m | Stream.Corrupt m | Hpm_xdr.Xdr.Underflow m | Collect.Error m ->
      Fmt.epr "migration error: %s@." m;
      3
  | Store.Error m | Store.Corrupt m ->
      Fmt.epr "store error: %s@." m;
      3
  | Store.Base_mismatch (want, got) ->
      Fmt.epr "store error: delta base mismatch (destination holds %s, delta against %s)@."
        want got;
      3))

let () =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"source file or workload:NAME[:N] (optional under --store-gc)")
  in
  let from_ =
    Arg.(value & opt string "ultra5" & info [ "from" ] ~docv:"ARCH" ~doc:"source machine")
  in
  let to_ =
    Arg.(value & opt (some string) None & info [ "to" ] ~docv:"ARCH" ~doc:"destination machine (enables migration)")
  in
  let after =
    Arg.(value & opt int 0 & info [ "after-polls" ] ~docv:"K" ~doc:"migrate at the (K+1)-th poll event")
  in
  let report = Arg.(value & flag & info [ "report" ] ~doc:"print the handoff trace and migration statistics") in
  let show_net = Arg.(value & flag & info [ "net" ] ~doc:"print simulated network transfer times") in
  let loss =
    Arg.(value & opt float 0.0
         & info [ "loss" ] ~docv:"P"
             ~doc:"per-chunk truncation probability on the simulated 10 Mb/s link")
  in
  let corrupt =
    Arg.(value & opt float 0.0
         & info [ "corrupt" ] ~docv:"P"
             ~doc:"per-chunk byte-flip probability on the simulated link")
  in
  let max_retries =
    Arg.(value & opt int Hpm_net.Transport.default_config.Hpm_net.Transport.max_retries
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"retransmissions per chunk before the transfer aborts and the \
                   process resumes on the source machine")
  in
  let net_seed =
    Arg.(value & opt int 1
         & info [ "net-seed" ] ~docv:"SEED"
             ~doc:"seed of the deterministic fault schedule (replays exactly)")
  in
  let crash_src =
    Arg.(value & opt (some string) None
         & info [ "crash-src-after" ] ~docv:"PHASE"
             ~doc:"crash the source node after PHASE (collect, transfer, restore, \
                   commit, release); it restarts and recovers per the handoff protocol")
  in
  let crash_dst =
    Arg.(value & opt (some string) None
         & info [ "crash-dst-after" ] ~docv:"PHASE"
             ~doc:"crash the destination node after PHASE; a pre-commit crash aborts \
                   the epoch, a post-commit crash restarts from the durable image")
  in
  let drop_ack =
    Arg.(value & opt int 0
         & info [ "drop-ack" ] ~docv:"N"
             ~doc:"drop the first N COMMIT acks (the lost-ack ambiguity, resolved by \
                   epoch probes)")
  in
  let drop_probe =
    Arg.(value & opt int 0
         & info [ "drop-probe" ] ~docv:"N"
             ~doc:"drop the first N epoch-probe replies; exhausting every probe \
                   stalls the handoff with the checkpoint retained")
  in
  let ack_deadline =
    Arg.(value & opt float Hpm_core.Handoff.default_config.Hpm_core.Handoff.ack_deadline_s
         & info [ "ack-deadline" ] ~docv:"S"
             ~doc:"watchdog: simulated seconds the source waits for the COMMIT ack")
  in
  let probe_retries =
    Arg.(value & opt int Hpm_core.Handoff.default_config.Hpm_core.Handoff.probe_retries
         & info [ "probe-retries" ] ~docv:"N"
             ~doc:"epoch probes after a watchdog timeout before declaring the \
                   handoff stalled")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ] ~docv:"DIR"
             ~doc:"content-addressed checkpoint store, the one checkpoint/restart \
                   path; without --to, commit an incremental snapshot at the \
                   poll and stop")
  in
  let delta =
    Arg.(value & flag
         & info [ "delta" ]
             ~doc:"print incremental checkpoint statistics (needs --store-dir)")
  in
  let precopy_rounds =
    Arg.(value & opt (some int) None
         & info [ "precopy-rounds" ] ~docv:"N"
             ~doc:"migrate by iterative pre-copy: up to N delta rounds while the \
                   source keeps running, then a final two-phase handoff shipping \
                   only the last delta (needs --store-dir and --to)")
  in
  let precopy_threshold =
    Arg.(value & opt float Precopy.default_config.Precopy.threshold
         & info [ "precopy-threshold" ] ~docv:"F"
             ~doc:"stop pre-copying once a round's wire size falls below F times \
                   the full snapshot's")
  in
  let restore_store =
    Arg.(value & flag
         & info [ "restore-latest" ]
             ~doc:"resume the newest committed snapshot in --store-dir on --from \
                   (any architecture) and run to completion")
  in
  let store_gc =
    Arg.(value & opt (some int) None
         & info [ "store-gc" ] ~docv:"KEEP"
             ~doc:"retain the newest KEEP epochs per process in --store-dir, sweep \
                   unreferenced chunks, and print the report (FILE not needed)")
  in
  let gc_dry_run =
    Arg.(value & flag
         & info [ "gc-dry-run" ]
             ~doc:"with --store-gc, print the manifests the retention policy \
                   would drop (the same predicate `query gc-candidates` uses, \
                   pins respected) and delete nothing")
  in
  let journal_file =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"append fleet events (HPMJ records, docs/FORMAT.md) to FILE; \
                   with --store-gc --gc-dry-run, also date retention candidates \
                   from it")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"write a Chrome trace_event JSON trace of the run to FILE; \
                   timestamps come from the simulated clock, so same-seed runs \
                   produce byte-identical traces")
  in
  let metrics_file =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"write the metrics registry to FILE in Prometheus text format \
                   on exit (see docs/OBSERVABILITY.md for the catalogue)")
  in
  let standby =
    Arg.(value & opt int 0
         & info [ "standby" ] ~docv:"N"
             ~doc:"replicate continuously to N warm standbys: each epoch the \
                   source commits a wgen-dirty delta to --store-dir and streams \
                   it to every standby; with --standby, --crash-src-after names \
                   a replication phase (stream, final-delta, commit)")
  in
  let replica_epochs =
    Arg.(value & opt int 3
         & info [ "replica-epochs" ] ~docv:"K"
             ~doc:"stream K replication epochs before finishing, migrating \
                   (--to) or failing over (--promote)")
  in
  let promote =
    Arg.(value & flag
         & info [ "promote" ]
             ~doc:"after a source crash (or as an operator drill without one), \
                   promote the freshest committed standby, fence the dead \
                   incarnation, and run the survivor to completion")
  in
  let run_term =
    Term.(const run $ file $ from_ $ to_ $ after $ report $ show_net $ loss
          $ corrupt $ max_retries $ net_seed $ crash_src $ crash_dst $ drop_ack
          $ drop_probe $ ack_deadline $ probe_retries
          $ store_dir $ delta $ precopy_rounds $ precopy_threshold $ restore_store
          $ store_gc $ gc_dry_run $ journal_file $ trace_file $ metrics_file
          $ standby $ replica_epochs $ promote)
  in
  let cmd =
    Cmd.v
      (Cmd.info "hpmrun"
         ~doc:
           "run Mini-C programs with heterogeneous process migration (see \
            also: hpmrun query, the fleet console over store/journal/trace \
            artifacts)")
      run_term
  in
  (* `hpmrun sched ...`: run a seeded cluster-churn scenario on the
     discrete-event engine (docs/SCHED.md) and print its stats.  With
     --journal the full history lands in an HPMJ log that `hpmrun
     query` reads back. *)
  let sched_cmd =
    let module C = Hpm_sched.Cluster in
    let run_sched nodes procs seed crash_nodes max_moves journal_file
        trace_file metrics_file =
      let module Obs = Hpm_obs.Obs in
      let cfg =
        {
          C.default_churn with
          C.c_nodes = nodes;
          c_procs = procs;
          c_seed = seed;
          c_sites = min C.default_churn.C.c_sites nodes;
          c_crash_nodes = min crash_nodes (nodes / 2);
          c_max_moves = max_moves;
        }
      in
      let obs_on = trace_file <> None || metrics_file <> None in
      if obs_on then (
        if trace_file <> None then Obs.set_trace (Some (Obs.Trace.create ()));
        if metrics_file <> None then
          Obs.set_metrics (Some (Obs.Metrics.create ())));
      let journal = Option.map Hpm_store.Journal.open_journal journal_file in
      let t = C.run (C.create ?journal cfg) in
      let s = C.stats t in
      Option.iter Hpm_store.Journal.close journal;
      Fmt.pr "sched: nodes=%d procs=%d seed=%d@." nodes procs seed;
      Fmt.pr "sched: %a@." C.pp_stats s;
      (match (metrics_file, !Obs.cur_metrics) with
      | Some path, Some reg -> write_file path (Obs.Metrics.render reg)
      | _ -> ());
      (match (trace_file, !Obs.cur_trace) with
      | Some path, Some tr -> write_file path (Obs.Trace.to_json tr)
      | _ -> ());
      if obs_on then Obs.reset ();
      if s.C.cs_finished <> procs then (
        Fmt.epr "hpmrun sched: %d/%d processes unfinished@."
          (procs - s.C.cs_finished) procs;
        1)
      else 0
    in
    let nodes =
      Arg.(value & opt int 100
           & info [ "nodes" ] ~docv:"N" ~doc:"cluster size (default 100)")
    in
    let procs =
      Arg.(value & opt int 1000
           & info [ "procs" ] ~docv:"N" ~doc:"process count (default 1000)")
    in
    let seed =
      Arg.(value & opt int C.default_churn.C.c_seed
           & info [ "seed" ] ~docv:"S"
               ~doc:"churn seed; same seed, same bytes")
    in
    let crash_nodes =
      Arg.(value & opt int C.default_churn.C.c_crash_nodes
           & info [ "crash-nodes" ] ~docv:"K"
               ~doc:"nodes the seeded fault plan kills (clamped to N/2)")
    in
    let max_moves =
      Arg.(value & opt int C.default_churn.C.c_max_moves
           & info [ "max-moves" ] ~docv:"K"
               ~doc:"migrations the policy may request per round")
    in
    let journal_file =
      Arg.(value & opt (some string) None
           & info [ "journal" ] ~docv:"FILE"
               ~doc:"append the run's history as an HPMJ journal (segmented; \
                     readable with hpmrun query journal --journal FILE)")
    in
    let trace_file =
      Arg.(value & opt (some string) None
           & info [ "trace" ] ~docv:"FILE"
               ~doc:"write a Chrome trace of the churn (simulated clock)")
    in
    let metrics_file =
      Arg.(value & opt (some string) None
           & info [ "metrics" ] ~docv:"FILE"
               ~doc:"write Prometheus-style metrics after the run")
    in
    Cmd.v
      (Cmd.info "hpmrun-sched"
         ~doc:
           "run a seeded cluster-churn scenario on the discrete-event \
            scheduler (docs/SCHED.md)")
      Term.(const run_sched $ nodes $ procs $ seed $ crash_nodes $ max_moves
            $ journal_file $ trace_file $ metrics_file)
  in
  (* `hpmrun query ...` / `hpmrun sched ...` dispatch to their own
     grammars; everything else keeps the historical single-command
     grammar, where FILE is a positional argument a Cmd.group would
     misread as a command name. *)
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "query" then
    let argv' =
      Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2))
    in
    exit (Cmd.eval' ~argv:argv' Hpm_query.Qcli.cmd)
  else if Array.length argv > 1 && argv.(1) = "sched" then
    let argv' =
      Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2))
    in
    exit (Cmd.eval' ~argv:argv' sched_cmd)
  else exit (Cmd.eval' cmd)
