(* Benchmark harness: the paper's evaluation (§4), the §4.3 overhead
   experiment and the extensions beyond the paper.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- paper   -- §4.1, Table 1, Fig. 2(a)/(b), §4.2
     dune exec bench/main.exe -- overhead | ablation | latency
     dune exec bench/main.exe -- faults | recovery | delta | obs
     dune exec bench/main.exe -- json [OUT]  -- the BENCH_v1 document

   Absolute times are ours (modern hardware simulating 1990s machines), so
   they cannot match the paper's seconds; the claims being reproduced are
   the *shapes*: §4.2's linear scaling of linpack collect/restore in data
   size, the O(n log n) vs O(n) gap for bitonic, and §4.3's overhead
   behaviour under poll-point placement.  `paper` prints a verdict for
   each claim and exits 1 when a deterministic one fails. *)

open Hpm_core

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let pr fmt = Format.printf fmt
let hr = Hpm_bench.Paper.hr
let suspend = Hpm_bench.Bench_json.suspend

(* Run the copy that survives a handoff to completion: the output
   produced before the handoff followed by the survivor's. *)
let finish_survivor m src pre res =
  let p = Handoff.survivor m src res in
  match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RDone _ -> pre ^ Hpm_machine.Interp.output p
  | _ -> "<did not finish>"

(* ------------------------------------------------------------------ *)
(* §4.3 execution overhead                                             *)
(* ------------------------------------------------------------------ *)

let bench_overhead () =
  hr "§4.3 Execution overhead of the migratable format (no migration occurs)";
  pr "Annotated programs poll at every strategy-selected point; the original@.";
  pr "program has no polls.  Overhead = polls executed / instructions.@.@.";
  pr "%-10s %-22s %12s %10s %8s %10s@." "program" "strategy" "instrs" "polls" "ovh%"
    "wall(s)";
  let strategies =
    [
      ("original (no polls)", Hpm_ir.Pollpoint.user_only_strategy);
      ( "no small kernels",
        { Hpm_ir.Pollpoint.default_strategy with Hpm_ir.Pollpoint.hot_threshold = 64 } );
      ("outer loops only", Hpm_ir.Pollpoint.outer_loops_strategy);
      ("default (all)", Hpm_ir.Pollpoint.default_strategy);
    ]
  in
  let run_one prog_name src_text =
    List.iter
      (fun (sname, strategy) ->
        let m = Migration.prepare ~strategy src_text in
        let (_, _, stats), wall =
          time (fun () -> Migration.run_plain m Hpm_arch.Arch.ultra5)
        in
        pr "%-10s %-22s %12d %10d %8.2f %10.3f@." prog_name sname
          stats.Hpm_machine.Mstats.instrs stats.Hpm_machine.Mstats.polls
          (100.0
          *. float_of_int stats.Hpm_machine.Mstats.polls
          /. float_of_int (max 1 stats.Hpm_machine.Mstats.instrs))
          wall)
      strategies
  in
  run_one "linpack" (Hpm_workloads.Linpack.source 64);
  run_one "bitonic" (Hpm_workloads.Bitonic.source 4000);
  run_one "nqueens" (Hpm_workloads.Nqueens.source 8);
  pr "@.allocation-tracking side of §4.3 (MSRLT maintenance per program):@.";
  pr "%-10s %12s %12s %14s@." "program" "allocs" "table ops" "ops/alloc";
  List.iter
    (fun (name, src_text) ->
      let m = Migration.prepare src_text in
      let _, _, stats = Migration.run_plain m Hpm_arch.Arch.ultra5 in
      pr "%-10s %12d %12d %14.2f@." name stats.Hpm_machine.Mstats.allocs
        stats.Hpm_machine.Mstats.table_ops
        (float_of_int stats.Hpm_machine.Mstats.table_ops
        /. float_of_int (max 1 stats.Hpm_machine.Mstats.allocs)))
    [
      ("linpack", Hpm_workloads.Linpack.source 64);
      ("bitonic", Hpm_workloads.Bitonic.source 4000);
    ];
  pr "@.reading: overhead tracks poll placement, not the migration machinery@.";
  pr "itself; keeping polls out of small hot kernels (the 'outer' strategy)@.";
  pr "cuts the poll rate, as §4.3 prescribes.@."

(* ------------------------------------------------------------------ *)
(* Extension: migration latency vs poll-point placement                *)
(* ------------------------------------------------------------------ *)

(* How long does a process take to *notice* a migration request?  §2's
   polling design trades execution overhead (more polls) against response
   latency (instructions between the request and the next poll).  The
   paper reports the overhead side; this measures the latency side of the
   same trade-off. *)
let bench_latency () =
  hr "Extension: request-to-poll latency vs poll strategy";
  pr "A migration request lands at a random execution instant; latency is@.";
  pr "the number of IR instructions until a poll notices it.@.@.";
  pr "%-10s %-22s %12s %12s %12s@." "program" "strategy" "min" "median" "max";
  let strategies =
    [
      ( "no small kernels",
        { Hpm_ir.Pollpoint.default_strategy with Hpm_ir.Pollpoint.hot_threshold = 64 } );
      ("outer loops only", Hpm_ir.Pollpoint.outer_loops_strategy);
      ("default (all)", Hpm_ir.Pollpoint.default_strategy);
    ]
  in
  let latencies prog_name src_text =
    List.iter
      (fun (sname, strategy) ->
        let m = Migration.prepare ~strategy src_text in
        let samples =
          List.filter_map
            (fun offset ->
              let p = Migration.start m Hpm_arch.Arch.ultra5 in
              (* run to a random instant *)
              match Hpm_machine.Interp.run ~fuel:offset p with
              | Hpm_machine.Interp.RFuel ->
                  let before = (Hpm_machine.Interp.stats p).Hpm_machine.Mstats.instrs in
                  Hpm_machine.Interp.request_migration p;
                  (match Hpm_machine.Interp.run p with
                  | Hpm_machine.Interp.RPolled _ ->
                      Some
                        ((Hpm_machine.Interp.stats p).Hpm_machine.Mstats.instrs - before)
                  | _ -> None (* finished before any poll: unbounded latency *))
              | _ -> None)
            [ 1_000; 5_000; 20_000; 50_000; 100_000; 200_000; 300_000; 400_000 ]
        in
        match List.sort compare samples with
        | [] -> pr "%-10s %-22s %12s %12s %12s@." prog_name sname "-" "never" "-"
        | sorted ->
            let arr = Array.of_list sorted in
            pr "%-10s %-22s %12d %12d %12d@." prog_name sname arr.(0)
              arr.(Array.length arr / 2)
              arr.(Array.length arr - 1))
      strategies
  in
  latencies "linpack" (Hpm_workloads.Linpack.source 64);
  latencies "bitonic" (Hpm_workloads.Bitonic.source 4000);
  latencies "jacobi" (Hpm_workloads.Jacobi.source 40);
  pr "@.reading: the overhead/latency trade-off of §2/§4.3 — sparser polls@.";
  pr "cost less per instruction but react later; 'never' marks a strategy@.";
  pr "that left a program with no reachable poll at all.@."

(* ------------------------------------------------------------------ *)
(* Ablation: pooled allocation (the §4.3 smart-allocation mitigation)  *)
(* ------------------------------------------------------------------ *)

let bench_ablation () =
  hr "Ablation: naive vs pooled allocation (the §4.3 mitigation)";
  pr "Same bitonic computation; the pooled variant allocates tree nodes@.";
  pr "from 256-node chunks, shrinking the MSRLT and its search cost.@.@.";
  pr "%-22s %8s %10s %10s %10s %12s@." "variant" "blocks" "collect(s)" "restore(s)"
    "searches" "table ops";
  let n = 20_000 in
  List.iter
    (fun (label, name) ->
      let module P = Hpm_bench.Paper in
      let r =
        P.measure ~channel:(Hpm_net.Netsim.loopback ()) ~src:Hpm_arch.Arch.ultra5
          ~dst:Hpm_arch.Arch.ultra5 name n (6 * n)
      in
      let w = Hpm_workloads.Registry.find_exn name in
      let m = Migration.prepare (w.Hpm_workloads.Registry.source n) in
      let _, _, stats = Migration.run_plain m Hpm_arch.Arch.ultra5 in
      pr "%-22s %8d %10.4f %10.4f %10d %12d@." label r.P.blocks (P.collect_s r)
        (P.restore_s r) r.P.searches stats.Hpm_machine.Mstats.table_ops)
    [ ("bitonic (naive)", "bitonic"); ("bitonic (pooled)", "bitonic_pooled") ];
  pr "@.reading: pooling cuts MSR nodes ~100x; collection cost follows,@.";
  pr "confirming the §4.3 advice that allocation policy, not the migration@.";
  pr "machinery, sets the constant factors.@."

(* ------------------------------------------------------------------ *)
(* Extension: migration under a lossy link                             *)
(* ------------------------------------------------------------------ *)

(* The paper assumes a perfect TCP channel; this table shows what the
   chunked/checksummed/retrying transport costs as the link degrades.
   Fault schedules are seeded, so every row is replayable. *)
let bench_faults () =
  hr "Extension: bitonic migration over a lossy 10 Mb/s link (chunked transport)";
  pr "Each message independently suffers truncation (loss) or a one-byte@.";
  pr "flip (corrupt); the transport NAK-retries with exponential backoff@.";
  pr "and aborts after %d retries, after which the source resumes locally.@.@."
    Hpm_net.Transport.default_config.Hpm_net.Transport.max_retries;
  pr "%-8s %-8s %7s %7s %9s %10s %10s %6s %10s@." "loss" "corrupt" "chunks" "sent"
    "retries" "resent B" "sim Tx(s)" "ok" "outcome";
  let w = Hpm_workloads.Registry.find_exn "bitonic" in
  let m = Migration.prepare (w.Hpm_workloads.Registry.source 2000) in
  let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
  List.iteri
    (fun i (loss, corrupt) ->
      let faults =
        Hpm_net.Netsim.fault_model ~loss_rate:loss ~corrupt_rate:corrupt
          ~seed:(0xC0FFEE + i) ()
      in
      let channel = Hpm_net.Netsim.ethernet_10 ~faults () in
      let src = suspend m Hpm_arch.Arch.dec5000 6000 in
      let pre = Hpm_machine.Interp.output src in
      let res = Handoff.execute ~channel ~epoch:1 m src Hpm_arch.Arch.sparc20 in
      let out = finish_survivor m src pre res in
      let ok = if String.equal out expected then "yes" else "NO!" in
      let ts, outcome =
        match res.Handoff.outcome with
        | Handoff.Committed c -> (c.Handoff.c_tstats, "migrated")
        | Handoff.Link_failed l -> (l.Handoff.l_stats, "resumed src")
        | o -> failwith ("bench faults: unexpected " ^ Handoff.outcome_name o)
      in
      pr "%-8.2f %-8.2f %7d %7d %9d %10d %10.4f %6s %10s@." loss corrupt
        ts.Hpm_net.Transport.t_chunks ts.Hpm_net.Transport.t_sent
        ts.Hpm_net.Transport.t_retries ts.Hpm_net.Transport.t_resent_bytes
        ts.Hpm_net.Transport.t_time_s ok outcome;
      if not (String.equal out expected) then exit 1)
    [ (0.0, 0.0); (0.0, 0.05); (0.05, 0.05); (0.1, 0.1); (0.2, 0.2); (0.3, 0.3); (1.0, 1.0) ];
  pr "@.reading: retries and resent bytes grow with the fault rate while the@.";
  pr "delivered stream stays byte-identical; at rate 1.0 the transfer aborts@.";
  pr "and the process completes on the source machine — degraded, never lost.@."

(* ------------------------------------------------------------------ *)
(* Extension: recovery latency of the two-phase handoff                *)
(* ------------------------------------------------------------------ *)

(* What does a node crash cost?  Each row runs one bitonic handoff with a
   crash or message loss injected at a given protocol point and reports
   the recovery path taken, the simulated protocol time (transfers plus
   watchdog waits plus reboots), and whether the surviving copy still
   computes the right answer exactly once. *)
let bench_recovery () =
  hr "Extension: recovery latency of the crash-consistent handoff";
  pr "bitonic 2000, dec5000 -> sparc20 over 10 Mb/s; deadline %.2fs, reboot %.2fs.@."
    Handoff.default_config.Handoff.ack_deadline_s
    Handoff.default_config.Handoff.restart_delay_s;
  pr "'sim time' is the full protocol latency the process is blocked for.@.@.";
  pr "%-26s %-22s %10s %10s %6s@." "fault injected" "recovery path" "sim t(s)"
    "stream B" "ok";
  let w = Hpm_workloads.Registry.find_exn "bitonic" in
  let m = Migration.prepare (w.Hpm_workloads.Registry.source 2000) in
  let expected, _, _ = Migration.run_plain m Hpm_arch.Arch.ultra5 in
  let scenarios =
    [
      ("none (baseline)", Hpm_net.Netsim.node_faults ());
      ("COMMIT ack dropped", Hpm_net.Netsim.node_faults ~drop_commit_acks:1 ());
      ( "src crash after collect",
        Hpm_net.Netsim.node_faults ~crash_source_after:Hpm_net.Netsim.Ph_collect () );
      ( "src crash after transfer",
        Hpm_net.Netsim.node_faults ~crash_source_after:Hpm_net.Netsim.Ph_transfer () );
      ( "src crash after commit",
        Hpm_net.Netsim.node_faults ~crash_source_after:Hpm_net.Netsim.Ph_commit () );
      ( "dst crash after transfer",
        Hpm_net.Netsim.node_faults ~crash_dest_after:Hpm_net.Netsim.Ph_transfer () );
      ( "dst crash after restore",
        Hpm_net.Netsim.node_faults ~crash_dest_after:Hpm_net.Netsim.Ph_restore () );
      ( "dst crash after commit",
        Hpm_net.Netsim.node_faults ~crash_dest_after:Hpm_net.Netsim.Ph_commit () );
    ]
  in
  List.iter
    (fun (name, faults) ->
      let src = suspend m Hpm_arch.Arch.dec5000 6000 in
      let pre = Hpm_machine.Interp.output src in
      let channel = Hpm_net.Netsim.ethernet_10 () in
      let res = Handoff.execute ~faults ~channel ~epoch:1 m src Hpm_arch.Arch.sparc20 in
      let path, sim_t, bytes =
        match res.Handoff.outcome with
        | Handoff.Committed c ->
            let path =
              if c.Handoff.c_src_crashed then "commit (src rebooted)"
              else if c.Handoff.c_dest_restarted then "commit (dst rebooted)"
              else if c.Handoff.c_ack_recovered then "commit (probe)"
              else "commit"
            in
            (path, c.Handoff.c_time_s, c.Handoff.c_stream_bytes)
        | Handoff.Source_recovered r ->
            ("resume from ckpt", r.Handoff.r_time_s, r.Handoff.r_cstats.Cstats.c_stream_bytes)
        | Handoff.Abort_requeue q ->
            ("abort + requeue", q.Handoff.q_time_s, String.length q.Handoff.q_ckpt)
        | Handoff.Stalled { s_time_s; s_ckpt; _ } -> ("stalled", s_time_s, String.length s_ckpt)
        | Handoff.Link_failed l -> ("resume live", l.Handoff.l_time_s, 0)
      in
      let out = finish_survivor m src pre res in
      pr "%-26s %-22s %10.4f %10d %6s@." name path sim_t bytes
        (if String.equal out expected then "yes" else "NO!");
      if not (String.equal out expected) then exit 1)
    scenarios;
  pr "@.reading: pre-commit faults pay the watchdog deadline (plus a reboot)@.";
  pr "and fall back to the retained checkpoint; post-commit faults finish on@.";
  pr "the destination.  Every row ends with the process run exactly once.@."

(* ------------------------------------------------------------------ *)
(* Extension: incremental checkpoints (delta streams)                  *)
(* ------------------------------------------------------------------ *)

(* How much wire does MSRLT dirty tracking + content-addressed chunking
   save over re-shipping the full image?  Each workload takes a full
   chunked snapshot, then repeatedly advances by 'gap' poll events and
   ships only the chunks the previous epoch lacks (docs/STORE.md).  Every
   epoch's materialized stream is checked byte-identical against the
   stock collector before being counted. *)
let bench_delta () =
  let open Hpm_store in
  hr "Extension: incremental checkpoint wire size vs full stream";
  pr "'delta B' is the v3 wire (manifest + missing chunks) for that epoch;@.";
  pr "'full B' the stock v2 stream at the same suspension; smaller gaps@.";
  pr "dirty fewer blocks and should ship a small fraction of the image.@.@.";
  pr "%-10s %6s %8s %8s %8s %8s %10s %10s %7s@." "workload" "gap" "scanned" "dirty"
    "shipped" "reused" "delta B" "full B" "ratio";
  let advance p gap =
    Hpm_machine.Interp.request_migration_after p (gap - 1);
    match Hpm_machine.Interp.run p with
    | Hpm_machine.Interp.RPolled _ -> true
    | Hpm_machine.Interp.RDone _ -> false
    | Hpm_machine.Interp.RFuel -> failwith "out of fuel"
  in
  List.iter
    (fun (name, n, first_poll) ->
      let w = Hpm_workloads.Registry.find_exn name in
      let m = Migration.prepare (w.Hpm_workloads.Registry.source n) in
      let p = suspend m Hpm_arch.Arch.ultra5 first_poll in
      let cache = Snapshot.new_cache () in
      let all_chunks : (string, string) Hashtbl.t = Hashtbl.create 256 in
      let lookup h =
        match Hashtbl.find_opt all_chunks h with
        | Some c -> c
        | None -> failwith "bench delta: lost chunk"
      in
      let snapshot epoch =
        let mf, chunks, rs = Snapshot.collect ~epoch ~proc:name ~cache p m.Migration.ti in
        Hashtbl.iter (Hashtbl.replace all_chunks) chunks;
        (* the materialized chunked snapshot must equal the stock stream *)
        let full, _ = Collect.collect ~epoch p m.Migration.ti in
        let mat = Snapshot.materialize ~ti:m.Migration.ti ~lookup mf in
        if not (String.equal mat full) then (
          pr "%-10s materialized stream differs from Collect.collect: NO!@." name;
          exit 1);
        (mf, rs, String.length full)
      in
      let mf0, rs0, full0 = snapshot 1 in
      let wire0 = String.length (Store.encode_delta ~lookup mf0) in
      pr "%-10s %6s %8d %8d %8d %8d %10d %10d %7s@." name "-"
        rs0.Cstats.d_blocks_scanned rs0.Cstats.d_blocks_dirty
        (Hashtbl.length all_chunks) 0 wire0 full0 "(full)";
      let ok = ref true in
      let rec rounds prev epoch = function
        | [] -> ()
        | gap :: rest ->
            if advance p gap then (
              let mf, rs, full = snapshot epoch in
              let wire = String.length (Store.encode_delta ~base:prev ~stats:rs ~lookup mf) in
              pr "%-10s %6d %8d %8d %8d %8d %10d %10d %7.3f@." name gap
                rs.Cstats.d_blocks_scanned rs.Cstats.d_blocks_dirty
                rs.Cstats.d_chunks_shipped rs.Cstats.d_chunks_reused wire full
                (float_of_int wire /. float_of_int full);
              if wire >= full then ok := false;
              rounds mf (epoch + 1) rest)
      in
      rounds mf0 2 [ 1; 8; 64; 512 ];
      pr "%-10s incremental epochs ship fewer bytes than full: %s@." name
        (if !ok then "ok" else "NO!");
      if not !ok then exit 1)
    [ ("jacobi", 40, 8); ("hashtab", 2000, 6000); ("bitonic", 3000, 6000) ];
  pr "@.reading: the delta wire tracks the dirty set, not the image size —@.";
  pr "the paper's full-copy cost (Table 1) becomes a per-epoch cost paid@.";
  pr "only for blocks the program actually wrote.@."

(* ------------------------------------------------------------------ *)
(* Observability: deterministic traces + §4.2 metric identities        *)
(* ------------------------------------------------------------------ *)

(* A circular singly-linked list: every pointer field in the heap (and
   every live stack pointer) is non-null at the suspension point, so the
   §4.2 identity is exact — one MSRLT search per pointer translated on
   collection, one MSRLT update per block on restoration. *)
let ring_source n =
  Printf.sprintf
    {|
/* ring: fully connected circular list */
struct node {
  int value;
  struct node *next;
};

int main() {
  struct node *first;
  struct node *p;
  struct node *c;
  int i;
  long sum;

  first = (struct node *) malloc(sizeof(struct node));
  first->value = 0;
  first->next = first;
  p = first;
  for (i = 1; i < %d; i++) {
    c = (struct node *) malloc(sizeof(struct node));
    c->value = i;
    c->next = first;
    p->next = c;
    p = c;
  }
  sum = 0;
  c = first;
  for (i = 0; i < %d; i++) {
    sum = sum + c->value;
    c = c->next;
  }
  print_long(sum);
  return 0;
}
|}
    n (4 * n)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let bench_obs () =
  let module Obs = Hpm_obs.Obs in
  hr "Observability: deterministic handoff traces + the §4.2 metric identities";
  pr "Every scenario runs twice with the same seed under a fresh trace and@.";
  pr "metrics sink; the traces must be byte-identical, span nesting must@.";
  pr "follow the handoff state machine, and the exported metrics must equal@.";
  pr "the pre-existing statistics counters exactly (docs/OBSERVABILITY.md).@.@.";
  let failures = ref 0 in
  let check name ok =
    pr "  %-58s %s@." name (if ok then "ok" else "NO!");
    if not ok then incr failures
  in
  let run_with_sinks scenario =
    Obs.reset ();
    let tr = Obs.Trace.create () and reg = Obs.Metrics.create () in
    Obs.set_trace (Some tr);
    Obs.set_metrics (Some reg);
    let r = scenario () in
    Obs.reset ();
    (tr, reg, r)
  in
  (* Span nesting: B/E balanced, exactly one root "migration" span, and
     its direct children drawn from the handoff state machine. *)
  let validate_spans name tr =
    let machine = [ "collect"; "encode"; "transfer"; "restore"; "verify"; "commit" ] in
    let stack = ref [] and bad = ref false and roots = ref [] and children = ref [] in
    List.iter
      (fun (e : Obs.Trace.ev) ->
        match e.Obs.Trace.e_ph with
        | 'B' ->
            (match !stack with
            | [] -> roots := e.Obs.Trace.e_name :: !roots
            | parent :: _ when String.equal parent "migration" ->
                children := e.Obs.Trace.e_name :: !children
            | _ -> ());
            stack := e.Obs.Trace.e_name :: !stack
        | 'E' -> (
            match !stack with
            | top :: rest when String.equal top e.Obs.Trace.e_name -> stack := rest
            | _ -> bad := true)
        | _ -> ())
      (Obs.Trace.events tr);
    check (name ^ ": spans balanced") ((not !bad) && !stack = []);
    check
      (name ^ ": one root migration span")
      (List.length (List.filter (String.equal "migration") !roots) = 1);
    check
      (name ^ ": children within the state machine")
      (List.for_all (fun c -> List.mem c machine) !children)
  in
  let w = Hpm_workloads.Registry.find_exn "bitonic" in
  let bitonic_src = w.Hpm_workloads.Registry.source 2000 in
  let tmp_counter = ref 0 in
  let fresh_store () =
    incr tmp_counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hpm-bench-obs-%d-%d" (Unix.getpid ()) !tmp_counter)
    in
    Hpm_store.Store.open_store dir
  in
  let clean () =
    let m = Migration.prepare bitonic_src in
    let src = suspend m Hpm_arch.Arch.dec5000 6000 in
    Handoff.execute ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~epoch:1 m src
      Hpm_arch.Arch.sparc20
  in
  let lossy () =
    let m = Migration.prepare bitonic_src in
    let src = suspend m Hpm_arch.Arch.dec5000 6000 in
    let faults = Hpm_net.Netsim.fault_model ~loss_rate:0.15 ~corrupt_rate:0.1 ~seed:42 () in
    Handoff.execute
      ~channel:(Hpm_net.Netsim.ethernet_10 ~faults ())
      ~epoch:1 m src Hpm_arch.Arch.sparc20
  in
  let crash () =
    let m = Migration.prepare bitonic_src in
    let src = suspend m Hpm_arch.Arch.dec5000 6000 in
    Handoff.execute
      ~faults:(Hpm_net.Netsim.node_faults ~crash_dest_after:Hpm_net.Netsim.Ph_restore ())
      ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~epoch:1 m src Hpm_arch.Arch.sparc20
  in
  let precopy () =
    let st = fresh_store () in
    let m = Migration.prepare bitonic_src in
    let src = suspend m Hpm_arch.Arch.dec5000 6000 in
    Hpm_store.Precopy.execute
      ~channel:(Hpm_net.Netsim.ethernet_10 ())
      ~dst_store:st ~proc:"bitonic" ~epoch0:1 m src Hpm_arch.Arch.sparc20
  in
  (try Unix.mkdir "obs-traces" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (name, slug, scenario) ->
      let tr1, _, _ = run_with_sinks scenario in
      let tr2, _, _ = run_with_sinks scenario in
      let j1 = Obs.Trace.to_json tr1 and j2 = Obs.Trace.to_json tr2 in
      validate_spans name tr1;
      check (name ^ ": same-seed trace byte-identical") (String.equal j1 j2);
      write_file (Filename.concat "obs-traces" (slug ^ ".json")) j1)
    [
      ("clean handoff", "clean", (fun () -> ignore (clean ())));
      ("lossy link", "lossy", (fun () -> ignore (lossy ())));
      ("dst crash after restore", "crash-dst-restore", (fun () -> ignore (crash ())));
      ("pre-copy migration", "precopy", (fun () -> ignore (precopy ())));
    ];
  (* The exported metrics are the same counters the stats records carry. *)
  let _, reg, res = run_with_sinks clean in
  (match res.Handoff.outcome with
  | Handoff.Committed c ->
      let lab = [ ("arch_pair", "dec5000->sparc20"); ("epoch", "1") ] in
      let v name = Obs.Metrics.value reg name lab in
      check "metrics: transport wire bytes equal stats"
        (v "hpm_transport_wire_bytes_total"
        = Some (float_of_int c.Handoff.c_tstats.Hpm_net.Transport.t_wire_bytes));
      check "metrics: MSRLT searches equal stats"
        (v "hpm_msrlt_searches_total"
        = Some (float_of_int c.Handoff.c_cstats.Cstats.c_searches));
      check "metrics: MSRLT updates equal stats"
        (v "hpm_msrlt_updates_total"
        = Some (float_of_int c.Handoff.c_rstats.Cstats.r_updates))
  | _ -> check "clean handoff committed" false);
  (* Snapshot the same suspension twice: every chunk of epoch 2 is already
     stored, so the dedup-hit metric must equal d_chunks_reused exactly. *)
  let dedup () =
    let st = fresh_store () in
    let m = Migration.prepare bitonic_src in
    let p = suspend m Hpm_arch.Arch.ultra5 6000 in
    let snap epoch =
      let mf, chunks, stats =
        Hpm_store.Snapshot.collect ~epoch ~proc:"bitonic" p m.Migration.ti
      in
      Hpm_store.Snapshot.persist st mf chunks stats;
      stats
    in
    ignore (snap 1);
    snap 2
  in
  let _, reg, st2 = run_with_sinks dedup in
  check "metrics: store dedup hits equal d_chunks_reused"
    (Obs.Metrics.value reg "hpm_store_chunk_dedup_hits_total" []
    = Some (float_of_int st2.Cstats.d_chunks_reused));
  (* §4.2 decomposition.  On the fully connected ring every translated
     pointer costs exactly one search; on bitonic the null leaf pointers
     are translated without a search, so searches < pointers there. *)
  pr "@.§4.2 identities (Collect = MSRLT_search + copy; Restore = MSRLT_update + copy):@.";
  pr "%-14s %8s %10s %10s %10s %12s@." "workload" "blocks" "pointers" "searches"
    "updates" "search/ptr";
  List.iter
    (fun n ->
      let m = Migration.prepare (ring_source n) in
      let src = suspend m Hpm_arch.Arch.ultra5 (n + (n / 2)) in
      let _, reg, (cs, rs) =
        run_with_sinks (fun () ->
            let data, cs = Collect.collect src m.Migration.ti in
            let _, rs =
              Restore.restore m.Migration.prog Hpm_arch.Arch.sparc20 m.Migration.ti data
            in
            (cs, rs))
      in
      pr "%-14s %8d %10d %10d %10d %12.3f@."
        (Printf.sprintf "ring %d" n)
        cs.Cstats.c_blocks cs.Cstats.c_pointers cs.Cstats.c_searches rs.Cstats.r_updates
        (float_of_int cs.Cstats.c_searches /. float_of_int cs.Cstats.c_pointers);
      check
        (Printf.sprintf "ring %d: searches = pointers (fully connected)" n)
        (cs.Cstats.c_searches = cs.Cstats.c_pointers);
      check
        (Printf.sprintf "ring %d: updates = blocks" n)
        (rs.Cstats.r_updates = cs.Cstats.c_blocks);
      check
        (Printf.sprintf "ring %d: metrics equal stats" n)
        (Obs.Metrics.value reg "hpm_msrlt_searches_total" []
         = Some (float_of_int cs.Cstats.c_searches)
        && Obs.Metrics.value reg "hpm_msrlt_updates_total" []
           = Some (float_of_int rs.Cstats.r_updates)
        && Obs.Metrics.value reg "hpm_collect_pointers_total" []
           = Some (float_of_int cs.Cstats.c_pointers)))
    [ 64; 256; 1024 ];
  (let m = Migration.prepare (w.Hpm_workloads.Registry.source 4000) in
   let src = suspend m Hpm_arch.Arch.ultra5 24_000 in
   let data, cs = Collect.collect src m.Migration.ti in
   let _, rs = Restore.restore m.Migration.prog Hpm_arch.Arch.sparc20 m.Migration.ti data in
   pr "%-14s %8d %10d %10d %10d %12.3f@." "bitonic 4000" cs.Cstats.c_blocks
     cs.Cstats.c_pointers cs.Cstats.c_searches rs.Cstats.r_updates
     (float_of_int cs.Cstats.c_searches /. float_of_int cs.Cstats.c_pointers);
   check "bitonic: searches <= pointers (null leaves skip the search)"
     (cs.Cstats.c_searches <= cs.Cstats.c_pointers);
   check "bitonic: updates = blocks" (rs.Cstats.r_updates = cs.Cstats.c_blocks));
  pr "@.per-scenario traces written to obs-traces/*.json (chrome://tracing)@.";
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)

let bench_paper () =
  let rc = Hpm_bench.Paper.(report (run ())) in
  if rc <> 0 then exit rc

let all () =
  bench_paper ();
  bench_overhead ();
  bench_ablation ();
  bench_latency ();
  bench_faults ();
  bench_recovery ();
  bench_delta ();
  bench_obs ()

(* The machine-readable trajectory: run the deterministic BENCH_v1 suite
   and write the JSON document (default BENCH_v1.json, or argv.(2)).
   Wall-clock timings go to stdout only — the file must stay
   deterministic so CI can diff it against the committed baseline. *)
let bench_json () =
  let path = if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_v1.json" in
  hr "BENCH_v1 deterministic trajectory";
  let entries, wall = time (fun () -> Hpm_bench.Bench_json.run ()) in
  List.iter
    (fun (e : Hpm_bench.Bench_json.entry) ->
      let c = e.Hpm_bench.Bench_json.e_case in
      pr "%-8s n=%-5d %-8s -> %-8s  collect %.6fs  restore %.6fs  handoff %.4fs  stream %dB  incr %dB@."
        c.Hpm_bench.Bench_json.w_name c.Hpm_bench.Bench_json.w_n
        c.Hpm_bench.Bench_json.src.Hpm_arch.Arch.name
        c.Hpm_bench.Bench_json.dst.Hpm_arch.Arch.name
        e.Hpm_bench.Bench_json.c_model_s e.Hpm_bench.Bench_json.r_model_s
        e.Hpm_bench.Bench_json.h_sim_s e.Hpm_bench.Bench_json.c_stream_bytes
        e.Hpm_bench.Bench_json.d_incr_bytes)
    entries;
  let sched, swall = time (fun () -> Hpm_bench.Bench_json.run_sched ()) in
  List.iter
    (fun (s : Hpm_bench.Bench_json.sched_entry) ->
      pr "sched %-16s nodes=%-5d procs=%-6d events=%-7d migrations=%-6d peak=%-4d makespan %.3fs  journal %dB@."
        s.Hpm_bench.Bench_json.s_scenario s.Hpm_bench.Bench_json.s_nodes
        s.Hpm_bench.Bench_json.s_procs s.Hpm_bench.Bench_json.s_events
        s.Hpm_bench.Bench_json.s_migrations
        s.Hpm_bench.Bench_json.s_peak_inflight
        s.Hpm_bench.Bench_json.s_makespan_s
        s.Hpm_bench.Bench_json.s_journal_bytes)
    sched;
  write_file path (Hpm_bench.Bench_json.to_json ~sched entries);
  pr "wrote %s (%d entries + %d sched scenarios, generated in %.2fs wall)@."
    path (List.length entries) (List.length sched) (wall +. swall)

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "paper" -> bench_paper ()
  | "overhead" -> bench_overhead ()
  | "ablation" -> bench_ablation ()
  | "latency" -> bench_latency ()
  | "faults" -> bench_faults ()
  | "recovery" -> bench_recovery ()
  | "delta" -> bench_delta ()
  | "obs" -> bench_obs ()
  | "json" -> bench_json ()
  | "all" -> all ()
  | other ->
      Format.eprintf "unknown benchmark %s@." other;
      exit 2
