(** Iterative pre-copy migration over the checkpoint store.

    Classic pre-copy, adapted to the paper's poll-point model: ship a full
    chunked snapshot while the source {e keeps running}, then up to
    [rounds] delta rounds — each lets the source advance [round_polls]
    poll events, snapshots it incrementally, and ships only the chunks the
    destination lacks.  When a round's wire size falls below [threshold] ×
    the full snapshot's, the dirty set has converged and the loop stops
    early.  Only then does the process actually migrate: a {e final} round
    runs under the two-phase {!Hpm_core.Handoff} commit protocol, using
    its delta hooks so the stop-and-copy transfer ships roughly one
    converged delta instead of the whole image.

    The durable artifact on the source side is always the full
    materialized v2 stream, so every {!Hpm_core.Handoff} recovery path
    (abort-requeue, source crash resume, stall) works unchanged. *)

open Hpm_machine
open Hpm_net
open Hpm_core
module Obs = Hpm_obs.Obs

type config = {
  rounds : int;        (** max delta rounds before the final stop-and-copy (≥ 1) *)
  threshold : float;   (** converged when round wire ≤ threshold × full wire *)
  round_polls : int;   (** poll events the source runs between rounds (≥ 1) *)
  handoff : Handoff.config;  (** protocol config for the final round *)
}

let default_config =
  { rounds = 4; threshold = 0.05; round_polls = 50; handoff = Handoff.default_config }

type round = {
  pr_epoch : int;
  pr_kind : [ `Full | `Delta | `Final ];
  pr_wire_bytes : int;
  pr_chunks_shipped : int;
  pr_chunks_reused : int;
  pr_blocks_scanned : int;
  pr_blocks_dirty : int;
  pr_time_s : float;  (** transfer time of this round (0 for the final: the
                          handoff result carries its own timing) *)
}

type outcome =
  | Handed_off of Handoff.result
      (** the final round ran; inspect the handoff outcome as usual *)
  | Finished_before_handoff
      (** the source completed during pre-copy; nothing migrated and the
          (finished) source interpreter holds the result and output *)
  | Round_link_failed of { rl_round : int; rl_reason : string; rl_stats : Transport.stats option }
      (** a pre-copy round could not be delivered or applied; the source
          keeps running locally (its migration request is cleared) *)

type result = {
  p_rounds : round list;  (** in shipping order, final round included *)
  p_converged : bool;
  p_outcome : outcome;
  p_stats : Cstats.delta;  (** aggregated over every round *)
  p_precopy_s : float;     (** time spent in pre-copy rounds (excl. final handoff) *)
  p_final_epoch : int;
}

(* internal: unwind out of the round loop on a failed delta round *)
exception Round_abort of int * (string * Transport.stats option)

let fold_stats (acc : Cstats.delta) (r : Cstats.delta) =
  acc.Cstats.d_blocks_scanned <- acc.Cstats.d_blocks_scanned + r.Cstats.d_blocks_scanned;
  acc.Cstats.d_blocks_dirty <- acc.Cstats.d_blocks_dirty + r.Cstats.d_blocks_dirty;
  acc.Cstats.d_data_bytes <- acc.Cstats.d_data_bytes + r.Cstats.d_data_bytes;
  acc.Cstats.d_cache_hits <- acc.Cstats.d_cache_hits + r.Cstats.d_cache_hits;
  acc.Cstats.d_chunks_shipped <- acc.Cstats.d_chunks_shipped + r.Cstats.d_chunks_shipped;
  acc.Cstats.d_chunks_reused <- acc.Cstats.d_chunks_reused + r.Cstats.d_chunks_reused;
  acc.Cstats.d_delta_bytes <- acc.Cstats.d_delta_bytes + r.Cstats.d_delta_bytes

(** The final stop-and-copy round, shared by pre-copy's last round and a
    planned replica migration ([Replica.migrate]).  [snapshot] collects
    [src] at [epoch] and makes its chunks reachable through [lookup].
    The full v2 stream materialised from that manifest is the durable
    checkpoint; only the v3 delta against [base] crosses the wire.  The
    round's counters are folded into [stats], and the handoff runs under
    two-phase commit with the caller's [decode].  Returns the handoff
    result with the round's manifest, counters and wire. *)
let final_handoff ~config ?faults ~channel ~snapshot ~lookup ?base ~stats ~decode
    ~epoch (m : Migration.migratable) (src : Interp.t) (dst_arch : Hpm_arch.Arch.t) =
  let mf, rs = snapshot epoch in
  let ckpt = Snapshot.materialize ~ti:m.Migration.ti ~lookup mf in
  rs.Cstats.d_full_bytes <- String.length ckpt;
  let wire = Store.encode_delta ?base ~stats:rs ~lookup mf in
  fold_stats stats rs;
  stats.Cstats.d_full_bytes <- String.length ckpt;
  let cstats =
    (* §4.2 shape of the synthesized full collection, for the unchanged
       handoff reporting *)
    let c = Cstats.collect_zero () in
    c.Cstats.c_blocks <- Array.length mf.Store.mf_blocks;
    c.Cstats.c_data_bytes <- rs.Cstats.d_data_bytes;
    c.Cstats.c_stream_bytes <- String.length ckpt;
    c.Cstats.c_frames <- List.length mf.Store.mf_frames;
    c.Cstats.c_live_vars <- List.fold_left (fun a l -> a + List.length l) 0 mf.Store.mf_live;
    c
  in
  let hres =
    Handoff.execute ~config ?faults ~channel ~epoch
      ~collect_fn:(fun () -> (ckpt, cstats))
      ~encode:(fun _ -> wire)
      ~decode m src dst_arch
  in
  (hres, mf, rs, wire)

(** Pre-copy [src] (suspended at a poll-point) from its machine to
    [dst_arch], applying each round into [dst_store] under [proc], and
    hand off under two-phase commit.  Epochs are numbered from [epoch0]
    (one per round); the final handoff epoch is [p_final_epoch].
    @raise Invalid_argument on a non-positive [rounds]/[round_polls], a
    negative [threshold] or [epoch0] *)
let execute ?(config = default_config) ?faults ~(channel : Netsim.t)
    ~(dst_store : Store.t) ~(proc : string) ?(epoch0 = 1)
    (m : Migration.migratable) (src : Interp.t) (dst_arch : Hpm_arch.Arch.t) : result =
  if config.rounds < 1 then invalid_arg "Precopy.execute: rounds must be >= 1";
  if config.round_polls < 1 then invalid_arg "Precopy.execute: round_polls must be >= 1";
  if config.threshold < 0.0 then invalid_arg "Precopy.execute: negative threshold";
  if epoch0 < 0 then invalid_arg "Precopy.execute: negative epoch0";
  let cache = Snapshot.new_cache () in
  let stats = Cstats.delta_zero () in
  (* every payload serialized in any round, for materializing the durable
     full checkpoint: cache-reused chunks were serialized in an earlier
     round, so the union always suffices *)
  let src_chunks : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let lookup h =
    match Hashtbl.find_opt src_chunks h with
    | Some payload -> payload
    | None -> Store.err "pre-copy lost chunk %s" (Store.hash_hex h)
  in
  let time = ref 0.0 in
  (* pre-copy rounds run on the ambient simulated clock, ahead of the
     final handoff (which is re-based onto it below) *)
  let p_t0 = Obs.now () in
  let pts () = p_t0 +. !time in
  let prev_labels = Obs.labels () in
  if Obs.on () then Obs.set_labels (("proc", proc) :: prev_labels);
  let kind_name = function `Full -> "full" | `Delta -> "delta" | `Final -> "final" in
  let rounds = ref [] in
  let record r =
    rounds := r :: !rounds;
    if Obs.metrics_on () then begin
      Obs.inc "hpm_precopy_rounds_total" [ ("kind", kind_name r.pr_kind) ];
      Obs.inc "hpm_precopy_wire_bytes_total" [] ~by:(float_of_int r.pr_wire_bytes)
    end
  in
  let finish ~converged ~outcome ~final_epoch =
    if Obs.on () then begin
      (* the final handoff (if any) already advanced the ambient clock
         past the pre-copy rounds; never rewind it *)
      Obs.set_now (Float.max (Obs.now ()) (pts ()));
      Obs.set_labels prev_labels
    end;
    {
      p_rounds = List.rev !rounds;
      p_converged = converged;
      p_outcome = outcome;
      p_stats = stats;
      p_precopy_s = !time;
      p_final_epoch = final_epoch;
    }
  in
  let snapshot epoch =
    let mf, chunks, rs = Snapshot.collect ~epoch ~proc ~cache src m.Migration.ti in
    Hashtbl.iter (Hashtbl.replace src_chunks) chunks;
    (mf, rs)
  in
  (* Ship one pre-copy round while the source stays live: encode, push
     through the resilient transport, apply into the destination store. *)
  let ship_round ~kind ?base epoch =
    let mf, rs = snapshot epoch in
    let wire = Store.encode_delta ?base ~stats:rs ~lookup mf in
    Obs.span_b ~ts:(pts ()) ~cat:"precopy"
      ~args:
        [
          ("epoch", Obs.Trace.I epoch);
          ("kind", Obs.Trace.S (kind_name kind));
          ("wire_bytes", Obs.Trace.I (String.length wire));
        ]
      "precopy.round";
    match
      Transport.transfer ~config:config.handoff.Handoff.transport ~ts0:(pts ()) channel
        wire
    with
    | Transport.Aborted { reason; stats = tstats; _ } ->
        time := !time +. tstats.Transport.t_time_s;
        Obs.span_e ~ts:(pts ()) ~args:[ ("error", Obs.Trace.S reason) ] "precopy.round";
        fold_stats stats rs;
        Error (reason, Some tstats)
    | Transport.Delivered (delivered, tstats) -> (
        time := !time +. tstats.Transport.t_time_s;
        Obs.span_e ~ts:(pts ())
          ~args:
            [
              ("chunks_shipped", Obs.Trace.I rs.Cstats.d_chunks_shipped);
              ("chunks_reused", Obs.Trace.I rs.Cstats.d_chunks_reused);
              ("blocks_dirty", Obs.Trace.I rs.Cstats.d_blocks_dirty);
            ]
          "precopy.round";
        fold_stats stats rs;
        match Store.apply dst_store ?expect_base:base delivered with
        | applied ->
            record
              {
                pr_epoch = epoch;
                pr_kind = kind;
                pr_wire_bytes = String.length wire;
                pr_chunks_shipped = rs.Cstats.d_chunks_shipped;
                pr_chunks_reused = rs.Cstats.d_chunks_reused;
                pr_blocks_scanned = rs.Cstats.d_blocks_scanned;
                pr_blocks_dirty = rs.Cstats.d_blocks_dirty;
                pr_time_s = tstats.Transport.t_time_s;
              };
            Ok (applied, String.length wire)
        | exception (Store.Corrupt msg | Store.Error msg) -> Error (msg, Some tstats)
        | exception Store.Base_mismatch (want, got) ->
            Error (Printf.sprintf "base mismatch: destination holds %s, delta against %s" want got,
                   Some tstats))
  in
  let round_failed n (reason, tstats) =
    Interp.clear_migration_request src;
    finish ~converged:false
      ~outcome:(Round_link_failed { rl_round = n; rl_reason = reason; rl_stats = tstats })
      ~final_epoch:(epoch0 + n)
  in
  (* round 0: full snapshot at the current suspension *)
  match ship_round ~kind:`Full epoch0 with
  | Error e -> round_failed 0 e
  | Ok (base0, full_wire) ->
      let rec precopy_rounds base n =
        if n > config.rounds then (base, false, epoch0 + config.rounds)
        else (
          Interp.request_migration_after src (config.round_polls - 1);
          match Interp.run src with
          | Interp.RDone _ -> (base, false, epoch0 + n - 1) (* finished: no handoff *)
          | Interp.RFuel -> Store.err "pre-copy source ran out of fuel"
          | Interp.RPolled _ -> (
              let epoch = epoch0 + n in
              match ship_round ~kind:`Delta ~base epoch with
              | Error e -> raise (Round_abort (n, e))
              | Ok (applied, wire) ->
                  if float_of_int wire <= config.threshold *. float_of_int full_wire then
                    (applied, true, epoch)
                  else precopy_rounds applied (n + 1)))
      in
      (match precopy_rounds base0 1 with
      | exception Round_abort (n, e) -> round_failed n e
      | base, converged, last_epoch ->
          if (match src.Interp.result with Some _ -> true | None -> false) then
            (* the program completed mid-pre-copy; shipped state is moot *)
            finish ~converged ~outcome:Finished_before_handoff ~final_epoch:last_epoch
          else
            (* final round: stop-and-copy under two-phase commit, shipping
               only the last delta on the wire while the durable artifact
               stays the full materialized stream *)
            let final_epoch = last_epoch + 1 in
            let decode delivered =
              match Store.apply dst_store ~expect_base:base delivered with
              | applied ->
                  Ok (Snapshot.materialize ~ti:m.Migration.ti
                        ~lookup:(Store.get_chunk dst_store) applied)
              | exception (Store.Corrupt msg | Store.Error msg) -> Error msg
              | exception Store.Base_mismatch (want, got) ->
                  Error
                    (Printf.sprintf "base mismatch: destination holds %s, delta against %s"
                       want got)
            in
            (* re-base the handoff's trace timeline onto the simulated
               time the pre-copy rounds consumed *)
            if Obs.on () then Obs.set_now (pts ());
            let hres, _, rs_f, wire =
              final_handoff ~config:config.handoff ?faults ~channel ~snapshot ~lookup ~base
                ~stats ~decode ~epoch:final_epoch m src dst_arch
            in
            record
              {
                pr_epoch = final_epoch;
                pr_kind = `Final;
                pr_wire_bytes = String.length wire;
                pr_chunks_shipped = rs_f.Cstats.d_chunks_shipped;
                pr_chunks_reused = rs_f.Cstats.d_chunks_reused;
                pr_blocks_scanned = rs_f.Cstats.d_blocks_scanned;
                pr_blocks_dirty = rs_f.Cstats.d_blocks_dirty;
                pr_time_s = 0.0;
              };
            finish ~converged ~outcome:(Handed_off hres) ~final_epoch)

let pp_round ppf r =
  Fmt.pf ppf "round %d (%s): wire=%dB, chunks %d shipped / %d reused, %d/%d blocks dirty"
    r.pr_epoch
    (match r.pr_kind with `Full -> "full" | `Delta -> "delta" | `Final -> "final")
    r.pr_wire_bytes r.pr_chunks_shipped r.pr_chunks_reused r.pr_blocks_dirty
    r.pr_blocks_scanned
