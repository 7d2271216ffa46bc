(* migrate-pointer and migrate-bulk: a closed loop of two-phase handoffs
   that ping-pong one process between a little-endian DECstation 5000
   and a big-endian SPARCstation 20 over simulated 100 Mb/s Ethernet,
   with the program running a fixed number of polls between handoffs. *)

open Hpm_core
open Hpm_machine
open Meter
module Arch = Hpm_arch.Arch
module Model = Hpm_obs.Obs.Model

(* Where the ops run: a stretch of the program in which the migrated
   state keeps its size. *)
type window =
  | Enter of string  (** from the first poll inside this function on *)
  | Before_last of int
      (** ending at the last poll before the program's final [k] polls *)

type program = {
  source : string;  (** the generated Mini-C input *)
  window : window;
  polls_between : int;
}

(* Substitute the one occurrence of [sub] in [s]; generated inputs are
   built this way from the stock workload sources. *)
let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_once: no " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let top_fn p = (Interp.current_frame p).Interp.func.Hpm_ir.Ir.name

(* Run [p] to its [k]-th next poll event and suspend it there. *)
let advance p k =
  Interp.request_migration_after p (k - 1);
  match Interp.run p with
  | Interp.RPolled _ -> ()
  | Interp.RDone _ -> failwith "program finished before the last op"
  | Interp.RFuel -> assert false

let polls p = (Interp.stats p).Mstats.polls
let instrs p = (Interp.stats p).Mstats.instrs

let other (a : Arch.t) = if a == Arch.dec5000 then Arch.sparc20 else Arch.dec5000

(* One traced handoff's phase boundaries, stamped by Handoff.execute's
   own hooks: collect_fn wraps Collect.collect, the gap from the end of
   [encode] to the start of [decode] is Transport.transfer, [tamper]
   runs between Restore.restore and Verify.check. *)
type marks = {
  mutable collect0 : float;
  mutable collect1 : float;
  mutable encode0 : float;
  mutable encode1 : float;
  mutable decode0 : float;
  mutable decode1 : float;
  mutable restored : float;
}

let run_pass (m : Migration.migratable) ~reference ~(prog : program) ~ops ~traced
    (p0 : Interp.t) : cursor =
  let rc = run_clock () in
  let s = new_samples () in
  let channel = Hpm_net.Netsim.ethernet_100 () in
  let out = Buffer.create 256 in
  let cur = ref p0 and failed = ref 0 and bytes = ref 0 in
  let op_s = Array.make ops 0.0 in
  let mk =
    { collect0 = 0.; collect1 = 0.; encode0 = 0.; encode1 = 0.; decode0 = 0.;
      decode1 = 0.; restored = 0. }
  in
  let step i =
    if i > 1 then begin
      let i0 = instrs !cur in
      let (), dt = timed rc (fun () -> advance !cur prog.polls_between) in
      if traced then begin
        add s "interp.s" dt;
        add s "interp.instrs" (float_of_int (instrs !cur - i0))
      end
    end;
    settle ();
    let src = !cur in
    let hook f = if traced then Some f else None in
    let collect_fn =
      hook (fun () ->
          mk.collect0 <- now ();
          let r = Collect.collect ~epoch:i src m.Migration.ti in
          mk.collect1 <- now ();
          r)
    and encode = hook (fun w -> mk.encode0 <- now (); mk.encode1 <- now (); w)
    and decode =
      hook (fun w ->
          mk.decode0 <- now ();
          mk.decode1 <- now ();
          Ok w)
    and tamper = hook (fun _ -> mk.restored <- now ()) in
    let gc0 = gc_collections () in
    let r, dt =
      timed rc (fun () ->
          Handoff.execute ~channel ~epoch:i ?collect_fn ?encode ?decode ?tamper m src
            (other src.Interp.arch))
    in
    let t_end = now () in
    op_s.(i - 1) <- dt;
    match r.Handoff.outcome with
    | Handoff.Committed c ->
        Buffer.add_string out (Interp.output src);
        cur := c.Handoff.c_dst;
        bytes := !bytes + c.Handoff.c_stream_bytes;
        if traced then begin
          let cs = c.Handoff.c_cstats and ts = c.Handoff.c_tstats
          and rs = c.Handoff.c_rstats and v = c.Handoff.c_verify in
          let collect = mk.collect1 -. mk.collect0
          and encode = mk.encode1 -. mk.encode0
          and transport = mk.decode0 -. mk.encode1
          and decode = mk.decode1 -. mk.decode0
          and restore = mk.restored -. mk.decode1
          and verify = t_end -. mk.restored in
          List.iter
            (fun (k, v) -> add s k v)
            [
              ("op.s", dt);
              ("gc.collections", float_of_int (gc_collections () - gc0));
              ("collect.s", collect);
              ("collect.searches", float_of_int cs.Cstats.c_searches);
              ("collect.data_bytes", float_of_int cs.Cstats.c_data_bytes);
              ("wire.s", encode +. transport);
              ("transport.s", transport);
              ("transport.frames", float_of_int ts.Hpm_net.Transport.t_chunks);
              ("transport.wire_bytes", float_of_int ts.Hpm_net.Transport.t_wire_bytes);
              ("restore.s", restore);
              ("restore.updates", float_of_int rs.Cstats.r_updates);
              ("restore.data_bytes", float_of_int rs.Cstats.r_data_bytes);
              ("verify.s", verify);
              ("verify.pointers", float_of_int v.Verify.v_pointers);
              ("handoff.self_s",
               self_time dt [ collect; encode; transport; decode; restore; verify ]);
              ("model.collect_s",
               Model.collect_s ~searches:cs.Cstats.c_searches ~blocks:cs.Cstats.c_blocks
                 ~bytes:cs.Cstats.c_data_bytes);
              ("model.restore_s",
               Model.decode_s ~bytes:c.Handoff.c_stream_bytes
               +. Model.restore_s ~updates:rs.Cstats.r_updates ~blocks:rs.Cstats.r_blocks
                    ~bytes:rs.Cstats.r_data_bytes);
              ("model.encode_s", Model.encode_s ~bytes:c.Handoff.c_stream_bytes);
              ("model.verify_s",
               Model.verify_s ~blocks:v.Verify.v_blocks ~pointers:v.Verify.v_pointers);
            ]
        end
    | _ -> incr failed
  in
  let finish () =
    (* output check: the process, wherever it now lives, runs to the end
       and everything it printed on every machine must equal the
       unmigrated reference *)
    Interp.clear_migration_request !cur;
    ignore (Interp.run_to_completion !cur : Mem.value option);
    Buffer.add_string out (Interp.output !cur);
    let failed = if Buffer.contents out = reference then !failed else ops in
    let layers =
      if not traced then []
      else
        let per_op name = total s name /. float_of_int ops in
        let ns num den = 1e9 *. ratio (total s num) (total s den) in
        [
          ("interp.run_ms", 1e3 *. med s "interp.s");
          ("interp.instrs", med s "interp.instrs");
          ("interp.ns_per_instr", ns "interp.s" "interp.instrs");
          ("collect.ms", 1e3 *. med s "collect.s");
          ("collect.searches", per_op "collect.searches");
          ("collect.ns_per_search", ns "collect.s" "collect.searches");
          ("collect.ns_per_data_byte", ns "collect.s" "collect.data_bytes");
          ("transport.ms", 1e3 *. med s "transport.s");
          ("transport.frames", per_op "transport.frames");
          ("transport.ns_per_wire_byte", ns "transport.s" "transport.wire_bytes");
          ("restore.ms", 1e3 *. med s "restore.s");
          ("restore.ns_per_update", ns "restore.s" "restore.updates");
          ("restore.ns_per_data_byte", ns "restore.s" "restore.data_bytes");
          ("verify.ms", 1e3 *. med s "verify.s");
          ("verify.pointers", per_op "verify.pointers");
          ("verify.ns_per_pointer", ns "verify.s" "verify.pointers");
          ("verify.ns_per_data_byte", ns "verify.s" "restore.data_bytes");
          ("handoff.self_ms", 1e3 *. med s "handoff.self_s");
          ("model.collect_ratio", ratio (total s "collect.s") (total s "model.collect_s"));
          ("model.restore_ratio", ratio (total s "restore.s") (total s "model.restore_s"));
          ("model.encode_ratio", ratio (total s "wire.s") (total s "model.encode_s"));
          ("model.verify_ratio", ratio (total s "verify.s") (total s "model.verify_s"));
          ("gc.major_collections", per_op "gc.collections");
        ]
    in
    { op_s; run_s = rc.acc; failed;
      bytes_per_op = float_of_int !bytes /. float_of_int ops; layers }
  in
  { ops; step; finish }

(* Prepare the program, record the unmigrated reference output, start
   it on the DECstation and run it to the first op's poll.  Returns the
   process with the number of ops its window can hold, at most [ops]. *)
let setup (prog : program) ~ops =
  let m, prepare_s = time (fun () -> Migration.prepare prog.source) in
  let reference, _, plain = Migration.run_plain m Arch.dec5000 in
  let p = Migration.start m Arch.dec5000 in
  let k = prog.polls_between in
  let ops =
    match prog.window with
    | Enter fn ->
        advance p 1;
        while top_fn p <> fn do
          advance p 1
        done;
        min ops (((plain.Mstats.polls - polls p) / k) - 1)
    | Before_last tail ->
        let last = plain.Mstats.polls - tail in
        let ops = min ops (((last - 1) / k) + 1) in
        advance p (last - ((ops - 1) * k));
        ops
  in
  (m, reference, p, ops, prepare_s)
