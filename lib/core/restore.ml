(** Data restoration: the [Restore_variable] / [Restore_pointer] half of
    the MSRM library (§3.1).

    Restoration mirrors collection recursively: reading a pointer reads
    its tag; a [block] tag carries the full definition inline, so
    [restore_ptr] allocates (or resolves) the destination block, binds its
    mi_id in the MSRLT (O(1) update — ids arrive densely in first-visit
    order), decodes the contents *in the destination machine's layout*,
    and finally converts the (mi_id, ordinal) pair to a concrete address.

    Named blocks (globals, frame locals, string literals) are *resolved*
    to the storage that already exists on the destination process — this
    is what re-binds cross-frame pointers like [q = &b] of the paper's
    Figure 1 — while heap blocks are freshly allocated.  Every resolution
    validates that the type in the stream matches the destination block's
    type; a mismatch means a corrupted stream or a different program. *)

open Hpm_lang
open Hpm_xdr
open Hpm_ir
open Hpm_machine
open Hpm_msr

exception Error of string

let error fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

type ctx = {
  interp : Interp.t;
  ti : Ti.t;
  res : Msrlt.restore_side;
  r : Xdr.rbuf;
  stats : Cstats.restore;
  plans : Tplan.table;
}

(* (mi_id, ordinal) → destination address. *)
let addr_of ctx (block : Mem.block) ord : int64 =
  let elems = Tplan.elems ctx.plans block.Mem.ty in
  let n = Layout.elem_count elems in
  if ord = n then Int64.add block.Mem.base (Int64.of_int block.Mem.size)
  else if ord >= 0 && ord < n then
    Int64.add block.Mem.base (Int64.of_int (Layout.byte_of_ordinal elems ord))
  else
    error "ordinal %d out of range for block #%d of type %s" ord block.Mem.bid
      (Ty.to_string block.Mem.ty)

let frame_at_depth ctx depth : Interp.frame =
  let stack = ctx.interp.Interp.stack in
  let n = List.length stack in
  if depth < 0 || depth >= n then error "stream references frame depth %d of %d" depth n;
  List.nth stack (n - 1 - depth)

(* Resolve a block identity to destination storage. *)
let resolve_ident ctx (ident : Mem.ident) (ty : Ty.t) : Mem.block =
  match ident with
  | Mem.Iglobal name -> (
      match Hashtbl.find_opt ctx.interp.Interp.globals name with
      | Some b ->
          if not (Ty.equal b.Mem.ty ty) then
            error "global %s has type %s here but %s in the stream" name
              (Ty.to_string b.Mem.ty) (Ty.to_string ty);
          b
      | None -> error "stream references unknown global %s" name)
  | Mem.Ilocal (depth, name) -> (
      let fr = frame_at_depth ctx depth in
      match Hashtbl.find_opt fr.Interp.locals name with
      | Some b ->
          if not (Ty.equal b.Mem.ty ty) then
            error "local %s@%d has type %s here but %s in the stream" name depth
              (Ty.to_string b.Mem.ty) (Ty.to_string ty);
          b
      | None ->
          error "stream references unknown local %s in frame %d (%s)" name depth
            fr.Interp.func.Ir.name)
  | Mem.Istring i ->
      let blocks = ctx.interp.Interp.string_blocks in
      if i < 0 || i >= Array.length blocks then
        error "stream references string literal #%d of %d" i (Array.length blocks);
      let b = blocks.(i) in
      if not (Ty.equal b.Mem.ty ty) then
        error "string literal #%d type mismatch" i;
      b
  | Mem.Iheap ->
      ctx.stats.Cstats.r_heap_allocs <- ctx.stats.Cstats.r_heap_allocs + 1;
      Mem.alloc ctx.interp.Interp.mem Mem.Heap ty Mem.Iheap

let rec restore_ptr ctx : Mem.value =
  ctx.stats.Cstats.r_pointers <- ctx.stats.Cstats.r_pointers + 1;
  match Stream.get_ptr ctx.r with
  | Stream.Null -> Mem.Vptr 0L
  | Stream.Func fidx ->
      if fidx >= List.length ctx.interp.Interp.prog.Ir.funcs then
        error "stream references function #%d" fidx;
      Mem.Vptr (Interp.func_addr fidx)
  | Stream.Ref (id, ord) ->
      let block =
        try Msrlt.resolve ctx.res id
        with Msrlt.Unbound id -> error "stream references unbound block id %d" id
      in
      Mem.Vptr (addr_of ctx block ord)
  | Stream.Block ->
      let block = restore_block ctx in
      Mem.Vptr (addr_of ctx block (Stream.get_ordinal ctx.r))

(** Read a block definition: resolve or allocate the destination block,
    bind its mi_id, and decode the contents into destination
    representation. *)
and restore_block ctx : Mem.block =
  let d = Stream.get_def ctx.r ~next:(Msrlt.bound_count ctx.res) in
  let block = resolve_ident ctx d.Stream.ident (Stream.def_ty ctx.ti d) in
  Msrlt.bind ctx.res d.Stream.id block;
  ctx.stats.Cstats.r_blocks <- ctx.stats.Cstats.r_blocks + 1;
  ctx.stats.Cstats.r_data_bytes <- ctx.stats.Cstats.r_data_bytes + block.Mem.size;
  let mem = ctx.interp.Interp.mem in
  Tplan.iter (Tplan.plan ctx.plans block.Mem.ty)
    ~prims:(fun at p ->
      (* one write-generation tick per run instead of per scalar *)
      Mem.touch mem block;
      Batch.decode ~at p ctx.r block.Mem.bytes)
    ~ptr:(fun _ off kind ->
      let v = restore_ptr ctx in
      Mem.store_scalar mem block off kind v);
  block

(** [restore_variable ctx block] decodes a named variable's datum and
    checks it resolves to that variable's own storage. *)
let restore_variable ctx (expected : Mem.block) name =
  match restore_ptr ctx with
  | Mem.Vptr addr when Int64.equal addr expected.Mem.base -> ()
  | Mem.Vptr addr ->
      error "variable %s restored to address 0x%Lx instead of its block at 0x%Lx" name
        addr expected.Mem.base
  | _ -> error "variable %s restored to a non-address" name

(** @raise Error when an image fingerprinted [prog_hash] was produced by
    another program than the one [ti] describes. *)
let check_fingerprint (ti : Ti.t) (prog_hash : int64) : unit =
  if not (Int64.equal prog_hash ti.Ti.fingerprint) then
    error
      "program fingerprint mismatch: the stream was produced by a different \
       migratable program"

(** Rebuild a full process on [arch] from a migration stream.  The
    returned interpreter is ready to [run]: it resumes right after the
    poll-point where the source was suspended.  [expect_epoch] asserts the
    header's handoff incarnation number — a recovery path restoring a
    retained checkpoint passes the epoch it aborted, so a stale image from
    an earlier attempt can never be resurrected.
    The stream's fingerprint is checked against [prog]'s, which [ti]
    holds.
    @raise Error, or {!Stream.Corrupt} or [Xdr.Underflow] when the stream
    breaks its grammar or ends early
    @raise Invalid_argument when [ti] was not built for [prog] *)
let restore ?expect_epoch (prog : Ir.prog) (arch : Hpm_arch.Arch.t) (ti : Ti.t)
    (data : string) : Interp.t * Cstats.restore =
  if prog != ti.Ti.prog then
    invalid_arg "Restore.restore: the TI table describes another program";
  let r = Xdr.reader_of_string data in
  let header =
    try Stream.get_header r with Stream.Corrupt m -> error "bad header: %s" m
  in
  check_fingerprint ti header.Stream.prog_hash;
  (match expect_epoch with
  | Some e when e <> header.Stream.epoch ->
      error "epoch mismatch: stream carries epoch %d, expected %d" header.Stream.epoch e
  | _ -> ());
  let interp = Interp.create_base prog arch in
  Rng.set_state interp.Interp.rng header.Stream.rng_state;
  let ctx =
    {
      interp;
      ti;
      res = Msrlt.restorer ();
      r;
      stats = Cstats.restore_zero ();
      plans = Tplan.table ti interp.Interp.mem.Mem.layout;
    }
  in
  (* frame metadata, top-down in the stream; build bottom-up *)
  let metas = Stream.get_frames r in
  let bottom_up = List.rev metas in
  List.iteri
    (fun depth (fname, block, index) ->
      let func =
        match Ir.find_func prog fname with
        | Some f -> f
        | None -> error "stream references unknown function %s" fname
      in
      if block < 0 || block >= Array.length func.Ir.blocks then
        error "frame %s: block %d out of range" fname block;
      if index < 0 || index > Array.length func.Ir.blocks.(block).Ir.instrs then
        error "frame %s: instruction index %d out of range" fname index;
      (* the resume point must sit just after a poll (top) or a call *)
      let ret_dst =
        if depth = 0 then None
        else
          let caller_fname, cblock, cindex = List.nth bottom_up (depth - 1) in
          let caller = Ir.find_func_exn prog caller_fname in
          if cindex = 0 then error "frame %s suspended at block start" caller_fname;
          match caller.Ir.blocks.(cblock).Ir.instrs.(cindex - 1) with
          | Ir.Icall (dst, _, _) -> dst
          | _ ->
              error "frame %s is not suspended at a call instruction" caller_fname
      in
      ignore (Interp.push_restored_frame interp func ~block ~index ~ret_dst))
    bottom_up;
  (* frame live data, top-down *)
  List.iter
    (fun (fr : Interp.frame) ->
      let nlive = Xdr.get_int_of_i32 r in
      for _ = 1 to nlive do
        let name = Xdr.get_string r in
        match Hashtbl.find_opt fr.Interp.locals name with
        | Some block -> restore_variable ctx block name
        | None ->
            error "stream lists live variable %s missing from frame %s" name
              fr.Interp.func.Ir.name
      done)
    interp.Interp.stack;
  (* globals *)
  let nglobals = Xdr.get_int_of_i32 r in
  if nglobals <> List.length prog.Ir.globals then
    error "stream has %d globals, program has %d" nglobals
      (List.length prog.Ir.globals);
  for _ = 1 to nglobals do
    let name = Xdr.get_string r in
    match Hashtbl.find_opt interp.Interp.globals name with
    | Some block -> restore_variable ctx block name
    | None -> error "stream lists unknown global %s" name
  done;
  (try Stream.check_trailer r with Stream.Corrupt m -> error "bad trailer: %s" m);
  ctx.stats.Cstats.r_updates <- ctx.res.Msrlt.updates;
  let module Obs = Hpm_obs.Obs in
  if Obs.metrics_on () then begin
    Msrlt.publish_restore ctx.res;
    let inc name v = Obs.inc name [] ~by:(float_of_int v) in
    inc "hpm_restore_blocks_total" ctx.stats.Cstats.r_blocks;
    inc "hpm_restore_data_bytes_total" ctx.stats.Cstats.r_data_bytes;
    inc "hpm_restore_heap_allocs_total" ctx.stats.Cstats.r_heap_allocs;
    inc "hpm_restore_pointers_total" ctx.stats.Cstats.r_pointers
  end;
  (interp, ctx.stats)
