(** Migration-stream inspector.

    Decodes a stream (or a store image rebuilt by [Snapshot.materialize])
    into a human-readable listing without building a process: frames,
    every block with its identity, type and mi_id, every pointer as
    (id, ordinal), and all scalar payloads.  This is the debugging view of the wire format — when a
    migration misbehaves, [migratec stream] shows exactly what was
    collected.

    The walker is deliberately independent of {!Restore} (no destination
    machine, no allocation); both read through {!Stream}'s codecs, so
    anything Restore accepts, Inspect can print.  The converse does not
    hold: Inspect checks only the grammar, so it also prints streams
    Restore refuses for their meaning (another program's fingerprint,
    unknown names, resume points or ordinals out of range). *)

open Hpm_lang
open Hpm_xdr
open Hpm_msr

exception Error of string

let error fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

type ctx = {
  ti : Ti.t;
  r : Xdr.rbuf;
  ppf : Format.formatter;
  mutable next_id : int;
  mutable blocks : int;
  mutable pointers : int;
}

let rec walk_ptr ctx ~indent : string =
  ctx.pointers <- ctx.pointers + 1;
  match Stream.get_ptr ctx.r with
  | Stream.Null -> "null"
  | Stream.Func i -> Printf.sprintf "func#%d" i
  | Stream.Ref (id, ord) ->
      if id >= ctx.next_id then error "reference to undefined block id %d" id;
      Printf.sprintf "-> block %d @%d" id ord
  | Stream.Block ->
      walk_block ctx ~indent;
      let ord = Stream.get_ordinal ctx.r in
      Printf.sprintf "-> block %d @%d (defined above)" (ctx.next_id - 1) ord

and walk_block ctx ~indent =
  let d = Stream.get_def ctx.r ~next:ctx.next_id in
  ctx.next_id <- ctx.next_id + 1;
  ctx.blocks <- ctx.blocks + 1;
  let ty = Stream.def_ty ctx.ti d in
  let pad = String.make indent ' ' in
  Fmt.pf ctx.ppf "%sblock %d: %a : %s@." pad d.Stream.id Hpm_machine.Mem.pp_ident
    d.Stream.ident (Ty.to_string ty);
  let kinds = Ty.flatten ctx.ti.Ti.tenv ty in
  List.iteri
    (fun ord kind ->
      match kind with
      | Ty.KPtr _ | Ty.KFunc _ ->
          let s = walk_ptr ctx ~indent:(indent + 4) in
          Fmt.pf ctx.ppf "%s  [%d] %s@." pad ord s
      | k -> (
          match Stream.get_prim ctx.r k with
          | Hpm_machine.Mem.Vint v -> Fmt.pf ctx.ppf "%s  [%d] %Ld@." pad ord v
          | Hpm_machine.Mem.Vfloat v -> Fmt.pf ctx.ppf "%s  [%d] %.17g@." pad ord v
          | Hpm_machine.Mem.Vptr _ -> assert false))
    kinds

let walk_datum ctx name ~indent =
  let pad = String.make indent ' ' in
  Fmt.pf ctx.ppf "%s%s =@." pad name;
  let s = walk_ptr ctx ~indent:(indent + 2) in
  Fmt.pf ctx.ppf "%s  %s@." pad s

(** Print a decoded listing of [data] to [ppf].  Returns
    (blocks, pointers) counts.
    @raise Error or {!Stream.Corrupt} on malformed input
    @raise Invalid_argument when [ti] was not built for [prog] *)
let dump ?(ppf = Format.std_formatter) (prog : Hpm_ir.Ir.prog) (ti : Ti.t)
    (data : string) : int * int =
  if prog != ti.Ti.prog then
    invalid_arg "Inspect.dump: the TI table describes another program";
  let r = Xdr.reader_of_string data in
  let header = try Stream.get_header r with Stream.Corrupt m -> error "header: %s" m in
  let ctx = { ti; r; ppf; next_id = 0; blocks = 0; pointers = 0 } in
  Fmt.pf ppf "stream: %d bytes, from %s, poll #%d, epoch %d, rng=0x%Lx@."
    (String.length data) header.Stream.src_arch header.Stream.poll_id
    header.Stream.epoch header.Stream.rng_state;
  if not (Int64.equal header.Stream.prog_hash ti.Ti.fingerprint) then
    Fmt.pf ppf "WARNING: program fingerprint does not match the given program@.";
  let metas = Stream.get_frames r in
  Fmt.pf ppf "call stack (top first):@.";
  List.iter
    (fun (fname, block, index) -> Fmt.pf ppf "  %s at B%d.%d@." fname block index)
    metas;
  List.iter
    (fun (fname, _, _) ->
      let nlive = Xdr.get_int_of_i32 r in
      Fmt.pf ppf "frame %s: %d live variables@." fname nlive;
      for _ = 1 to nlive do
        let name = Xdr.get_string r in
        walk_datum ctx name ~indent:2
      done)
    metas;
  let nglobals = Xdr.get_int_of_i32 r in
  Fmt.pf ppf "globals: %d@." nglobals;
  for _ = 1 to nglobals do
    let name = Xdr.get_string r in
    walk_datum ctx name ~indent:2
  done;
  (try Stream.check_trailer r with Stream.Corrupt m -> error "trailer: %s" m);
  Fmt.pf ppf "total: %d blocks, %d pointer values@." ctx.blocks ctx.pointers;
  (ctx.blocks, ctx.pointers)
