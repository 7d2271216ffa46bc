(** Data collection: the [Save_variable] / [Save_pointer] half of the
    MSRM library (§3.1).

    At a migration the suspended process's state is encoded
    machine-independently:

    - execution state: the call stack's (function, block, index) triples;
    - live data: for each frame, the pre-compiler's live variables at its
      suspension point ([Ipoll] for the top frame, [Icall] for the rest),
      each saved with [save_variable];
    - all globals (collection roots, like the paper's [Save_variable
      (&first)] in [main]).

    This module owns the only collection walk.  [save_pointer] performs
    the depth-first traversal: translate the address through the MSRLT
    (O(log n) search), and if the target block is unvisited, mark it and
    recurse into its pointer elements.  Already-visited blocks are only
    referenced — "visited memory blocks are marked so that they are not
    saved again".  The walk reports what it visits to a {!handler}:
    {!collect}'s stream writer emits definitions inline and visited
    blocks as (mi_id, ordinal) references; [Hpm_store.Snapshot.collect]
    is the second handler, cutting the same walk into per-block
    chunks.  {!resolve}, the walk's address translation, is also the
    one {!Verify} and {!Graph} use. *)

open Hpm_lang
open Hpm_xdr
open Hpm_ir
open Hpm_machine
open Hpm_msr

exception Error of string

let error fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

(** What a pointer (or a collection root) resolved to. *)
type target =
  | Null
  | Func of int  (** index of the function the address names *)
  | Seen of Mem.block * int * int
      (** a block visited earlier in this walk: its mi_id and the
          ordinal the pointer lands on *)
  | Fresh of Mem.block * int
      (** a block not yet visited, entered right after this event;
          the ordinal the pointer lands on *)

(** Callbacks of the collection walk, in the order they fire:
    [group] opens a root group (each frame's live set top-down, then the
    globals in program order) and [root] names each root of it, before
    that root's [pointer] event.  Every pointer element fires [pointer];
    a [Fresh] target is then walked: [enter] with its newly assigned
    mi_id, [prims] (with the run's base byte) and [pointer] per element
    run of its {!Tplan} plan, and [leave] with the ordinal the entering
    edge landed on. *)
type handler = {
  group : string list -> unit;
  root : string -> Mem.block -> unit;
  pointer : target -> unit;
  enter : Mem.block -> int -> unit;
  prims : Mem.block -> int -> Batch.plan -> unit;
  leave : Mem.block -> int -> unit;
}

(** A collection in progress. *)
type t = {
  interp : Interp.t;
  ti : Ti.t;  (** the program's TI table: plans, fingerprint, liveness *)
  col : Msrlt.collect_side;
  plans : Tplan.table;
  stats : Cstats.collect;  (** every field but [c_stream_bytes] *)
  poll_id : int;  (** poll-point the top frame is suspended at *)
}

(* Poll id of the top frame's suspension point. *)
let suspended_poll_id (interp : Interp.t) : int =
  match interp.Interp.stack with
  | [] -> error "cannot collect a terminated process"
  | top :: _ ->
      if top.Interp.index = 0 then
        error "top frame %s not suspended after an instruction" top.Interp.func.Ir.name
      else (
        match
          top.Interp.func.Ir.blocks.(top.Interp.block).Ir.instrs.(top.Interp.index - 1)
        with
        | Ir.Ipoll id -> id
        | _ -> error "process is not suspended at a poll point")

(** Start collecting [interp], which must be suspended at a poll-point
    (i.e. {!Interp.run} just returned [RPolled]).  [since] is the
    {!Mem.write_mark} of the previous epoch, for dirty-block counts
    ([-1]: none, every block is dirty).  Plans come from [ti]'s table for
    the process's layout.
    @raise Error unless suspended at a poll-point
    @raise Invalid_argument when [ti] was not built for the process's
    program *)
let start ~since (interp : Interp.t) (ti : Ti.t) : t =
  if interp.Interp.prog != ti.Ti.prog then
    invalid_arg "Collect.start: the TI table describes another program";
  let poll_id = suspended_poll_id interp in
  {
    interp;
    ti;
    col = Msrlt.collector ~since interp.Interp.mem;
    plans = Tplan.table ti interp.Interp.mem.Mem.layout;
    stats = Cstats.collect_zero ();
    poll_id;
  }

(** Where a pointer value leads. *)
type resolved =
  | Rnull
  | Rfunc of int  (** index of the function the address names *)
  | Rblock of Mem.block * int
      (** the block and the ordinal of the element the address lands on;
          one past the end is ordinal = element count *)
  | Rwild of string  (** wild or dangling: the {!Mem.Fault} message *)
  | Rmisaligned of Mem.block * int
      (** inside the block at this byte offset, which is not an element
          boundary *)

(** The paper's Save_pointer translation, the only one: map [addr] to
    (block, element ordinal) through [find], which raises {!Mem.Fault}
    on an address no live block contains.  Collection passes its MSRLT
    search, so every probe is counted; {!Verify} and {!Graph} pass
    {!Mem.find_block}.  Each caller applies its own policy to the bad
    cases. *)
let resolve plans ~find (prog : Ir.prog) (addr : int64) : resolved =
  let ordinal (block : Mem.block) =
    let off = Int64.to_int (Int64.sub addr block.Mem.base) in
    match Layout.ordinal_of_byte (Tplan.elems plans block.Mem.ty) off with
    | Some o -> Rblock (block, o)
    | None -> Rmisaligned (block, off)
  in
  if Int64.equal addr 0L then Rnull
  else if Interp.is_func_addr prog addr then
    Rfunc (Int64.to_int (Int64.div (Int64.sub addr Interp.text_base) 64L))
  else
    match find addr with
    | block -> ordinal block
    | exception Mem.Fault m -> (
        (* a one-past-the-end pointer (legal C) does not land inside its
           block: retry on the last byte and confirm the address is
           exactly base+size *)
        match find (Int64.sub addr 1L) with
        | b when Int64.equal addr (Int64.add b.Mem.base (Int64.of_int b.Mem.size)) ->
            Rblock (b, Layout.elem_count (Tplan.elems plans b.Mem.ty))
        | _ -> Rwild m
        | exception Mem.Fault _ -> Rwild m)

(* The paper's Save_pointer: translate a pointer value and walk an
   unvisited target. *)
let rec save_ptr w h (v : Mem.value) : unit =
  w.stats.Cstats.c_pointers <- w.stats.Cstats.c_pointers + 1;
  match v with
  | Mem.Vptr addr -> (
      match resolve w.plans ~find:(Msrlt.search w.col) w.interp.Interp.prog addr with
      | Rnull -> h.pointer Null
      | Rfunc i -> h.pointer (Func i)
      | Rblock (block, ord) -> save_edge w h block ord
      | Rwild m -> error "collection reached a bad pointer: %s" m
      | Rmisaligned (block, off) ->
          error
            "pointer 0x%Lx lands at byte %d of block #%d (%s), which is not an element \
             boundary"
            addr off block.Mem.bid (Ty.to_string block.Mem.ty))
  | v -> error "save_pointer of non-pointer value %s" (Fmt.str "%a" Mem.pp_value v)

and save_edge w h (block : Mem.block) ord : unit =
  match Msrlt.lookup w.col block with
  | Some id -> h.pointer (Seen (block, id, ord))
  | None ->
      h.pointer (Fresh (block, ord));
      save_block w h block ord

(** Visit a block: it is registered (marked visited) *before* its
    contents are walked, so cycles terminate. *)
and save_block w h (block : Mem.block) ord : unit =
  let id = Msrlt.register w.col block in
  ignore (Msrlt.note_dirty w.col block : bool);
  w.stats.Cstats.c_blocks <- w.stats.Cstats.c_blocks + 1;
  w.stats.Cstats.c_data_bytes <- w.stats.Cstats.c_data_bytes + block.Mem.size;
  h.enter block id;
  let mem = w.interp.Interp.mem in
  Tplan.iter (Tplan.plan w.plans block.Mem.ty) ~prims:(h.prims block)
    ~ptr:(fun _ off kind -> save_ptr w h (Mem.load_scalar mem block off kind));
  h.leave block ord

(** The paper's Save_variable, for live locals and globals alike: no
    address search is needed (the block is known statically); the walk
    still recurses through any pointers inside. *)
let save_variable w h name (block : Mem.block) : unit =
  w.stats.Cstats.c_live_vars <- w.stats.Cstats.c_live_vars + 1;
  h.root name block;
  save_edge w h block 0

(* The live set of a suspended frame, per its suspension instruction,
   from the liveness the TI table computed once for the program. *)
let frame_live ti (fr : Interp.frame) ~is_top : string list =
  let live = Ti.live ti fr.Interp.func in
  let block = fr.Interp.block and index = fr.Interp.index in
  if index = 0 then
    (* suspended at a block boundary cannot happen: polls and calls are
       instructions, so index is always past at least one instruction *)
    error "frame %s suspended at block start" fr.Interp.func.Ir.name;
  let at = fr.Interp.func.Ir.blocks.(block).Ir.instrs.(index - 1) in
  match (at, is_top) with
  | Ir.Ipoll _, true ->
      Liveness.to_sorted_list (Liveness.live_after live ~block ~index:(index - 1))
  | Ir.Icall _, false ->
      Liveness.to_sorted_list (Liveness.live_suspended_call live ~block ~index:(index - 1))
  | _, true -> error "top frame %s is not suspended at a poll point" fr.Interp.func.Ir.name
  | _, false ->
      error "frame %s is not suspended at a call site" fr.Interp.func.Ir.name

(** Walk every root in the paper's collection order (§3.2): each frame's
    live variables top-down, then all globals in program order (the
    collection roots, like the paper's [Save_variable (&first)] in
    [main]), calling [h] along the way; then publish the epoch's MSRLT
    counters.
    @raise Error on a dangling, wild or misaligned pointer *)
let walk w h : unit =
  let interp = w.interp in
  List.iteri
    (fun i (fr : Interp.frame) ->
      w.stats.Cstats.c_frames <- w.stats.Cstats.c_frames + 1;
      let live = frame_live w.ti fr ~is_top:(i = 0) in
      h.group live;
      List.iter
        (fun name ->
          match Hashtbl.find_opt fr.Interp.locals name with
          | Some block -> save_variable w h name block
          | None -> error "live variable %s has no block in frame %s" name fr.Interp.func.Ir.name)
        live)
    interp.Interp.stack;
  h.group (List.map (fun (name, _, _) -> name) interp.Interp.prog.Ir.globals);
  List.iter
    (fun (name, _, _) ->
      match Hashtbl.find_opt interp.Interp.globals name with
      | Some block -> save_variable w h name block
      | None -> error "global %s has no block" name)
    interp.Interp.prog.Ir.globals;
  w.stats.Cstats.c_searches <- w.col.Msrlt.searches;
  Msrlt.publish_collect w.col

(** Collect the full process state of [interp], which must be suspended at
    a poll-point.  Returns the machine-independent stream and the §4.2
    cost decomposition.  [epoch] is the handoff incarnation number
    stamped into the header (default 0 for plain collections and
    checkpoints).  The stream writer is a {!handler} of {!walk}: a
    visited target is emitted as an (mi_id, ordinal) reference, a fresh
    one inline as its definition followed by the ordinal. *)
let collect ?(epoch = 0) (interp : Interp.t) (ti : Ti.t) : string * Cstats.collect =
  let w = start ~since:(-1) interp ti in
  let buf = Buffer.create 4096 in
  Stream.put_header ~epoch buf
    ~src_arch:interp.Interp.arch.Hpm_arch.Arch.name
    ~prog_hash:ti.Ti.fingerprint
    ~rng_state:(Rng.get_state interp.Interp.rng)
    ~poll_id:w.poll_id;
  Stream.put_frames buf
    (List.map
       (fun (fr : Interp.frame) -> (fr.Interp.func.Ir.name, fr.Interp.block, fr.Interp.index))
       interp.Interp.stack);
  walk w
    {
      group = (fun names -> Xdr.put_int_as_i32 buf (List.length names));
      root = (fun name _ -> Xdr.put_string buf name);
      pointer =
        (fun t ->
          Stream.put_ptr buf
            (match t with
            | Null -> Stream.Null
            | Func i -> Stream.Func i
            | Seen (_, id, ord) -> Stream.Ref (id, ord)
            | Fresh _ -> Stream.Block));
      enter =
        (fun block id ->
          let tid, count = Ti.encode_block_ty ti block.Mem.ty in
          Stream.put_def buf { Stream.id; ident = block.Mem.ident; tid; count });
      prims = (fun block at p -> Batch.encode ~at p buf block.Mem.bytes);
      leave = (fun _ ord -> Stream.put_ordinal buf ord);
    };
  Stream.put_trailer buf;
  w.stats.Cstats.c_stream_bytes <- Buffer.length buf;
  let module Obs = Hpm_obs.Obs in
  if Obs.metrics_on () then begin
    let inc name v = Obs.inc name [] ~by:(float_of_int v) in
    inc "hpm_collect_blocks_total" w.stats.Cstats.c_blocks;
    inc "hpm_collect_data_bytes_total" w.stats.Cstats.c_data_bytes;
    inc "hpm_collect_stream_bytes_total" w.stats.Cstats.c_stream_bytes;
    inc "hpm_collect_pointers_total" w.stats.Cstats.c_pointers;
    inc "hpm_collect_frames_total" w.stats.Cstats.c_frames
  end;
  (Buffer.contents buf, w.stats)
