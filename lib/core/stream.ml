(** Wire format of the migration stream.

    Everything is XDR-canonical (big-endian, fixed widths).  The layout:

    {v
    header   : magic "HPMG", version u8, src-arch string, prog-hash i64,
               rng-state i64, poll-id i32, epoch i32
    frames   : count i32, then per frame TOP-DOWN: fname string,
               block i32, index i32
    data     : per frame TOP-DOWN: live-var count i32, then per var:
               name string, datum
    globals  : count i32, then per global: name string, datum
    trailer  : magic "GEND"
    v}

    A [datum] is the pointer encoding of the variable's own block at
    element 0 — [Save_variable (&v)] really is [Save_pointer] applied to
    [&v], as in the paper.  The pointer encoding:

    {v
    tag 0: null
    tag 1: ref        mi_id i32, ordinal i32      (block already visited)
    tag 2: block      block_def, then ordinal i32 (first visit: inline)
    tag 3: func-ptr   function index i32
    block_def: mi_id i32, ident, tid i32, count i32, contents
    ident:  tag 0 global (name string) | 1 local (depth i32, name string)
          | 2 heap | 3 string (index i32)
    contents: scalar elements in ordinal order; pointers recurse
    v}

    Frame metadata precedes all data so the restorer can pre-allocate
    every frame's variable blocks before any cross-frame pointer needs to
    resolve.

    This module is the one owner of the grammar below the header: the
    pointer ({!put_ptr}/{!get_ptr}), block-definition head
    ({!put_def}/{!get_def}) and frame-table ({!put_frames}/{!get_frames})
    codecs, with their checks.  Every writer and reader of the stream —
    and the store's manifests and chunk payloads, whose datums are
    pointers without the inline-block form — goes through them. *)

open Hpm_lang
open Hpm_xdr
open Hpm_machine

let magic = "HPMG"
let trailer = "GEND"

(* version 2 added the epoch/incarnation field (crash-consistent handoff) *)
let version = 2

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

(* pointer tags *)
let tag_null = 0
let tag_ref = 1
let tag_block = 2
let tag_func = 3

(* ident tags *)
let id_global = 0
let id_local = 1
let id_heap = 2
let id_string = 3

let put_ident b (ident : Mem.ident) =
  match ident with
  | Mem.Iglobal name ->
      Xdr.put_u8 b id_global;
      Xdr.put_string b name
  | Mem.Ilocal (depth, name) ->
      Xdr.put_u8 b id_local;
      Xdr.put_int_as_i32 b depth;
      Xdr.put_string b name
  | Mem.Iheap -> Xdr.put_u8 b id_heap
  | Mem.Istring i ->
      Xdr.put_u8 b id_string;
      Xdr.put_int_as_i32 b i

let get_ident r : Mem.ident =
  match Xdr.get_u8 r with
  | t when t = id_global -> Mem.Iglobal (Xdr.get_string r)
  | t when t = id_local ->
      let depth = Xdr.get_int_of_i32 r in
      Mem.Ilocal (depth, Xdr.get_string r)
  | t when t = id_heap -> Mem.Iheap
  | t when t = id_string -> Mem.Istring (Xdr.get_int_of_i32 r)
  | t -> corrupt "unknown ident tag %d" t

(** A pointer on the wire.  [Block] is a first visit: the block's
    {!def} head, its contents and then the {!put_ordinal} the pointer
    lands on follow the tag. *)
type ptr =
  | Null
  | Ref of int * int  (** (mi_id, ordinal) of a block defined earlier *)
  | Block
  | Func of int  (** function index *)

let put_ptr b = function
  | Null -> Xdr.put_u8 b tag_null
  | Ref (id, ord) ->
      Xdr.put_u8 b tag_ref;
      Xdr.put_int_as_i32 b id;
      Xdr.put_int_as_i32 b ord
  | Block -> Xdr.put_u8 b tag_block
  | Func i ->
      Xdr.put_u8 b tag_func;
      Xdr.put_int_as_i32 b i

(* every integer a pointer carries is an index *)
let get_index r what =
  let n = Xdr.get_int_of_i32 r in
  if n < 0 then corrupt "negative %s %d" what n;
  n

(** @raise Corrupt on an unknown tag or a negative id, ordinal or
    function index *)
let get_ptr r : ptr =
  match Xdr.get_u8 r with
  | t when t = tag_null -> Null
  | t when t = tag_ref ->
      let id = get_index r "block id" in
      Ref (id, get_index r "ordinal")
  | t when t = tag_block -> Block
  | t when t = tag_func -> Func (get_index r "function index")
  | t -> corrupt "unknown pointer tag %d" t

(** The ordinal that closes a [Block] pointer, after its contents. *)
let put_ordinal = Xdr.put_int_as_i32

let get_ordinal r = get_index r "ordinal"

(** Head of a block definition, before its contents: the block type is
    the TI-table id [tid] × element [count]. *)
type def = { id : int; ident : Mem.ident; tid : int; count : int }

let put_def b d =
  Xdr.put_int_as_i32 b d.id;
  put_ident b d.ident;
  Xdr.put_int_as_i32 b d.tid;
  Xdr.put_int_as_i32 b d.count

(** Read a definition head whose mi_id must be [next]: ids are dense, in
    first-visit order.  Every element occupies at least one byte of
    contents, so a plausible count never exceeds the remaining input:
    this stops a corrupted count from triggering a huge allocation.
    @raise Corrupt otherwise *)
let get_def r ~next : def =
  let id = Xdr.get_int_of_i32 r in
  if id <> next then corrupt "block ids out of order: got %d, expected %d" id next;
  let ident = get_ident r in
  let tid = Xdr.get_int_of_i32 r in
  let count = Xdr.get_int_of_i32 r in
  if count < 1 || count > Xdr.remaining r then
    corrupt "implausible element count %d (only %d bytes of stream remain)" count
      (Xdr.remaining r);
  { id; ident; tid; count }

(** The block type a definition names in [ti].
    @raise Corrupt when [ti] has no such type *)
let def_ty ti d : Ty.t =
  try Hpm_msr.Ti.decode_block_ty ti (d.tid, d.count)
  with Invalid_argument m -> corrupt "block %d has a bad type: %s" d.id m

(** The frame table, top of the stack first: (function name, basic
    block, instruction index) of each resume point. *)
let put_frames b frames =
  Xdr.put_int_as_i32 b (List.length frames);
  List.iter
    (fun (fname, block, index) ->
      Xdr.put_string b fname;
      Xdr.put_int_as_i32 b block;
      Xdr.put_int_as_i32 b index)
    frames

(** A process has at least one frame, and each takes at least 12 bytes
    (name length, block, index), so a plausible count never exceeds a
    twelfth of the remaining input.
    @raise Corrupt otherwise *)
let get_frames r : (string * int * int) list =
  let n = Xdr.get_int_of_i32 r in
  if n < 1 || n > Xdr.remaining r / 12 then corrupt "implausible frame count %d" n;
  List.init n (fun _ ->
      let fname = Xdr.get_string r in
      let block = Xdr.get_int_of_i32 r in
      let index = Xdr.get_int_of_i32 r in
      (fname, block, index))

(** Canonical stream width of each scalar kind (pointers excluded: they
    are structured, not fixed-width). *)
let canonical_width (k : Ty.scalar_kind) =
  match k with
  | Ty.KChar -> 1
  | Ty.KShort -> 2
  | Ty.KInt -> 4
  | Ty.KLong -> 8
  | Ty.KFloat -> 4
  | Ty.KDouble -> 8
  | Ty.KPtr _ | Ty.KFunc _ -> invalid_arg "canonical_width: pointer kinds are structured"

(** Encode a non-pointer scalar value canonically. *)
let put_prim b (k : Ty.scalar_kind) (v : Mem.value) =
  match (k, v) with
  | (Ty.KChar | Ty.KShort | Ty.KInt | Ty.KLong), Mem.Vint x ->
      Xdr.put_int b (canonical_width k) x
  | Ty.KFloat, Mem.Vfloat x -> Xdr.put_f32 b x
  | Ty.KDouble, Mem.Vfloat x -> Xdr.put_f64 b x
  | _ ->
      invalid_arg
        (Fmt.str "Stream.put_prim: %s does not fit kind %s"
           (Fmt.str "%a" Mem.pp_value v)
           (Ty.to_string (Ty.ty_of_scalar_kind k)))

(** Decode a non-pointer scalar.  Values wider than the destination
    machine's representation are narrowed by the store, exactly as a C
    assignment would narrow them. *)
let get_prim r (k : Ty.scalar_kind) : Mem.value =
  match k with
  | Ty.KChar | Ty.KShort | Ty.KInt | Ty.KLong ->
      Mem.Vint (Xdr.get_int r (canonical_width k) "prim")
  | Ty.KFloat -> Mem.Vfloat (Xdr.get_f32 r)
  | Ty.KDouble -> Mem.Vfloat (Xdr.get_f64 r)
  | Ty.KPtr _ | Ty.KFunc _ -> invalid_arg "Stream.get_prim: pointer kinds are structured"

let put_header ?(epoch = 0) b ~src_arch ~prog_hash ~rng_state ~poll_id =
  if epoch < 0 then invalid_arg "Stream.put_header: negative epoch";
  Buffer.add_string b magic;
  Xdr.put_u8 b version;
  Xdr.put_string b src_arch;
  Xdr.put_i64 b prog_hash;
  Xdr.put_i64 b rng_state;
  Xdr.put_int_as_i32 b poll_id;
  Xdr.put_int_as_i32 b epoch

type header = {
  src_arch : string;
  prog_hash : int64;
  rng_state : int64;
  poll_id : int;
  epoch : int;
      (** incarnation number of the migration attempt that produced this
          stream; 0 for plain (non-handoff) collections *)
}

let get_header r : header =
  let m = try Bytes.sub_string r.Xdr.data r.Xdr.pos 4 with _ -> "" in
  if m <> magic then corrupt "bad magic %S (expected %S)" m magic;
  Xdr.skip r 4;
  let v = Xdr.get_u8 r in
  if v <> version then corrupt "unsupported stream version %d" v;
  let src_arch = Xdr.get_string r in
  let prog_hash = Xdr.get_i64 r in
  let rng_state = Xdr.get_i64 r in
  let poll_id = Xdr.get_int_of_i32 r in
  let epoch = Xdr.get_int_of_i32 r in
  if epoch < 0 then corrupt "negative epoch %d" epoch;
  { src_arch; prog_hash; rng_state; poll_id; epoch }

let put_trailer b = Buffer.add_string b trailer

let check_trailer r =
  let m = try Bytes.sub_string r.Xdr.data r.Xdr.pos 4 with _ -> "" in
  if m <> trailer then corrupt "bad trailer %S" m;
  Xdr.skip r 4;
  if not (Xdr.at_end r) then corrupt "%d trailing bytes after trailer" (Xdr.remaining r)
