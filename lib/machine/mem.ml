(** Byte-level simulated process memory.

    Memory is a set of *blocks* — one per global variable, per local
    variable of each live activation, per heap allocation, and per string
    literal — exactly the vertex set of the paper's MSR graph.  Each block
    owns a [Bytes.t] buffer living at a numeric base address in a flat
    simulated address space; pointers stored inside blocks are those
    numeric addresses, encoded at the architecture's pointer width and
    byte order.  Nothing about a stored value is symbolic: migrating the
    bytes verbatim to a machine with a different layout would (and in the
    failure-injection tests, does) produce garbage — which is precisely
    the problem the paper's mechanisms solve.

    Blocks are indexed by base address in a sorted flat-array interval
    index (maintained incrementally on alloc/free); translating a pointer
    value to its containing block is an O(log n) binary search, the
    [MSRLT_search] term of the paper's §4.2 cost model.  Allocation
    patterns keep maintenance cheap: global and heap bases only grow, so
    their inserts land at the end of their region, and stack blocks (which
    sort above both) are pushed and popped LIFO — every insert or removal
    blits only the short stack tail.  A one-block cache, validated by a
    table generation counter, serves the sequential locality of the MSRLT
    collector's scans. *)

open Hpm_arch
open Hpm_lang

type seg = Global | Stack | Heap | Text

let seg_to_string = function
  | Global -> "global"
  | Stack -> "stack"
  | Heap -> "heap"
  | Text -> "text"

(** Machine-independent identity of a block, used by migration to rebind a
    restored block to the right storage on the destination machine. *)
type ident =
  | Iglobal of string        (** the global variable's own block *)
  | Ilocal of int * string   (** frame depth (0 = main) and variable name *)
  | Iheap                    (** anonymous heap allocation *)
  | Istring of int           (** string-literal table entry *)

let pp_ident ppf = function
  | Iglobal n -> Fmt.pf ppf "global:%s" n
  | Ilocal (d, n) -> Fmt.pf ppf "local:%d:%s" d n
  | Iheap -> Fmt.string ppf "heap"
  | Istring i -> Fmt.pf ppf "string:%d" i

type block = {
  bid : int;          (** runtime id, allocation order *)
  base : int64;
  size : int;
  bytes : Bytes.t;
  ty : Ty.t;          (** the block's full type (e.g. [Array (node, 10)]) *)
  seg : seg;
  ident : ident;
  mutable freed : bool;
  mutable wgen : int;
      (** write generation: the memory's write tick at the last store into
          this block (or its allocation).  An incremental collector that
          remembers the tick of its previous epoch can tell a dirty block
          ([wgen > mark]) from a clean one without touching its bytes. *)
}

type t = {
  arch : Arch.t;
  layout : Layout.t;
  (* the interval index: parallel arrays sorted by base address, [tbl_len]
     entries live at the front.  [tbl_blocks] is padded with the last
     block inserted (never read past [tbl_len]); it starts empty. *)
  mutable tbl_bases : int64 array;
  mutable tbl_blocks : block array;
  mutable tbl_len : int;
  mutable tbl_gen : int;         (** bumped on every table mutation *)
  mutable next_global : int64;
  mutable next_stack : int64;
  mutable next_heap : int64;
  mutable nblocks : int;
  mutable live_blocks : int;
  mutable cache : block option;  (** last block hit, for access locality *)
  mutable cache_gen : int;       (** table generation the cache was set at *)
  mutable write_tick : int;      (** monotonic counter of mutating operations *)
  stats : Mstats.t;
}

exception Fault of string

let fault fmt = Fmt.kstr (fun m -> raise (Fault m)) fmt

let create arch tenv =
  {
    arch;
    layout = Layout.make arch tenv;
    tbl_bases = [||];
    tbl_blocks = [||];
    tbl_len = 0;
    tbl_gen = 0;
    next_global = arch.Arch.global_base;
    next_stack = arch.Arch.stack_base;
    next_heap = arch.Arch.heap_base;
    nblocks = 0;
    live_blocks = 0;
    cache = None;
    cache_gen = 0;
    write_tick = 0;
    stats = Mstats.create ();
  }

(* ---- interval index maintenance ---- *)

(* Index of the last entry with base <= addr, or -1. *)
let idx_le t (addr : int64) : int =
  let lo = ref 0 and hi = ref (t.tbl_len - 1) and ans = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare (Array.unsafe_get t.tbl_bases mid) addr <= 0 then (
      ans := mid;
      lo := mid + 1)
    else hi := mid - 1
  done;
  !ans

let tbl_insert t (block : block) =
  (if t.tbl_len = Array.length t.tbl_bases then (
     let cap = max 16 (2 * t.tbl_len) in
     let bases = Array.make cap 0L and blocks = Array.make cap block in
     Array.blit t.tbl_bases 0 bases 0 t.tbl_len;
     Array.blit t.tbl_blocks 0 blocks 0 t.tbl_len;
     t.tbl_bases <- bases;
     t.tbl_blocks <- blocks);
   let at = idx_le t block.base in
   if at >= 0 && Int64.equal t.tbl_bases.(at) block.base then (
     (* same base as a removed-then-reused range: replace, like Map.add *)
     t.tbl_blocks.(at) <- block)
   else (
     let ins = at + 1 in
     let tail = t.tbl_len - ins in
     if tail > 0 then (
       Array.blit t.tbl_bases ins t.tbl_bases (ins + 1) tail;
       Array.blit t.tbl_blocks ins t.tbl_blocks (ins + 1) tail);
     t.tbl_bases.(ins) <- block.base;
     t.tbl_blocks.(ins) <- block;
     t.tbl_len <- t.tbl_len + 1));
  t.tbl_gen <- t.tbl_gen + 1

let tbl_remove t (block : block) =
  let at = idx_le t block.base in
  if at >= 0 && Int64.equal t.tbl_bases.(at) block.base then (
    let tail = t.tbl_len - at - 1 in
    if tail > 0 then (
      Array.blit t.tbl_bases (at + 1) t.tbl_bases at tail;
      Array.blit t.tbl_blocks (at + 1) t.tbl_blocks at tail);
    t.tbl_len <- t.tbl_len - 1;
    t.tbl_gen <- t.tbl_gen + 1)

(** Current write tick.  A snapshot taken now is invalidated for a block
    [b] exactly when a later operation leaves [b.wgen > write_mark t]. *)
let write_mark t = t.write_tick

let touch t (b : block) =
  t.write_tick <- t.write_tick + 1;
  b.wgen <- t.write_tick

let align_addr addr align =
  let a = Int64.of_int align in
  Int64.mul (Int64.div (Int64.add addr (Int64.sub a 1L)) a) a

(* Guard gap between blocks so off-by-one pointer arithmetic faults
   instead of silently landing in a neighbour. *)
let guard = 16L

let alloc t seg (ty : Ty.t) (ident : ident) : block =
  let size = max 1 (Layout.sizeof t.layout ty) in
  let align = max 1 (Layout.alignof t.layout ty) in
  let base =
    match seg with
    | Global ->
        let b = align_addr t.next_global align in
        t.next_global <- Int64.add b (Int64.add (Int64.of_int size) guard);
        b
    | Heap ->
        let b = align_addr t.next_heap align in
        t.next_heap <- Int64.add b (Int64.add (Int64.of_int size) guard);
        b
    | Stack ->
        (* stacks grow down: place the block below the current top *)
        let b =
          Int64.sub t.next_stack (Int64.add (Int64.of_int size) guard)
        in
        let b = Int64.sub b (Int64.rem b (Int64.of_int align)) in
        t.next_stack <- b;
        b
    | Text -> fault "cannot allocate in the text segment"
  in
  let block =
    {
      bid = t.nblocks;
      base;
      size;
      bytes = Bytes.make size '\000';
      ty;
      seg;
      ident;
      freed = false;
      wgen = 0;
    }
  in
  touch t block;
  t.nblocks <- t.nblocks + 1;
  t.live_blocks <- t.live_blocks + 1;
  tbl_insert t block;
  t.stats.Mstats.allocs <- t.stats.Mstats.allocs + 1;
  if seg = Heap then t.stats.Mstats.heap_allocs <- t.stats.Mstats.heap_allocs + 1;
  t.stats.Mstats.table_ops <- t.stats.Mstats.table_ops + 1;
  t.stats.Mstats.bytes_allocated <- t.stats.Mstats.bytes_allocated + size;
  block

let free t (block : block) =
  if block.freed then
    fault "double free of block #%d (%s)" block.bid (Fmt.str "%a" pp_ident block.ident);
  t.write_tick <- t.write_tick + 1;
  block.freed <- true;
  t.live_blocks <- t.live_blocks - 1;
  t.cache <- None;
  t.tbl_gen <- t.tbl_gen + 1;
  t.stats.Mstats.frees <- t.stats.Mstats.frees + 1;
  t.stats.Mstats.table_ops <- t.stats.Mstats.table_ops + 1

(** Pop-time removal of a stack block: unlike [free], the block vanishes
    from the table entirely and its address range will be reused by later
    frames, exactly like a real stack.  A stale pointer into it then
    faults as "wild" (or silently aliases a newer frame if the range was
    reused — which is the authentic C behaviour). *)
let remove_block t (b : block) =
  t.write_tick <- t.write_tick + 1;
  b.freed <- true;
  tbl_remove t b;
  t.live_blocks <- t.live_blocks - 1;
  t.cache <- None;
  t.stats.Mstats.table_ops <- t.stats.Mstats.table_ops + 1

let stack_top t = t.next_stack
let set_stack_top t sp = t.next_stack <- sp

(** [find_block t addr] is the live block containing [addr].
    @raise Fault on wild or dangling addresses. *)
let find_block t (addr : int64) : block =
  t.stats.Mstats.searches <- t.stats.Mstats.searches + 1;
  let in_block (b : block) =
    addr >= b.base && Int64.compare addr (Int64.add b.base (Int64.of_int b.size)) < 0
  in
  match t.cache with
  | Some b when t.cache_gen = t.tbl_gen && in_block b && not b.freed -> b
  | _ -> (
      match idx_le t addr with
      | at when at >= 0 && in_block t.tbl_blocks.(at) ->
          let b = t.tbl_blocks.(at) in
          if b.freed then
            fault "dangling pointer 0x%Lx into freed block #%d" addr b.bid;
          t.cache <- Some b;
          t.cache_gen <- t.tbl_gen;
          b
      | _ -> fault "wild pointer 0x%Lx: no block contains this address" addr)

(** All live blocks, in allocation (bid) order. *)
let live_blocks t =
  let acc = ref [] in
  for i = t.tbl_len - 1 downto 0 do
    let b = t.tbl_blocks.(i) in
    if not b.freed then acc := b :: !acc
  done;
  List.sort (fun a b -> compare a.bid b.bid) !acc

(* ------------------------------------------------------------------ *)
(* Scalar load/store                                                   *)
(* ------------------------------------------------------------------ *)

(** A machine value: what the interpreter computes with.  [Vptr] is a raw
    simulated address (possibly null = 0). *)
type value =
  | Vint of int64   (** any integer type, sign-extended to 64 bits *)
  | Vfloat of float
  | Vptr of int64

let pp_value ppf = function
  | Vint v -> Fmt.pf ppf "%Ld" v
  | Vfloat v -> Fmt.pf ppf "%.17g" v
  | Vptr v -> Fmt.pf ppf "0x%Lx" v

let value_equal a b =
  match (a, b) with
  | Vint x, Vint y -> Int64.equal x y
  | Vptr x, Vptr y -> Int64.equal x y
  | Vfloat x, Vfloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let check_range (b : block) off len what =
  if off < 0 || off + len > b.size then
    fault "%s at offset %d (+%d) is outside block #%d of %d bytes" what off len b.bid
      b.size

(** [load_scalar t block off kind] reads a scalar of [kind] at byte offset
    [off] of [block], in this machine's representation. *)
let load_scalar t (b : block) off (kind : Ty.scalar_kind) : value =
  let order = t.arch.Arch.endian in
  let size = Layout.scalar_size t.layout kind in
  check_range b off size "load";
  if b.freed then fault "load from freed block #%d" b.bid;
  match kind with
  | Ty.KChar when not t.arch.Arch.char_signed ->
      (* unsigned plain char (AArch64): same stored byte, zero-extended *)
      Vint (Endian.get_uint order size b.bytes off)
  | Ty.KChar | Ty.KShort | Ty.KInt | Ty.KLong ->
      Vint (Endian.get_int order size b.bytes off)
  | Ty.KFloat -> Vfloat (Endian.get_f32 order b.bytes off)
  | Ty.KDouble -> Vfloat (Endian.get_f64 order b.bytes off)
  | Ty.KPtr _ | Ty.KFunc _ -> Vptr (Endian.get_uint order size b.bytes off)

let store_scalar t (b : block) off (kind : Ty.scalar_kind) (v : value) =
  let order = t.arch.Arch.endian in
  let size = Layout.scalar_size t.layout kind in
  check_range b off size "store";
  if b.freed then fault "store to freed block #%d" b.bid;
  touch t b;
  match (kind, v) with
  | (Ty.KChar | Ty.KShort | Ty.KInt | Ty.KLong), Vint x ->
      Endian.set_int order size b.bytes off x
  | Ty.KFloat, Vfloat x -> Endian.set_f32 order b.bytes off x
  | Ty.KDouble, Vfloat x ->
      (* double_f32 machines keep the 8-byte slot but round every stored
         value to f32 precision (softfloat container) *)
      let x =
        if t.arch.Arch.double_f32 then Int32.float_of_bits (Int32.bits_of_float x)
        else x
      in
      Endian.set_f64 order b.bytes off x
  | (Ty.KPtr _ | Ty.KFunc _), Vptr x -> Endian.set_uint order size b.bytes off x
  | (Ty.KPtr _ | Ty.KFunc _), Vint 0L -> Endian.set_uint order size b.bytes off 0L
  | k, v ->
      fault "store: value %s does not fit scalar kind %s"
        (Fmt.str "%a" pp_value v)
        (Ty.to_string (Ty.ty_of_scalar_kind k))

(** Load/store by absolute address (block search included). *)
let load_at t addr kind =
  let b = find_block t addr in
  load_scalar t b (Int64.to_int (Int64.sub addr b.base)) kind

let store_at t addr kind v =
  let b = find_block t addr in
  store_scalar t b (Int64.to_int (Int64.sub addr b.base)) kind v

(** Aggregate copy for struct assignment: both regions must be in single
    blocks and layout-compatible (same type on the same machine). *)
let copy_region t ~dst ~src ~len =
  let db = find_block t dst and sb = find_block t src in
  let doff = Int64.to_int (Int64.sub dst db.base)
  and soff = Int64.to_int (Int64.sub src sb.base) in
  check_range db doff len "copy dst";
  check_range sb soff len "copy src";
  touch t db;
  Bytes.blit sb.bytes soff db.bytes doff len

(** Read a NUL-terminated C string starting at [addr] (for [print_str]). *)
let read_cstring t addr =
  let b = find_block t addr in
  let off = Int64.to_int (Int64.sub addr b.base) in
  let buf = Buffer.create 16 in
  let i = ref off in
  let continue = ref true in
  while !continue do
    if !i >= b.size then fault "unterminated string in block #%d" b.bid;
    let c = Bytes.get b.bytes !i in
    if c = '\000' then continue := false
    else (
      Buffer.add_char buf c;
      incr i)
  done;
  Buffer.contents buf
