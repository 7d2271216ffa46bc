(** Specialized batch translation of scalar runs.

    The per-field encode path of the migration stream pays a dispatch, a
    bounds check, and a temporary buffer per scalar ([Mem.load_scalar]
    followed by [Xdr.put_int] and friends).  For a run of non-pointer
    elements inside one block, the whole translation is a pure function
    of the source architecture and the element layout, so it can be
    compiled once per (arch, type) into an op program and replayed
    with one pass over the block's bytes.

    The compiled ops are {e exactly} equivalent to the per-field path:

    - an integer or double field whose memory width equals its canonical
      wire width is a plain byte copy (big-endian source) or a byte
      reversal (little-endian source) — sign-extending the load and then
      truncating the canonical store is the identity on equal widths, and
      [Int64.bits_of_float]/[float_of_bits] reinterpret without rounding;
    - a [long] narrower than the 8-byte wire form needs a sign-extending
      widen on encode and a truncating narrow on decode — the only
      width-changing case on any supported architecture;
    - a 32-bit float goes through the same [float] round-trip as the
      per-field path ([Endian.get_f32] / [Xdr.put_f32]) rather than a
      byte copy, so any platform quirk of the f32<->double conversion is
      reproduced bug-for-bug, keeping the differential oracle exact.

    Consecutive copyable fields are coalesced, so e.g. a big-endian
    [double[1000]] encodes as a single blit.  An array is one repeat op
    (count, stride, body), so a plan is as large as its type's structure,
    not its element count; a little-endian field of 2, 4 or 8 bytes is
    one load and one byte-swapped store.  Byte accounting matches the
    per-field path: the run's canonical size is added to
    {!Xdr.encoded_bytes} / {!Xdr.decoded_bytes} when {!Xdr.count_io} is
    on. *)

open Hpm_arch

(** Scalar classes a batch plan distinguishes.  Pointers are structured
    (tagged, variable-length) and never appear in a batch run. *)
type fclass =
  | Fint  (** sign-extended integer: char/short/int/long *)
  | Ff32  (** 32-bit IEEE float (conversion-faithful) *)
  | Ff64  (** 64-bit IEEE double (bit-pattern copy) *)
  | Ff64r
      (** 64-bit double on a [double_f32] machine: the 8-byte slot only
          ever holds f32-exact values, so encode is a bit-pattern copy,
          but decode must reproduce the machine's store rounding *)

(** One scalar field of a run: byte offset inside the block, its width in
    source/destination memory, and its canonical wire width. *)
type field = { f_off : int; f_mem_w : int; f_wire_w : int; f_class : fclass }

(** What a plan is compiled from: fields, and repeats of a body at a
    fixed stride (an array), so a plan is as large as its type's
    structure, not its element count. *)
type item =
  | Field of field
  | Repeat of { at : int; count : int; stride : int; body : item list }
      (** [count] copies of [body], item [i] at byte [at + i * stride] *)

(* Compiled ops.  Offsets are memory offsets relative to the enclosing
   base; the wire side is implicit (fields appear in ordinal order,
   widths are canonical). *)
type op =
  | Copy of int * int  (** (mem_off, len): raw bytes, equal width, big-endian *)
  | Rev of int * int   (** (mem_off, w): one field, equal width, little-endian *)
  | Widen of int * int
      (** (mem_off, mem_w): integer narrower than 8 wire bytes;
          sign-extend on encode, truncate on decode *)
  | F32 of int         (** (mem_off): conversion-faithful 32-bit float *)
  | Round64 of int
      (** (mem_off): full-width double whose destination store rounds to
          f32 precision — identity on encode, demoting on decode *)
  | Rep of { at : int; count : int; stride : int; body : op array }
      (** [body] run [count] times, item [i] based at [at + i * stride] *)

type plan = {
  p_order : Endian.order;  (** memory byte order of the run's machine *)
  p_ops : op array;
  p_wire_bytes : int;      (** canonical bytes of the whole run *)
  p_mem_end : int;         (** one past the last memory byte touched *)
  p_fields : int;          (** fields in the run *)
}

let wire_bytes p = p.p_wire_bytes
let field_count p = p.p_fields

let field_op (order : Endian.order) f =
  match f.f_class with
  | Ff32 -> F32 f.f_off
  | Ff64r ->
      assert (f.f_mem_w = 8 && f.f_wire_w = 8);
      Round64 f.f_off
  | Fint when f.f_mem_w < f.f_wire_w -> Widen (f.f_off, f.f_mem_w)
  | Fint | Ff64 -> (
      assert (f.f_mem_w = f.f_wire_w);
      match order with
      | Endian.Little when f.f_mem_w > 1 -> Rev (f.f_off, f.f_mem_w)
      | _ -> Copy (f.f_off, f.f_mem_w))

let shift d = function
  | Copy (o, l) -> Copy (o + d, l)
  | Rev (o, w) -> Rev (o + d, w)
  | Widen (o, w) -> Widen (o + d, w)
  | F32 o -> F32 (o + d)
  | Round64 o -> Round64 (o + d)
  | Rep r -> Rep { r with at = r.at + d }

(* Append [op] to the reversed program [rev]: big-endian (or single-byte)
   copies coalesce with a directly preceding copy. *)
let push rev op =
  match (op, rev) with
  | Copy (o, l), Copy (o', l') :: rest when o' + l' = o -> Copy (o', l' + l) :: rest
  | _ -> op :: rev

(* The ops of [count] repeats of [body]: a single repeat is inlined, a
   body that copies its whole stride becomes one copy, and a dense repeat
   of a repeat flattens into one (so [double[80][80]] is one run of
   6400). *)
let rec repeat_ops ~at ~count ~stride (body : op list) : op list =
  match body with
  | _ when count = 1 -> List.map (shift at) body
  | [ Copy (0, l) ] when l = stride -> [ Copy (at, count * stride) ]
  | [ Rep { at = 0; count = c; stride = s; body = b } ] when c * s = stride ->
      repeat_ops ~at ~count:(count * c) ~stride:s (Array.to_list b)
  | _ -> [ Rep { at; count; stride; body = Array.of_list body } ]

let rec compile_ops order items : op list =
  List.rev
    (List.fold_left
       (fun rev it ->
         match it with
         | Field f -> push rev (field_op order f)
         | Repeat { at; count; stride; body } ->
             List.fold_left push rev (repeat_ops ~at ~count ~stride (compile_ops order body)))
       [] items)

(* Fields, canonical bytes and memory end of an item list. *)
let rec measure items =
  List.fold_left
    (fun (n, wire, mem_end) it ->
      match it with
      | Field f -> (n + 1, wire + f.f_wire_w, max mem_end (f.f_off + f.f_mem_w))
      | Repeat { at; count; stride; body } ->
          let bn, bw, be = measure body in
          (n + (count * bn), wire + (count * bw), max mem_end (at + ((count - 1) * stride) + be)))
    (0, 0, 0) items

(** Compile a run of items (in ordinal order) for a machine with byte
    order [order].  Fields must not overlap; offsets need not be sorted
    (ordinal order is layout order for every supported type, but the
    compiler only assumes per-field validity). *)
let compile (order : Endian.order) (items : item list) : plan =
  let n, wire, mem_end = measure items in
  {
    p_order = order;
    p_ops = Array.of_list (compile_ops order items);
    p_wire_bytes = wire;
    p_mem_end = mem_end;
    p_fields = n;
  }

(** [repeat p ~count ~stride] runs [p] over [count] items [stride] bytes
    apart; its size does not depend on [count]. *)
let repeat p ~count ~stride =
  {
    p with
    p_ops = Array.of_list (repeat_ops ~at:0 ~count ~stride (Array.to_list p.p_ops));
    p_wire_bytes = count * p.p_wire_bytes;
    p_mem_end = ((count - 1) * stride) + p.p_mem_end;
    p_fields = count * p.p_fields;
  }

(* Equal-width little-endian fields: one load and one byte-swapped
   store for the common widths. *)
let put_rev b src off w =
  match w with
  | 8 -> Buffer.add_int64_be b (Bytes.get_int64_le src off)
  | 4 -> Buffer.add_int32_be b (Bytes.get_int32_le src off)
  | 2 -> Buffer.add_uint16_be b (Bytes.get_uint16_le src off)
  | _ ->
      for i = w - 1 downto 0 do
        Buffer.add_char b (Bytes.get src (off + i))
      done

let get_rev data pos dst off w =
  match w with
  | 8 -> Bytes.set_int64_le dst off (Bytes.get_int64_be data pos)
  | 4 -> Bytes.set_int32_le dst off (Bytes.get_int32_be data pos)
  | 2 -> Bytes.set_uint16_le dst off (Bytes.get_uint16_be data pos)
  | _ ->
      for i = 0 to w - 1 do
        Bytes.set dst (off + i) (Bytes.get data (pos + w - 1 - i))
      done

(** Append the canonical encoding of the run to [b], reading the fields
    from [src] (a block's bytes) with the plan based at byte [at].
    Byte-identical to loading each field with the machine's own
    representation and re-encoding it with
    {!Xdr.put_int}/{!Xdr.put_f32}/{!Xdr.put_f64}. *)
let encode ?(at = 0) (p : plan) (b : Buffer.t) (src : Bytes.t) : unit =
  if at + p.p_mem_end > Bytes.length src then
    invalid_arg "Batch.encode: plan exceeds source block";
  if !Xdr.count_io then Xdr.encoded_bytes := !Xdr.encoded_bytes + p.p_wire_bytes;
  let order = p.p_order in
  let rec run base ops =
    Array.iter
      (fun op ->
        match op with
        | Copy (off, len) -> Buffer.add_subbytes b src (base + off) len
        | Rev (off, w) -> put_rev b src (base + off) w
        | Widen (off, w) ->
            let v = Endian.get_int order w src (base + off) in
            Buffer.add_int64_be b v
        | F32 off ->
            let v = Endian.get_f32 order src (base + off) in
            Buffer.add_int32_be b (Int32.bits_of_float v)
        | Round64 off -> (
            (* the slot already holds an f32-exact value (every store on a
               double_f32 machine rounds), so encode is the bit-pattern
               identity of the per-field get_f64/put_f64 round-trip *)
            match order with
            | Endian.Big -> Buffer.add_subbytes b src (base + off) 8
            | Endian.Little -> put_rev b src (base + off) 8)
        | Rep { at; count; stride; body } ->
            for i = 0 to count - 1 do
              run (base + at + (i * stride)) body
            done)
      ops
  in
  run at p.p_ops

(** Decode the run from [r] into [dst] (a block's bytes) with the plan
    based at byte [at], narrowing to the destination machine's widths and
    byte order — the same stores the per-field [Stream.get_prim] +
    [Mem.store_scalar] path performs.
    @raise Xdr.Underflow when fewer than {!wire_bytes} bytes remain. *)
let decode ?(at = 0) (p : plan) (r : Xdr.rbuf) (dst : Bytes.t) : unit =
  if at + p.p_mem_end > Bytes.length dst then
    invalid_arg "Batch.decode: plan exceeds destination block";
  Xdr.need r p.p_wire_bytes "prim";
  if !Xdr.count_io then Xdr.decoded_bytes := !Xdr.decoded_bytes + p.p_wire_bytes;
  let order = p.p_order in
  let data = r.Xdr.data in
  let pos = ref r.Xdr.pos in
  let rec run base ops =
    Array.iter
      (fun op ->
        match op with
        | Copy (off, len) ->
            Bytes.blit data !pos dst (base + off) len;
            pos := !pos + len
        | Rev (off, w) ->
            get_rev data !pos dst (base + off) w;
            pos := !pos + w
        | Widen (off, w) ->
            (* wire carries 8 bytes; the narrowing store truncates *)
            Endian.set_int order w dst (base + off) (Bytes.get_int64_be data !pos);
            pos := !pos + 8
        | F32 off ->
            let v = Endian.get_f32 Endian.Big data !pos in
            Endian.set_f32 order dst (base + off) v;
            pos := !pos + 4
        | Round64 off ->
            (* reproduce Mem.store_scalar's f32 rounding on this machine *)
            let v = Int64.float_of_bits (Bytes.get_int64_be data !pos) in
            let v = Int32.float_of_bits (Int32.bits_of_float v) in
            Endian.set_f64 order dst (base + off) v;
            pos := !pos + 8
        | Rep { at; count; stride; body } ->
            for i = 0 to count - 1 do
              run (base + at + (i * stride)) body
            done)
      ops
  in
  run at p.p_ops;
  r.Xdr.pos <- !pos
