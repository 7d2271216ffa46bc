(** Per-(arch, type) translation plans for block contents.

    A block's element sequence is fixed by its type: runs of primitive
    scalars separated by pointer elements.  The primitive runs carry no
    per-element decisions — width, offset, and byte order are all
    functions of the architecture and the type — so they are compiled
    into {!Hpm_xdr.Batch} programs and replayed with a single pass over
    the block's bytes.  Pointer elements keep the per-field path: they
    are structured (tag dispatch, recursion into targets) and their cost
    is the traversal, not the dispatch.

    A plan follows its type's structure, as the layout's element table
    does: an array of pointer-free items is one repeated [Batch] op, and
    an array whose items hold pointers is one {!Rep} segment around one
    item's segments.  So a plan's size is that of the type's structure,
    never its element count.

    Plans depend only on the machine's layout and the type, never on
    block contents.  Every block walk — collection and its snapshot
    handler, restore, materialize, verify, the MSR graph — takes them from
    one {!table} per (TI table, arch), keyed by the TI type id of the
    block's element type ({!Hpm_msr.Ti.encode_block_ty}); the array
    length is a walk parameter.  The table is attached to the program's
    TI table and filled lazily on first use, so it holds at most one plan
    per TI entry, however many distinct heap-array lengths the program
    allocates. *)

open Hpm_lang
open Hpm_xdr
open Hpm_msr

(** One segment of a block's element sequence, in ordinal order. *)
type seg =
  | Prims of Batch.plan
      (** a maximal run of consecutive primitive elements *)
  | Ptr of { ord : int; off : int; kind : Ty.scalar_kind }
      (** a single pointer or function-pointer element *)
  | Rep of { ord : int; off : int; count : int; stride : int; per : int; body : seg array }
      (** [count] items of an array whose items hold pointers: item [i]
          runs [body] at ordinal [ord + i * per], byte [off + i * stride] *)

type t = {
  elems : Layout.elems;  (** the element table the plan was built from *)
  segs : seg array;
  prim_fields : int;  (** primitive elements across all [Prims] runs *)
  prim_wire_bytes : int;  (** canonical bytes of all [Prims] runs *)
}

let batch_field (layout : Layout.t) off (kind : Ty.scalar_kind) : Batch.field =
  let mem_w = Layout.scalar_size layout kind in
  let wire_w = Stream.canonical_width kind in
  let f_class =
    match kind with
    | Ty.KFloat -> Batch.Ff32
    | Ty.KDouble ->
        if layout.Layout.arch.Hpm_arch.Arch.double_f32 then Batch.Ff64r
        else Batch.Ff64
    | _ -> Batch.Fint
  in
  { Batch.f_off = off; f_mem_w = mem_w; f_wire_w = wire_w; f_class }

let rec has_ptr (e : Layout.elems) =
  match e.Layout.node with
  | Layout.Scalar (Ty.KPtr _ | Ty.KFunc _) -> true
  | Layout.Scalar _ -> false
  | Layout.Arr { item; _ } -> has_ptr item
  | Layout.Rec { fields; _ } -> Array.exists has_ptr fields

(* The batch items of a pointer-free element table based at byte [off]. *)
let rec items layout (e : Layout.elems) ~off : Batch.item list =
  match e.Layout.node with
  | Layout.Scalar kind -> [ Batch.Field (batch_field layout off kind) ]
  | Layout.Arr { count; stride; item; _ } ->
      [ Batch.Repeat { at = off; count; stride; body = items layout item ~off:0 } ]
  | Layout.Rec { offs; fields; _ } ->
      List.concat (List.mapi (fun j f -> items layout f ~off:(off + offs.(j))) (Array.to_list fields))

(* The segments of an element table: consecutive primitives grouped into
   one compiled run, each array that holds pointers one [Rep]. *)
let rec segs_of layout (e : Layout.elems) : seg array =
  let order = layout.Layout.arch.Hpm_arch.Arch.endian in
  let segs = ref [] and run = ref [] in
  let flush () =
    if !run <> [] then (
      segs := Prims (Batch.compile order (List.rev !run)) :: !segs;
      run := [])
  in
  let push seg =
    flush ();
    segs := seg :: !segs
  in
  let rec go (e : Layout.elems) ~ord ~off =
    if not (has_ptr e) then run := List.rev_append (items layout e ~off) !run
    else
      match e.Layout.node with
      | Layout.Scalar kind -> push (Ptr { ord; off; kind })
      | Layout.Arr { count; stride; per; item } ->
          push (Rep { ord; off; count; stride; per; body = segs_of layout item })
      | Layout.Rec { offs; bases; fields } ->
          Array.iteri (fun j f -> go f ~ord:(ord + bases.(j)) ~off:(off + offs.(j))) fields
  in
  go e ~ord:0 ~off:0;
  flush ();
  Array.of_list (List.rev !segs)

(* Primitive fields and canonical bytes of a segment sequence. *)
let rec totals segs =
  Array.fold_left
    (fun (n, w) seg ->
      match seg with
      | Prims p -> (n + Batch.field_count p, w + Batch.wire_bytes p)
      | Ptr _ -> (n, w)
      | Rep { count; body; _ } ->
          let bn, bw = totals body in
          (n + (count * bn), w + (count * bw)))
    (0, 0) segs

let make elems segs =
  let prim_fields, prim_wire_bytes = totals segs in
  { elems; segs; prim_fields; prim_wire_bytes }

(** Compile the element sequence of [elems] under [layout]. *)
let build (layout : Layout.t) (elems : Layout.elems) : t = make elems (segs_of layout elems)

(** The plan of [count] consecutive items of [p]'s type.  Its size does
    not depend on [count]: a pointer-free item repeats inside one
    [Batch] run, any other inside one {!Rep}. *)
let repeat p count =
  if count = 1 then p
  else
    let stride = p.elems.Layout.size in
    let segs =
      match p.segs with
      | [| Prims b |] -> [| Prims (Batch.repeat b ~count ~stride) |]
      | body -> [| Rep { ord = 0; off = 0; count; stride; per = p.elems.Layout.n; body } |]
    in
    make (Layout.repeat p.elems count) segs

(** [iter p ~prims ~ptr] visits [p]'s segments in ordinal order, with
    repeats unrolled: [prims at run] for each primitive run based at
    byte [at], [ptr ord off kind] for each pointer element. *)
let iter (p : t) ~(prims : int -> Batch.plan -> unit) ~(ptr : int -> int -> Ty.scalar_kind -> unit) :
    unit =
  let rec go ord0 off0 segs =
    Array.iter
      (function
        | Prims b -> prims off0 b
        | Ptr { ord; off; kind } -> ptr (ord0 + ord) (off0 + off) kind
        | Rep { ord; off; count; stride; per; body } ->
            for i = 0 to count - 1 do
              go (ord0 + ord + (i * per)) (off0 + off + (i * stride)) body
            done)
      segs
  in
  go 0 0 p.segs

(** The plans of one program on one arch layout: one slot per TI entry,
    filled on first use. *)
type table = { ti : Ti.t; layout : Layout.t; by_tid : t option array }

type Ti.attached += Plans of table

(** The plan table of [ti] under [layout] (whose type environment is the
    program's), created on first use and kept with [ti]. *)
let table (ti : Ti.t) (layout : Layout.t) : table =
  let arch = layout.Layout.arch in
  let rec find = function
    | [] ->
        let t = { ti; layout; by_tid = Array.make (Ti.entry_count ti) None } in
        ti.Ti.attached <- (arch, Plans t) :: ti.Ti.attached;
        t
    | (a, Plans t) :: _ when a = arch -> t
    | _ :: rest -> find rest
  in
  find ti.Ti.attached

let of_tid (t : table) tid =
  match t.by_tid.(tid) with
  | Some p -> p
  | None ->
      let e = Ti.by_tid t.ti tid in
      let p = build t.layout (Layout.elems t.layout e.Ti.ty) in
      t.by_tid.(tid) <- Some p;
      p

(* A block type's TI element plan and array length.  A type outside the
   TI table (only a corrupted image has one) gets a plan of its own that
   is not kept. *)
let lookup (t : table) (ty : Ty.t) : t * int =
  match Ti.encode_block_ty t.ti ty with
  | tid, count -> (of_tid t tid, count)
  | exception Invalid_argument _ -> (build t.layout (Layout.elems t.layout ty), 1)

(** The plan of a block of type [ty]: its element type's plan repeated
    over the array length. *)
let plan t ty =
  let p, count = lookup t ty in
  repeat p count

(** The element table of a block of type [ty]. *)
let elems t ty =
  let p, count = lookup t ty in
  if count = 1 then p.elems else Layout.repeat p.elems count
