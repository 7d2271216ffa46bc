(** Per-(arch, type) translation plans for block contents.

    A block's element sequence is fixed by its type: runs of primitive
    scalars separated by pointer elements.  The primitive runs carry no
    per-element decisions — width, offset, and byte order are all
    functions of the architecture and the type — so they are compiled
    once into {!Hpm_xdr.Batch} programs and replayed with a single pass
    over the block's bytes.  Pointer elements keep the per-field path:
    they are structured (tag dispatch, recursion into targets) and their
    cost is the traversal, not the dispatch.

    Plans depend only on the machine's layout and the type, never on
    block contents, so every block walk — collection and its snapshot
    handler, restore, materialize, verify — memoizes them together with
    the type's {!Hpm_lang.Layout.elems} in one {!cache}. *)

open Hpm_lang
open Hpm_xdr

(** One segment of a block's element sequence, in ordinal order. *)
type seg =
  | Prims of Batch.plan
      (** a maximal run of consecutive primitive elements *)
  | Ptr of { ord : int; off : int; kind : Ty.scalar_kind }
      (** a single pointer or function-pointer element *)

type t = {
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

(** Compile the element sequence of [elems] under [layout]. *)
let build (layout : Layout.t) (elems : Layout.elems) : t =
  let order = layout.Layout.arch.Hpm_arch.Arch.endian in
  let n = Layout.elem_count elems in
  let segs = ref [] and run = ref [] in
  let fields = ref 0 and wire = ref 0 in
  let flush () =
    match !run with
    | [] -> ()
    | fs ->
        let p = Batch.compile order (List.rev fs) in
        fields := !fields + Batch.field_count p;
        wire := !wire + Batch.wire_bytes p;
        segs := Prims p :: !segs;
        run := []
  in
  for ord = 0 to n - 1 do
    let kind = Layout.kind_of_ordinal elems ord in
    let off = Layout.byte_of_ordinal elems ord in
    match kind with
    | Ty.KPtr _ | Ty.KFunc _ ->
        flush ();
        segs := Ptr { ord; off; kind } :: !segs
    | _ -> run := batch_field layout off kind :: !run
  done;
  flush ();
  {
    segs = Array.of_list (List.rev !segs);
    prim_fields = !fields;
    prim_wire_bytes = !wire;
  }

(** A per-walk memo of each block type's element table and plan, keyed
    by [Ty.to_string].  Build one per walk, not per program: heap arrays
    of many distinct lengths would grow a longer-lived one without
    bound. *)
type cache = { layout : Layout.t; tbl : (string, Layout.elems * t) Hashtbl.t }

let cache (layout : Layout.t) : cache = { layout; tbl = Hashtbl.create 32 }

let lookup (c : cache) (ty : Ty.t) : Layout.elems * t =
  let key = Ty.to_string ty in
  match Hashtbl.find_opt c.tbl key with
  | Some ep -> ep
  | None ->
      let e = Layout.elems c.layout ty in
      let ep = (e, build c.layout e) in
      Hashtbl.add c.tbl key ep;
      ep

(** The element table of [ty]. *)
let elems c ty = fst (lookup c ty)

(** The translation plan of [ty]. *)
let plan c ty = snd (lookup c ty)
