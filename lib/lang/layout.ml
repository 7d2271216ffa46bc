(** Per-architecture data layout.

    Computes [sizeof], [alignof], struct field offsets, and — crucially for
    migration — the bidirectional map between a scalar element's
    machine-independent *ordinal* (its index in {!Ty.flatten}) and its
    machine-specific *byte offset* inside a memory block.

    The layout algorithm is the standard System V one: each scalar's
    alignment is min(its size, arch cap / per-type override); a struct's
    alignment is the max of its fields'; fields are placed at the next
    aligned offset; the struct size is padded to its own alignment. *)

open Hpm_arch

type t = { arch : Arch.t; tenv : Ty.tenv }

let make arch tenv = { arch; tenv }

let scalar_size l (k : Ty.scalar_kind) =
  let a = l.arch in
  match k with
  | Ty.KChar -> 1
  | Ty.KShort -> a.Arch.short_size
  | Ty.KInt -> a.Arch.int_size
  | Ty.KLong -> a.Arch.long_size
  | Ty.KFloat -> a.Arch.float_size
  | Ty.KDouble -> a.Arch.double_size
  | Ty.KPtr _ | Ty.KFunc _ -> a.Arch.ptr_size

let scalar_align l (k : Ty.scalar_kind) =
  let a = l.arch in
  let natural =
    match k with
    | Ty.KDouble -> a.Arch.double_align
    | Ty.KLong -> a.Arch.long_align
    | k -> scalar_size l k
  in
  min natural a.Arch.max_align

let align_up off align =
  if align <= 0 then off else (off + align - 1) / align * align

let rec sizeof l (t : Ty.t) =
  match Ty.scalar_kind_of_ty t with
  | Some k -> scalar_size l k
  | None -> (
      match t with
      | Ty.Array (e, n) -> n * sizeof l e
      | Ty.Struct name -> struct_layout l name |> fun (sz, _, _) -> sz
      | Ty.Void | Ty.Func _ ->
          invalid_arg (Printf.sprintf "Layout.sizeof: %s" (Ty.to_string t))
      | _ -> assert false)

and alignof l (t : Ty.t) =
  match Ty.scalar_kind_of_ty t with
  | Some k -> scalar_align l k
  | None -> (
      match t with
      | Ty.Array (e, _) -> alignof l e
      | Ty.Struct name -> struct_layout l name |> fun (_, al, _) -> al
      | Ty.Void | Ty.Func _ ->
          invalid_arg (Printf.sprintf "Layout.alignof: %s" (Ty.to_string t))
      | _ -> assert false)

(** [struct_layout l name] is [(size, align, field_offsets)] where
    [field_offsets] pairs each field name with its byte offset. *)
and struct_layout l name =
  let def = Ty.find_struct_exn l.tenv name in
  let off, align, fields =
    List.fold_left
      (fun (off, align, acc) (f : Ty.field) ->
        let fa = alignof l f.Ty.fld_ty in
        let fo = align_up off fa in
        (fo + sizeof l f.Ty.fld_ty, max align fa, (f.Ty.fld_name, fo) :: acc))
      (0, 1, []) def.Ty.s_fields
  in
  (align_up off align, align, List.rev fields)

let field_offset l sname fname =
  let _, _, offs = struct_layout l sname in
  match List.assoc_opt fname offs with
  | Some o -> o
  | None ->
      invalid_arg (Printf.sprintf "Layout.field_offset: struct %s has no field %s" sname fname)

let field_ty l sname fname =
  let def = Ty.find_struct_exn l.tenv sname in
  match List.find_opt (fun f -> String.equal f.Ty.fld_name fname) def.Ty.s_fields with
  | Some f -> f.Ty.fld_ty
  | None ->
      invalid_arg (Printf.sprintf "Layout.field_ty: struct %s has no field %s" sname fname)

(** The element table of a block type: its scalar elements, in ordinal
    order, as a tree that mirrors the type's structure.  A scalar is one
    element; an array repeats one item's table at a fixed stride; a
    struct places each field's table at its byte offset and ordinal base.
    The table's size is the size of the type's structure, not its element
    count, and every lookup below descends it by division (arrays) and
    field search (structs) in O(depth). *)
type elems = { n : int;  (** scalar elements *) size : int;  (** bytes *) node : node }

and node =
  | Scalar of Ty.scalar_kind
  | Arr of { count : int; stride : int; per : int;  (** elements per item *) item : elems }
  | Rec of {
      offs : int array;  (** each field's byte offset *)
      bases : int array;  (** each field's first ordinal *)
      fields : elems array;
    }

(** [repeat e count] is the element table of [count] consecutive items
    of [e]'s type, without rebuilding [e]. *)
let repeat e count =
  { n = count * e.n; size = count * e.size; node = Arr { count; stride = e.size; per = e.n; item = e } }

let elems l (t : Ty.t) =
  let rec go (t : Ty.t) =
    match Ty.scalar_kind_of_ty t with
    | Some k -> { n = 1; size = scalar_size l k; node = Scalar k }
    | None -> (
        match t with
        | Ty.Array (e, count) -> repeat (go e) count
        | Ty.Struct name ->
            let size, _, offs = struct_layout l name in
            let def = Ty.find_struct_exn l.tenv name in
            let fields = Array.of_list (List.map (fun (f : Ty.field) -> go f.Ty.fld_ty) def.Ty.s_fields) in
            let bases = Array.make (Array.length fields) 0 in
            let n = ref 0 in
            Array.iteri
              (fun j f ->
                bases.(j) <- !n;
                n := !n + f.n)
              fields;
            { n = !n; size; node = Rec { offs = Array.of_list (List.map snd offs); bases; fields } }
        | _ -> invalid_arg (Printf.sprintf "Layout.elems: %s" (Ty.to_string t)))
  in
  go t

let elem_count e = e.n

(* The field of a struct holding ordinal [ord]: the first one whose
   ordinal range reaches past it. *)
let field_of_ord bases (fields : elems array) ord =
  let j = ref 0 in
  while ord >= bases.(!j) + fields.(!j).n do incr j done;
  !j

(* Descend [s] to the scalar at ordinal [ord] (in range), calling [k]
   with its byte offset and kind. *)
let rec find_ord s ord byte k =
  match s.node with
  | Scalar kind -> k byte kind
  | Arr { stride; per; item; _ } ->
      let i = ord / per in
      find_ord item (ord - (i * per)) (byte + (i * stride)) k
  | Rec { offs; bases; fields } ->
      let j = field_of_ord bases fields ord in
      find_ord fields.(j) (ord - bases.(j)) (byte + offs.(j)) k

let byte_of_ordinal e ord =
  if ord < 0 || ord >= e.n then
    invalid_arg (Printf.sprintf "Layout.byte_of_ordinal: ordinal %d out of range" ord);
  find_ord e ord 0 (fun byte _ -> byte)

let kind_of_ordinal e ord =
  if ord < 0 || ord >= e.n then
    invalid_arg (Printf.sprintf "Layout.kind_of_ordinal: ordinal %d out of range" ord);
  find_ord e ord 0 (fun _ kind -> kind)

(** [ordinal_of_byte e off] is the ordinal of the scalar element starting
    exactly at byte [off]; [None] when [off] lands in padding or mid-element.
    A pointer whose value is such an address is malformed (or points past a
    narrowing cast) and collection reports it instead of guessing. *)
let ordinal_of_byte e off =
  let rec go s off =
    if off < 0 || off >= s.size then None
    else
      match s.node with
      | Scalar _ -> if off = 0 then Some 0 else None
      | Arr { stride; per; item; _ } -> (
          let i = off / stride in
          Option.map (fun o -> (i * per) + o) (go item (off - (i * stride))))
      | Rec { offs; bases; fields } ->
          let rec field j =
            if j = Array.length fields then None
            else if off >= offs.(j) && off < offs.(j) + fields.(j).size then
              Option.map (fun o -> bases.(j) + o) (go fields.(j) (off - offs.(j)))
            else field (j + 1)
          in
          field 0
  in
  go e off
