(** Layout tests: sizes, alignment, field offsets, and the machine-
    independent ordinal <-> machine-specific byte-offset maps. *)

open Hpm_arch
open Hpm_lang
open Util

let node_def =
  {
    Ty.s_name = "node";
    s_fields =
      [ { Ty.fld_name = "data"; fld_ty = Ty.Float }; { Ty.fld_name = "link"; fld_ty = Ty.Ptr (Ty.Struct "node") } ];
  }

(* char, then double: forces padding that differs between i386 (4-byte
   double alignment) and everything else (8-byte) *)
let padded_def =
  {
    Ty.s_name = "padded";
    s_fields =
      [ { Ty.fld_name = "c"; fld_ty = Ty.Char }; { Ty.fld_name = "d"; fld_ty = Ty.Double }; { Ty.fld_name = "i"; fld_ty = Ty.Int } ];
  }

(* padded structs nested in a struct and in an array inside it *)
let nest_def =
  {
    Ty.s_name = "nest";
    s_fields =
      [
        { Ty.fld_name = "c"; fld_ty = Ty.Char };
        { Ty.fld_name = "p"; fld_ty = Ty.Array (Ty.Struct "padded", 2) };
        { Ty.fld_name = "s"; fld_ty = Ty.Short };
        { Ty.fld_name = "n"; fld_ty = Ty.Struct "node" };
        { Ty.fld_name = "q"; fld_ty = Ty.Struct "padded" };
      ];
  }

let tenv = Ty.add_struct (Ty.add_struct (Ty.add_struct Ty.empty_tenv node_def) padded_def) nest_def

let layout arch = Layout.make arch tenv

let test_scalar_sizes () =
  let l32 = layout Arch.sparc20 and l64 = layout Arch.x86_64 in
  check_int "int on ilp32" 4 (Layout.sizeof l32 Ty.Int);
  check_int "long on ilp32" 4 (Layout.sizeof l32 Ty.Long);
  check_int "long on lp64" 8 (Layout.sizeof l64 Ty.Long);
  check_int "ptr on ilp32" 4 (Layout.sizeof l32 (Ty.Ptr Ty.Int));
  check_int "ptr on lp64" 8 (Layout.sizeof l64 (Ty.Ptr Ty.Int));
  check_int "double everywhere" 8 (Layout.sizeof l32 Ty.Double);
  check_int "char" 1 (Layout.sizeof l64 Ty.Char)

let test_struct_layout () =
  (* struct node { float; ptr } : 8 bytes on ILP32, 16 on LP64 (4 pad) *)
  check_int "node on sparc20" 8 (Layout.sizeof (layout Arch.sparc20) (Ty.Struct "node"));
  check_int "node on x86_64" 16 (Layout.sizeof (layout Arch.x86_64) (Ty.Struct "node"));
  check_int "link offset ilp32" 4 (Layout.field_offset (layout Arch.sparc20) "node" "link");
  check_int "link offset lp64" 8 (Layout.field_offset (layout Arch.x86_64) "node" "link")

let test_padding_differs () =
  (* { char; double; int }:
       8-byte double alignment: c@0, d@8, i@16 -> 24
       4-byte (i386):           c@0, d@4, i@12 -> 16 *)
  check_int "padded on sparc" 24 (Layout.sizeof (layout Arch.sparc20) (Ty.Struct "padded"));
  check_int "padded on i386" 16 (Layout.sizeof (layout Arch.i386) (Ty.Struct "padded"));
  check_int "d offset sparc" 8 (Layout.field_offset (layout Arch.sparc20) "padded" "d");
  check_int "d offset i386" 4 (Layout.field_offset (layout Arch.i386) "padded" "d")

let test_arrays () =
  let l = layout Arch.sparc20 in
  check_int "int[10]" 40 (Layout.sizeof l (Ty.Array (Ty.Int, 10)));
  check_int "node[3]" 24 (Layout.sizeof l (Ty.Array (Ty.Struct "node", 3)));
  check_int "2d array" 24 (Layout.sizeof l (Ty.Array (Ty.Array (Ty.Int, 3), 2)))

let test_field_errors () =
  expect_raise "unknown field" (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Layout.field_offset (layout Arch.sparc20) "node" "nope")

let test_elems_ordinals () =
  (* node[2] flattens to [float; ptr; float; ptr] on every arch *)
  let t = Ty.Array (Ty.Struct "node", 2) in
  List.iter
    (fun arch ->
      let e = Layout.elems (layout arch) t in
      check_int (arch.Arch.name ^ " elem count") 4 (Layout.elem_count e);
      check_bool (arch.Arch.name ^ " kinds") true
        (Layout.kind_of_ordinal e 0 = Ty.KFloat
        && Layout.kind_of_ordinal e 1 = Ty.KPtr (Ty.Struct "node")
        && Layout.kind_of_ordinal e 2 = Ty.KFloat))
    arches;
  (* byte offsets differ per arch but ordinals agree *)
  let e32 = Layout.elems (layout Arch.sparc20) t in
  let e64 = Layout.elems (layout Arch.x86_64) t in
  check_int "ord 2 byte on ilp32" 8 (Layout.byte_of_ordinal e32 2);
  check_int "ord 2 byte on lp64" 16 (Layout.byte_of_ordinal e64 2)

let test_ordinal_of_byte () =
  let e = Layout.elems (layout Arch.x86_64) (Ty.Struct "padded") in
  (* c@0, d@8, i@16 on lp64-ish (max_align 16 doesn't change this) *)
  check_bool "byte 0 -> ord 0" true (Layout.ordinal_of_byte e 0 = Some 0);
  check_bool "byte 8 -> ord 1" true (Layout.ordinal_of_byte e 8 = Some 1);
  check_bool "byte 16 -> ord 2" true (Layout.ordinal_of_byte e 16 = Some 2);
  check_bool "padding byte -> None" true (Layout.ordinal_of_byte e 3 = None);
  check_bool "mid-element -> None" true (Layout.ordinal_of_byte e 10 = None)

(* random type generator for the bijection property *)
let rec gen_ty depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneofl [ Ty.Char; Ty.Short; Ty.Int; Ty.Long; Ty.Float; Ty.Double; Ty.Ptr Ty.Int; Ty.Ptr (Ty.Struct "node") ]
  else
    frequency
      [
        (3, oneofl [ Ty.Char; Ty.Int; Ty.Double; Ty.Ptr (Ty.Struct "node") ]);
        (1, map2 (fun t n -> Ty.Array (t, 1 + (n mod 4))) (gen_ty (depth - 1)) small_nat);
        (1, return (Ty.Struct "padded"));
        (1, return (Ty.Struct "node"));
      ]

let prop_ordinal_bijection =
  qt ~count:200 "ordinal <-> byte bijection on random types"
    (QCheck.make (gen_ty 3))
    (fun ty ->
      List.for_all
        (fun arch ->
          let e = Layout.elems (layout arch) ty in
          let n = Layout.elem_count e in
          let ok = ref true in
          for ord = 0 to n - 1 do
            let b = Layout.byte_of_ordinal e ord in
            if Layout.ordinal_of_byte e b <> Some ord then ok := false;
            (* alignment invariant: offset divisible by the element's alignment *)
            let k = Layout.kind_of_ordinal e ord in
            let al = Layout.scalar_align (layout arch) k in
            if b mod al <> 0 then ok := false
          done;
          !ok)
        arches)

let prop_flatten_agrees =
  qt ~count:200 "Ty.flatten agrees with Layout.elems kinds"
    (QCheck.make (gen_ty 3))
    (fun ty ->
      let kinds = Ty.flatten tenv ty in
      let e = Layout.elems (layout Arch.dec5000) ty in
      List.length kinds = Layout.elem_count e
      && List.for_all2 ( = ) kinds (List.init (Layout.elem_count e) (Layout.kind_of_ordinal e)))

(* The reference element table: the flat per-element algorithm the
   structural table replaced.  Every scalar's byte offset and kind in
   ordinal order, and for each byte offset the ordinal starting there. *)
let flat_elems l (t : Ty.t) =
  let out = ref [] in
  let rec go base (t : Ty.t) =
    match Ty.scalar_kind_of_ty t with
    | Some k -> out := (base, k) :: !out
    | None -> (
        match t with
        | Ty.Array (e, n) ->
            let esz = Layout.sizeof l e in
            for i = 0 to n - 1 do
              go (base + (i * esz)) e
            done
        | Ty.Struct name ->
            let _, _, offs = Layout.struct_layout l name in
            let def = Ty.find_struct_exn l.Layout.tenv name in
            List.iter2 (fun (f : Ty.field) (_, fo) -> go (base + fo) f.Ty.fld_ty) def.Ty.s_fields offs
        | _ -> assert false)
  in
  go 0 t;
  let elems = Array.of_list (List.rev !out) in
  let at_byte = Hashtbl.create (Array.length elems) in
  Array.iteri (fun ord (b, _) -> Hashtbl.replace at_byte b ord) elems;
  (elems, at_byte)

(* random types up to ~[budget] scalars: arrays up to 100 long, nested
   padded structs *)
let rec gen_oracle_ty depth budget =
  let open QCheck.Gen in
  let scalar = oneofl [ Ty.Char; Ty.Short; Ty.Int; Ty.Long; Ty.Float; Ty.Double; Ty.Ptr Ty.Int ] in
  if depth = 0 then scalar
  else
    frequency
      [
        (2, scalar);
        ( 3,
          int_range 1 (max 1 (min 100 budget)) >>= fun n ->
          map (fun t -> Ty.Array (t, n)) (gen_oracle_ty (depth - 1) (budget / n)) );
        (1, oneofl [ Ty.Struct "padded"; Ty.Struct "node"; Ty.Struct "nest" ]);
      ]

let prop_elems_match_flat_reference =
  qt ~count:100 "structural element table matches the flat reference at every byte"
    (QCheck.make ~print:Ty.to_string (gen_oracle_ty 3 1000))
    (fun ty ->
      List.for_all
        (fun arch ->
          let l = layout arch in
          let e = Layout.elems l ty in
          let flat, at_byte = flat_elems l ty in
          let n = Array.length flat in
          let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
          Layout.elem_count e = n
          && raises (fun () -> Layout.byte_of_ordinal e n)
          && raises (fun () -> Layout.kind_of_ordinal e (-1))
          && (let ok = ref true in
              Array.iteri
                (fun ord (b, k) ->
                  if Layout.byte_of_ordinal e ord <> b || Layout.kind_of_ordinal e ord <> k then
                    ok := false)
                flat;
              for off = -1 to Layout.sizeof l ty do
                if Layout.ordinal_of_byte e off <> Hashtbl.find_opt at_byte off then ok := false
              done;
              !ok))
        arches)

let prop_size_positive =
  qt ~count:200 "sizeof positive and divisible by alignof"
    (QCheck.make (gen_ty 3))
    (fun ty ->
      List.for_all
        (fun arch ->
          let l = layout arch in
          let s = Layout.sizeof l ty and a = Layout.alignof l ty in
          s > 0 && a > 0 && s mod a = 0)
        arches)

let suite =
  [
    tc "scalar sizes per arch" test_scalar_sizes;
    tc "struct layout and field offsets" test_struct_layout;
    tc "padding differs across arches" test_padding_differs;
    tc "array sizes" test_arrays;
    tc "field lookup errors" test_field_errors;
    tc "element tables agree on ordinals" test_elems_ordinals;
    tc "ordinal_of_byte hits and misses" test_ordinal_of_byte;
    prop_ordinal_bijection;
    prop_flatten_agrees;
    prop_size_positive;
    prop_elems_match_flat_reference;
  ]
