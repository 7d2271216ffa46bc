(** Differential oracle for the batch scalar translators.

    The per-field path ([Mem.load_scalar] + [Stream.put_prim], and
    [Stream.get_prim] + [Mem.store_scalar]) is still present as the
    primitive layer; these tests re-run it as the reference against the
    compiled [Batch] programs for the same bytes, across every
    architecture pair — both endiannesses and the ILP32/LP64 width split
    — and assert byte-identical wire output, byte-identical destination
    memory, and identical {!Xdr} byte accounting. *)

open Hpm_arch
open Hpm_lang
open Hpm_machine
open Hpm_core
open Util

let tenv =
  Ty.add_struct Ty.empty_tenv
    {
      Ty.s_name = "mixed";
      s_fields =
        [
          { Ty.fld_name = "c"; fld_ty = Ty.Char };
          { Ty.fld_name = "s"; fld_ty = Ty.Short };
          { Ty.fld_name = "i"; fld_ty = Ty.Int };
          { Ty.fld_name = "l"; fld_ty = Ty.Long };
          { Ty.fld_name = "f"; fld_ty = Ty.Float };
          { Ty.fld_name = "d"; fld_ty = Ty.Double };
        ];
    }

let tenv =
  Ty.add_struct tenv
    {
      Ty.s_name = "linked";
      s_fields =
        [
          { Ty.fld_name = "v"; fld_ty = Ty.Double };
          { Ty.fld_name = "next"; fld_ty = Ty.Ptr (Ty.Struct "linked") };
          { Ty.fld_name = "tag"; fld_ty = Ty.Int };
        ];
    }

(* Types covering every scalar kind, arrays, nested arrays, and the mixed
   struct (whose layout differs per arch: i386 packs doubles tighter);
   the pointer elements of [linked] are skipped by both paths. *)
let prim_tys =
  [
    Ty.Char;
    Ty.Short;
    Ty.Int;
    Ty.Long;
    Ty.Float;
    Ty.Double;
    Ty.Array (Ty.Char, 9);
    Ty.Array (Ty.Short, 3);
    Ty.Array (Ty.Long, 4);
    Ty.Array (Ty.Float, 5);
    Ty.Array (Ty.Double, 5);
    Ty.Struct "mixed";
    Ty.Array (Ty.Struct "mixed", 3);
    Ty.Array (Ty.Array (Ty.Double, 80), 80);
    Ty.Array (Ty.Struct "mixed", 7);
    Ty.Array (Ty.Struct "linked", 5);
    Ty.Array (Ty.Long, 33);
  ]

let all_pairs =
  List.concat_map (fun a -> List.map (fun b -> (a, b)) Arch.all) Arch.all

(* Deterministic pseudo-random fill so every bit pattern class (incl. NaN
   payloads) shows up without wall-clock randomness. *)
let fill_bytes (b : Bytes.t) (seed : int) : unit =
  let x = ref (seed lxor 0x9e3779b9) in
  for i = 0 to Bytes.length b - 1 do
    x := (!x * 1103515245) + 12345;
    Bytes.set b i (Char.chr ((!x lsr 16) land 0xff))
  done

let mem_for arch = Mem.create arch tenv

(* The pre-batch reference: encode every prim element of [block] with the
   per-field path. *)
let encode_per_field (m : Mem.t) (block : Mem.block) : string =
  let elems = Layout.elems m.Mem.layout block.Mem.ty in
  let buf = Buffer.create 256 in
  for ord = 0 to Layout.elem_count elems - 1 do
    match Layout.kind_of_ordinal elems ord with
    | Ty.KPtr _ | Ty.KFunc _ -> ()
    | k ->
        let off = Layout.byte_of_ordinal elems ord in
        Stream.put_prim buf k (Mem.load_scalar m block off k)
  done;
  Buffer.contents buf

(* The plan of a block type, built whole or, as the plan table does for
   an array, as its element's plan repeated over the length. *)
let plan_of ?(repeat = false) (m : Mem.t) (ty : Ty.t) : Tplan.t =
  let l = m.Mem.layout in
  match ty with
  | Ty.Array (e, n) when repeat -> Tplan.repeat (Tplan.build l (Layout.elems l e)) n
  | _ -> Tplan.build l (Layout.elems l ty)

let encode_batch ?repeat (m : Mem.t) (block : Mem.block) : string =
  let buf = Buffer.create 256 in
  Tplan.iter (plan_of ?repeat m block.Mem.ty)
    ~prims:(fun at p -> Hpm_xdr.Batch.encode ~at p buf block.Mem.bytes)
    ~ptr:(fun _ _ _ -> ());
  Buffer.contents buf

(* The pre-batch reference decode: per-field get_prim + store_scalar. *)
let decode_per_field (m : Mem.t) (block : Mem.block) (wire : string) : unit =
  let elems = Layout.elems m.Mem.layout block.Mem.ty in
  let r = Hpm_xdr.Xdr.reader_of_string wire in
  for ord = 0 to Layout.elem_count elems - 1 do
    match Layout.kind_of_ordinal elems ord with
    | Ty.KPtr _ | Ty.KFunc _ -> ()
    | k ->
        let off = Layout.byte_of_ordinal elems ord in
        Mem.store_scalar m block off k (Stream.get_prim r k)
  done

let decode_batch ?repeat (m : Mem.t) (block : Mem.block) (wire : string) : unit =
  let r = Hpm_xdr.Xdr.reader_of_string wire in
  Tplan.iter (plan_of ?repeat m block.Mem.ty)
    ~prims:(fun at p -> Hpm_xdr.Batch.decode ~at p r block.Mem.bytes)
    ~ptr:(fun _ _ _ -> ())

(* One differential check: random-ish bytes on [src] arch, encode both
   ways, decode both ways on [dst] arch, compare everything. *)
let check_one (src : Arch.t) (dst : Arch.t) (ty : Ty.t) (seed : int) : unit =
  let ms = mem_for src in
  let b = Mem.alloc ms Mem.Heap ty Mem.Iheap in
  fill_bytes b.Mem.bytes seed;
  let wire_pf = encode_per_field ms b in
  let md = mem_for dst in
  let d1 = Mem.alloc md Mem.Heap ty Mem.Iheap in
  decode_per_field md d1 wire_pf;
  List.iter
    (fun repeat ->
      let wire_batch = encode_batch ~repeat ms b in
      if not (String.equal wire_pf wire_batch) then
        Alcotest.failf "encode differs for %s on %s (seed %d, repeat %b)" (Ty.to_string ty)
          src.Arch.name seed repeat;
      let d2 = Mem.alloc md Mem.Heap ty Mem.Iheap in
      decode_batch ~repeat md d2 wire_pf;
      if not (Bytes.equal d1.Mem.bytes d2.Mem.bytes) then
        Alcotest.failf "decode differs for %s on %s->%s (seed %d, repeat %b)" (Ty.to_string ty)
          src.Arch.name dst.Arch.name seed repeat)
    [ false; true ]

let test_all_types_all_pairs () =
  List.iter
    (fun (src, dst) ->
      List.iter (fun ty -> List.iter (check_one src dst ty) [ 1; 2; 77 ]) prim_tys)
    all_pairs

(* byte accounting must match the per-field path exactly *)
let test_io_accounting () =
  let open Hpm_xdr in
  let ms = mem_for Arch.dec5000 in
  let b = Mem.alloc ms Mem.Heap (Ty.Array (Ty.Struct "mixed", 4)) Mem.Iheap in
  fill_bytes b.Mem.bytes 5;
  let count f =
    Xdr.count_io := true;
    Xdr.reset_io_counters ();
    ignore (f () : string);
    let e = !Xdr.encoded_bytes in
    Xdr.count_io := false;
    e
  in
  let e_pf = count (fun () -> encode_per_field ms b) in
  let e_b = count (fun () -> encode_batch ms b) in
  check_int "encoded_bytes identical" e_pf e_b;
  let wire = encode_batch ms b in
  let md = mem_for Arch.x86_64 in
  let d = Mem.alloc md Mem.Heap (Ty.Array (Ty.Struct "mixed", 4)) Mem.Iheap in
  let countd f =
    Xdr.count_io := true;
    Xdr.reset_io_counters ();
    f ();
    let v = !Xdr.decoded_bytes in
    Xdr.count_io := false;
    v
  in
  let d_pf = countd (fun () -> decode_per_field md d wire) in
  let d_b = countd (fun () -> decode_batch md d wire) in
  check_int "decoded_bytes identical" d_pf d_b

(* truncated input still surfaces as Xdr.Underflow *)
let test_truncated_underflow () =
  let ms = mem_for Arch.sparc20 in
  let b = Mem.alloc ms Mem.Heap (Ty.Array (Ty.Double, 4)) Mem.Iheap in
  fill_bytes b.Mem.bytes 9;
  let wire = encode_batch ms b in
  let short = String.sub wire 0 (String.length wire - 3) in
  let md = mem_for Arch.sparc20 in
  let d = Mem.alloc md Mem.Heap (Ty.Array (Ty.Double, 4)) Mem.Iheap in
  expect_raise "truncated run underflows"
    (function Hpm_xdr.Xdr.Underflow _ -> true | _ -> false)
    (fun () -> decode_batch md d short)

(* Ops of a batch program and segments of a plan, counting each repeat
   body once. *)
let rec op_count ops =
  Array.fold_left
    (fun n op -> n + match op with Hpm_xdr.Batch.Rep r -> 1 + op_count r.body | _ -> 1)
    0 ops

let rec plan_size segs =
  Array.fold_left
    (fun (s, o) seg ->
      match seg with
      | Tplan.Prims b -> (s + 1, o + op_count b.Hpm_xdr.Batch.p_ops)
      | Tplan.Ptr _ -> (s + 1, o)
      | Tplan.Rep { body; _ } ->
          let bs, bo = plan_size body in
          (s + 1 + bs, o + bo))
    (0, 0) segs

(* plan shape: pointers split prim runs; a BE double array is one blit *)
let test_plan_segmentation () =
  let layout_of arch = Layout.make arch tenv in
  let l = layout_of Arch.sparc20 in
  let plan = Tplan.build l (Layout.elems l (Ty.Struct "linked")) in
  (match plan.Tplan.segs with
  | [| Tplan.Prims _; Tplan.Ptr { ord = 1; _ }; Tplan.Prims _ |] -> ()
  | segs -> Alcotest.failf "unexpected segmentation (%d segs)" (Array.length segs));
  check_int "prim fields around the pointer" 2 plan.Tplan.prim_fields;
  (* canonical bytes: double (8) + int (4) *)
  check_int "wire bytes" 12 plan.Tplan.prim_wire_bytes;
  match (Tplan.build l (Layout.elems l (Ty.Array (Ty.Double, 1000)))).Tplan.segs with
  | [| Tplan.Prims p |] -> check_int "BE double[1000] is one blit" 1 (op_count p.Hpm_xdr.Batch.p_ops)
  | segs -> Alcotest.failf "double[1000]: %d segs" (Array.length segs)

(* A plan's size follows the type's structure: the op and segment counts
   of double[n] and struct linked[n] do not grow with n, on any arch,
   whether the plan is built whole or repeated from its element. *)
let test_plan_size_independent_of_length () =
  let size (p : Tplan.t) = plan_size p.Tplan.segs in
  List.iter
    (fun arch ->
      let l = Layout.make arch tenv in
      List.iter
        (fun elem ->
          let sizes n =
            let ty = Ty.Array (elem, n) in
            [
              size (Tplan.build l (Layout.elems l ty));
              size (Tplan.repeat (Tplan.build l (Layout.elems l elem)) n);
            ]
          in
          let s10, o10 = List.hd (sizes 10) in
          List.iter
            (fun n ->
              List.iter
                (fun (s, o) ->
                  if s > s10 || o > o10 || (n > 10 && (s, o) <> (s10, o10)) then
                    Alcotest.failf "%s[%d] on %s: %d segs / %d ops, %d segs / %d ops at n = 10"
                      (Ty.to_string elem) n arch.Arch.name s o s10 o10)
                (sizes n))
            [ 1; 10; 6400 ])
        [ Ty.Double; Ty.Struct "linked" ])
    Arch.all

(* QCheck: encode→decode on the same arch is the identity on block bytes
   up to f32 NaN quieting, which re-encodes identically — so compare the
   re-encoded wire, the canonical form *)
let prop_roundtrip =
  qt ~count:200 "batch encode→decode→encode is stable"
    QCheck.(triple (int_range 0 4) (int_range 0 (List.length prim_tys - 1)) small_nat)
    (fun (arch_i, ty_i, seed) ->
      let arch = List.nth Arch.all arch_i in
      let ty = List.nth prim_tys ty_i in
      let ms = mem_for arch in
      let b = Mem.alloc ms Mem.Heap ty Mem.Iheap in
      fill_bytes b.Mem.bytes seed;
      let wire1 = encode_batch ms b in
      let md = mem_for arch in
      let d = Mem.alloc md Mem.Heap ty Mem.Iheap in
      decode_batch md d wire1;
      let wire2 = encode_batch md d in
      String.equal wire1 wire2)

let suite =
  [
    tc "byte-identical to per-field for all types × arch pairs" test_all_types_all_pairs;
    tc "io accounting identical" test_io_accounting;
    tc "truncated input underflows" test_truncated_underflow;
    tc "plan segmentation around pointers" test_plan_segmentation;
    tc "plan size independent of array length" test_plan_size_independent_of_length;
    prop_roundtrip;
  ]
