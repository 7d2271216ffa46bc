(** The Type Information (TI) table.

    One entry per type that can describe a memory block or a scalar
    element in the program: struct definitions, every global/local/heap
    block type, pointer and array types reachable from those.  The table
    is built *deterministically from the program text alone*, so the
    source and destination processes — which were generated from the same
    pre-distributed migratable source — assign identical type ids and can
    name types across the wire by index.

    Each entry carries the type and its flattened scalar-element view.
    Entries are found by the structural [Ty.t], one hash lookup and no
    string per block.  The paper's per-type "memory block saving and
    restoring functions" correspond to the translation plans
    [Hpm_core.Tplan] builds lazily, at most once per (arch, type id), and
    attaches to this table ({!attached}), so they live exactly as long as
    the prepared program.

    The table also carries the program's other per-program constants,
    computed once when it is built (after poll-point insertion): the
    program fingerprint every stream and manifest header carries, and
    each function's liveness — the paper's pre-compiler computes the
    live variables at each poll-point once, before the migratable binary
    is distributed (§1). *)

open Hpm_lang
open Hpm_ir

type entry = {
  tid : int;
  ty : Ty.t;
  key : string;                    (** canonical name, e.g. "struct node*" *)
  elem_kinds : Ty.scalar_kind list; (** flattened element kinds *)
  has_pointer : bool;              (** needs the traversing save path *)
}

(** Derived per-arch tables that later layers attach to a TI table. *)
type attached = ..

type t = {
  prog : Ir.prog;
  tenv : Ty.tenv;
  entries : entry array;
  by_ty : (Ty.t, entry) Hashtbl.t;
  fingerprint : int64;
  polls : Pollpoint.table;
  mutable attached : (Hpm_arch.Arch.t * attached) list;
}

let entry_count t = Array.length t.entries

let find t (ty : Ty.t) : entry option = Hashtbl.find_opt t.by_ty ty

let find_exn t ty =
  match find t ty with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Ti.find_exn: type %s is not in the TI table" (Ty.to_string ty))

let by_tid t tid =
  if tid < 0 || tid >= Array.length t.entries then
    invalid_arg (Printf.sprintf "Ti.by_tid: invalid type id %d" tid)
  else t.entries.(tid)

(* Deterministic enumeration: collect types in program order. *)
let collect_types (prog : Ir.prog) : Ty.t list =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let rec add (ty : Ty.t) =
    match ty with
    | Ty.Void | Ty.Func _ -> ()
    | _ ->
        if not (Hashtbl.mem seen ty) then (
          Hashtbl.add seen ty ();
          out := ty :: !out;
          (* reachable component types *)
          match ty with
          | Ty.Ptr inner -> add inner
          | Ty.Array (inner, _) -> add inner
          | Ty.Struct name ->
              let def = Ty.find_struct_exn prog.Ir.tenv name in
              List.iter (fun (f : Ty.field) -> add f.Ty.fld_ty) def.Ty.s_fields
          | _ -> ())
  in
  (* scalars first so primitive tids are stable across programs *)
  List.iter add [ Ty.Char; Ty.Short; Ty.Int; Ty.Long; Ty.Float; Ty.Double ];
  (* struct definitions in declaration order *)
  List.iter (fun (name, _) -> add (Ty.Struct name)) prog.Ir.tenv.Ty.structs;
  (* globals *)
  List.iter (fun (_, ty, _) -> add ty) prog.Ir.globals;
  (* string literals *)
  Array.iter (fun s -> add (Ty.Array (Ty.Char, String.length s + 1))) prog.Ir.strings;
  (* functions: params, locals, and malloc element types in body order *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter (fun (_, ty) -> add ty) f.Ir.params;
      List.iter (fun (_, ty) -> add ty) f.Ir.locals;
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun ins -> match ins with Ir.Imalloc (_, ty, _) -> add ty | _ -> ())
            b.Ir.instrs)
        f.Ir.blocks)
    prog.Ir.funcs;
  List.rev !out

(* Hash of the printed IR, which is deterministic for a given source +
   pre-compiler strategy: FNV-1a, independent of OCaml's internal hash. *)
let fingerprint_of (prog : Ir.prog) : int64 =
  let s = Fmt.str "%a" Ir.pp_prog prog in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let build (prog : Ir.prog) (polls : Hpm_ir.Pollpoint.table) : t =
  let tys = collect_types prog in
  let entries =
    Array.of_list
      (List.mapi
         (fun tid ty ->
           {
             tid;
             ty;
             key = Ty.to_string ty;
             elem_kinds = Ty.flatten prog.Ir.tenv ty;
             has_pointer = Ty.contains_pointer prog.Ir.tenv ty;
           })
         tys)
  in
  let by_ty = Hashtbl.create (Array.length entries) in
  Array.iter (fun e -> Hashtbl.replace by_ty e.ty e) entries;
  {
    prog;
    tenv = prog.Ir.tenv;
    entries;
    by_ty;
    fingerprint = fingerprint_of prog;
    polls;
    attached = [];
  }

let live t (f : Ir.func) : Liveness.t = Pollpoint.live t.polls f

(** Wire encoding of a block type: (tid, count).  Fixed-size arrays whose
    element type is in the table are sent as (element tid, length) so heap
    blocks of runtime-dependent length need no table entry of their own. *)
let encode_block_ty t (ty : Ty.t) : int * int =
  match ty with
  | Ty.Array (elem, n) -> (
      match find t elem with Some e -> (e.tid, n) | None -> ((find_exn t ty).tid, 1))
  | _ -> ((find_exn t ty).tid, 1)

let decode_block_ty t (tid, count) : Ty.t =
  let e = by_tid t tid in
  if count = 1 then e.ty else Ty.Array (e.ty, count)

let pp_entry ppf e =
  Fmt.pf ppf "#%d %s (%d elems%s)" e.tid e.key (List.length e.elem_kinds)
    (if e.has_pointer then ", pointers" else "")

let pp ppf t =
  Array.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) t.entries
