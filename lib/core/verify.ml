(** Restore-side MSR integrity verifier.

    After restoration rebuilds a process image, the destination must not
    COMMIT the handoff ({!Handoff}) until the image is proven internally
    consistent: a process that resumes over a subtly broken pointer graph
    can silently compute garbage long after the corrupted migration that
    caused it.  This pass re-walks the restored memory as the paper's §3
    MSR graph and checks three invariants:

    - {b pointer edges resolve}: every non-null data-pointer element lands
      inside a live block (the storage an MSRLT id was bound to) at an
      element boundary, or exactly one element past the end; every
      function-pointer element is null or a valid text address;
    - {b type tags match the TI table}: every live block's type round-trips
      through the wire encoding ({!Hpm_msr.Ti.encode_block_ty} /
      [decode_block_ty]) back to an equal type — the block could be
      re-collected faithfully;
    - {b no orphan blocks}: every heap block is reachable from the roots
      (globals, string literals, frame locals); an unreachable heap block
      means restoration allocated storage nothing refers to.

    Collection and restoration already validate the {e stream}; this
    validates the {e result}, so it also catches post-restore memory
    corruption (the seeded-corruption tests inject exactly that). *)

open Hpm_lang
open Hpm_machine
open Hpm_msr

exception Violation of string

let violation fmt = Fmt.kstr (fun m -> raise (Violation m)) fmt

type report = {
  v_blocks : int;    (** live blocks checked *)
  v_pointers : int;  (** pointer elements checked (data + function) *)
  v_edges : int;     (** non-null data-pointer edges resolved *)
}

let pp_report ppf r =
  Fmt.pf ppf "verify: %d blocks, %d pointers, %d edges" r.v_blocks r.v_pointers r.v_edges

let pp_block ppf (b : Mem.block) =
  Fmt.pf ppf "block #%d (%a: %s)" b.Mem.bid Mem.pp_ident b.Mem.ident
    (Ty.to_string b.Mem.ty)

(* A data pointer must land in a live block at an element boundary, or
   exactly one past the end (legal C). *)
let check_data_ptr (interp : Interp.t) plans (b : Mem.block) ord addr =
  let mem = interp.Interp.mem in
  let boundary_of (dst : Mem.block) =
    let off = Int64.to_int (Int64.sub addr dst.Mem.base) in
    let elems = Tplan.elems plans dst.Mem.ty in
    if off = dst.Mem.size then true
    else Layout.ordinal_of_byte elems off <> None
  in
  match Mem.find_block_opt mem addr with
  | Some dst ->
      if not (boundary_of dst) then
        violation "%a element %d points at 0x%Lx, not an element boundary of %a"
          pp_block b ord addr pp_block dst
  | None -> (
      (* one-past-the-end of some block, or wild/dangling *)
      match Mem.find_block_opt mem (Int64.sub addr 1L) with
      | Some dst when Int64.equal addr (Int64.add dst.Mem.base (Int64.of_int dst.Mem.size))
        ->
          ()
      | _ ->
          violation "%a element %d holds 0x%Lx, which is not inside any live block"
            pp_block b ord addr)

let check_block (interp : Interp.t) (ti : Ti.t) plans acc (b : Mem.block) =
  let blocks, pointers, edges = acc in
  (* type tag must round-trip through the TI wire encoding *)
  (match Ti.encode_block_ty ti b.Mem.ty with
  | exception Invalid_argument m -> violation "%a: type has no TI entry (%s)" pp_block b m
  | tid, count -> (
      match Ti.decode_block_ty ti (tid, count) with
      | ty when Ty.equal ty b.Mem.ty -> ()
      | ty ->
          violation "%a: type tag %d decodes to %s, not %s" pp_block b tid
            (Ty.to_string ty) (Ty.to_string b.Mem.ty)
      | exception Invalid_argument m ->
          violation "%a: type tag does not decode (%s)" pp_block b m));
  let mem = interp.Interp.mem in
  let pointers = ref pointers and edges = ref edges in
  Array.iter
    (function
      | Tplan.Prims _ -> ()
      | Tplan.Ptr { ord; off; kind } -> (
          incr pointers;
          match (kind, Mem.load_scalar mem b off kind) with
          | _, Mem.Vptr 0L -> ()
          | Ty.KPtr _, Mem.Vptr addr when Interp.is_func_addr interp.Interp.prog addr ->
              (* a data slot holding a code address: collection would
                 encode it as a function reference, which resolves —
                 accept it *)
              incr edges
          | Ty.KPtr _, Mem.Vptr addr ->
              check_data_ptr interp plans b ord addr;
              incr edges
          | _, Mem.Vptr addr when Interp.is_func_addr interp.Interp.prog addr -> ()
          | _, Mem.Vptr addr ->
              violation "%a element %d holds 0x%Lx, not a function address" pp_block b ord
                addr
          | _, v ->
              violation "%a element %d holds non-pointer value %a" pp_block b ord
                Mem.pp_value v))
    (Tplan.plan plans b.Mem.ty).Tplan.segs;
  (blocks + 1, !pointers, !edges)

(** Check the restored process image.  Returns the counts on success.
    @raise Violation on the first broken invariant. *)
let check (interp : Interp.t) (ti : Ti.t) : report =
  let blocks = Mem.live_blocks interp.Interp.mem in
  let v_blocks, v_pointers, v_edges =
    List.fold_left
      (check_block interp ti (Tplan.cache interp.Interp.mem.Mem.layout))
      (0, 0, 0) blocks
  in
  (* orphan check: every heap block must be reachable from the roots *)
  let g = Graph.snapshot interp in
  let reachable = Graph.reachable_from_roots interp g in
  let reach = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace reach v.Graph.v_bid ()) reachable.Graph.vertices;
  List.iter
    (fun (b : Mem.block) ->
      if b.Mem.seg = Mem.Heap && not (Hashtbl.mem reach b.Mem.bid) then
        violation "orphan %a: heap storage unreachable from any root" pp_block b)
    blocks;
  let module Obs = Hpm_obs.Obs in
  if Obs.metrics_on () then begin
    let inc name v = Obs.inc name [] ~by:(float_of_int v) in
    inc "hpm_verify_blocks_total" v_blocks;
    inc "hpm_verify_pointers_total" v_pointers;
    inc "hpm_verify_edges_total" v_edges
  end;
  { v_blocks; v_pointers; v_edges }

(** [check] as a result, for callers that NAK instead of raising. *)
let check_result interp ti : (report, string) result =
  match check interp ti with r -> Ok r | exception Violation m -> Error m
