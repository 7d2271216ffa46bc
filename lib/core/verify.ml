(** Restore-side MSR integrity verifier.

    After restoration rebuilds a process image, the destination must not
    COMMIT the handoff ({!Handoff}) until the image is proven internally
    consistent: a process that resumes over a subtly broken pointer graph
    can silently compute garbage long after the corrupted migration that
    caused it.  [check] makes one pass over the live blocks and their
    {!Tplan} pointer segments, checking the first two invariants below
    and recording each data edge it resolves; the third is a
    reachability pass ({!Graph.reachable}) over those recorded edges:

    - {b pointer edges resolve}: every non-null data-pointer element
      lands inside a live block at an element boundary, or exactly one
      element past the end ({!Collect.resolve}, the translation
      collection itself uses); every function-pointer element is null or
      a valid text address;
    - {b type tags match the TI table}: every live block's type round-trips
      through the wire encoding ({!Hpm_msr.Ti.encode_block_ty} /
      [decode_block_ty]) back to an equal type — the block could be
      re-collected faithfully;
    - {b no orphan blocks}: every heap block is reachable from the roots
      (globals, string literals, every frame local); an unreachable heap
      block means restoration allocated storage nothing refers to.

    The roots are every frame local, not only the live sets collection
    starts from, which is why this is its own pass and not a handler of
    {!Collect.walk}.  Collection and restoration already validate the
    {e stream}; this validates the {e result}, so it also catches
    post-restore memory corruption (the seeded-corruption tests inject
    exactly that). *)

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

(* A block's type tag must round-trip through the TI wire encoding. *)
let check_ti (ti : Ti.t) (b : Mem.block) =
  match Ti.encode_block_ty ti b.Mem.ty with
  | exception Invalid_argument m -> violation "%a: type has no TI entry (%s)" pp_block b m
  | tid, count -> (
      match Ti.decode_block_ty ti (tid, count) with
      | ty when Ty.equal ty b.Mem.ty -> ()
      | ty ->
          violation "%a: type tag %d decodes to %s, not %s" pp_block b tid
            (Ty.to_string ty) (Ty.to_string b.Mem.ty)
      | exception Invalid_argument m ->
          violation "%a: type tag does not decode (%s)" pp_block b m)

(** Check the restored process image: one pass over the live blocks and
    their pointer elements, then the orphan check over the data edges
    that pass resolved.  Returns the counts on success.
    @raise Violation on the first broken invariant. *)
let check (interp : Interp.t) (ti : Ti.t) : report =
  let mem = interp.Interp.mem in
  let plans = Tplan.table ti mem.Mem.layout and find = Mem.find_block mem in
  let blocks = Mem.live_blocks mem in
  let pointers = ref 0 and edges = ref 0 and graph = ref [] in
  let check_ptr (b : Mem.block) ord off kind =
    incr pointers;
    match Mem.load_scalar mem b off kind with
    | Mem.Vptr addr -> (
        match (kind, Collect.resolve plans ~find interp.Interp.prog addr) with
        | _, Collect.Rnull | Ty.KFunc _, Collect.Rfunc _ -> ()
        | Ty.KPtr _, Collect.Rfunc _ ->
            (* a data slot holding a code address: collection would encode
               it as a function reference, which resolves — accept it *)
            incr edges
        | Ty.KPtr _, Collect.Rblock (dst, e_dst_ord) ->
            incr edges;
            graph :=
              { Graph.e_src = b.Mem.bid; e_src_ord = ord; e_dst = dst.Mem.bid; e_dst_ord }
              :: !graph
        | Ty.KPtr _, Collect.Rmisaligned (dst, _) ->
            violation "%a element %d points at 0x%Lx, not an element boundary of %a" pp_block
              b ord addr pp_block dst
        | Ty.KPtr _, Collect.Rwild _ ->
            violation "%a element %d holds 0x%Lx, which is not inside any live block"
              pp_block b ord addr
        | _ -> violation "%a element %d holds 0x%Lx, not a function address" pp_block b ord addr)
    | v -> violation "%a element %d holds non-pointer value %a" pp_block b ord Mem.pp_value v
  in
  List.iter
    (fun (b : Mem.block) ->
      check_ti ti b;
      Tplan.iter (Tplan.plan plans b.Mem.ty) ~prims:(fun _ _ -> ()) ~ptr:(check_ptr b))
    blocks;
  (* orphan check: every heap block must be reachable from the roots *)
  let reach = Graph.reachable interp !graph in
  List.iter
    (fun (b : Mem.block) ->
      if b.Mem.seg = Mem.Heap && not (Hashtbl.mem reach b.Mem.bid) then
        violation "orphan %a: heap storage unreachable from any root" pp_block b)
    blocks;
  let r = { v_blocks = List.length blocks; v_pointers = !pointers; v_edges = !edges } in
  let module Obs = Hpm_obs.Obs in
  if Obs.metrics_on () then begin
    let inc name v = Obs.inc name [] ~by:(float_of_int v) in
    inc "hpm_verify_blocks_total" r.v_blocks;
    inc "hpm_verify_pointers_total" r.v_pointers;
    inc "hpm_verify_edges_total" r.v_edges
  end;
  r

(** [check] as a result, for callers that NAK instead of raising. *)
let check_result interp ti : (report, string) result =
  match check interp ti with r -> Ok r | exception Violation m -> Error m
