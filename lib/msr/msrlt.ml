(** The MSR Lookup Table (MSRLT).

    The mapping between machine-specific addresses and machine-independent
    block identities that drives both directions of a migration:

    - during *collection*, a pointer value (a raw address) is translated
      to (mi_id, ordinal): the balanced-tree search over the block table
      is the [MSRLT_search] term of §4.2, O(log n) per pointer and
      O(n log n) over a fully-connected heap;
    - during *restoration*, (mi_id, ordinal) is translated to a fresh
      address on the destination machine: mi_ids arrive densely numbered
      in first-visit order, so the table is an array and each update is
      O(1) — the O(n) [MSRLT_update] term of §4.2.

    Counters for searches and updates are kept here so the complexity
    experiment can report the decomposition the paper describes. *)

open Hpm_machine

(* ---- collection side ---- *)

type collect_side = {
  mem : Mem.t;
  ids : (int, int) Hashtbl.t;  (** runtime block id → mi_id *)
  mutable next_id : int;
  mutable searches : int;      (** address → block searches performed *)
  since : int;
      (** write mark of the previous collection epoch; blocks whose write
          generation is newer are dirty.  [-1] (the default) marks every
          block dirty — a full collection. *)
  mutable scanned : int;       (** blocks visited, each checked for dirtiness *)
  mutable dirty : int;         (** of those, blocks written since [since] *)
}

let collector ?(since = -1) mem =
  { mem; ids = Hashtbl.create 64; next_id = 0; searches = 0; since; scanned = 0; dirty = 0 }

(** Has [block] been written (or allocated) since the epoch this collector
    tracks from?  Counts the scan. *)
let note_dirty c (block : Mem.block) : bool =
  c.scanned <- c.scanned + 1;
  let d = block.Mem.wgen > c.since in
  if d then c.dirty <- c.dirty + 1;
  d

(** Translate an address to its containing block (O(log n) search).
    @raise Mem.Fault on wild or dangling addresses. *)
let search c (addr : int64) : Mem.block =
  c.searches <- c.searches + 1;
  Mem.find_block c.mem addr

(** mi_id of [block] if it was already visited during this collection. *)
let lookup c (block : Mem.block) : int option = Hashtbl.find_opt c.ids block.Mem.bid

(** Assign the next mi_id to [block]; it must not be registered yet. *)
let register c (block : Mem.block) : int =
  assert (not (Hashtbl.mem c.ids block.Mem.bid));
  let id = c.next_id in
  c.next_id <- c.next_id + 1;
  Hashtbl.replace c.ids block.Mem.bid id;
  id

let collected_count c = c.next_id

(* ---- restoration side ---- *)

type restore_side = {
  mutable blocks : Mem.block option array;  (** mi_id → destination block *)
  mutable count : int;
  mutable updates : int;
}

let restorer () = { blocks = Array.make 64 None; count = 0; updates = 0 }

(** Bind mi_id [id] to [block] on the destination machine (O(1)). *)
let bind r id (block : Mem.block) =
  if id < 0 then invalid_arg "Msrlt.bind: negative mi_id";
  let cap = Array.length r.blocks in
  if id >= cap then (
    let blocks = Array.make (max (id + 1) (2 * cap)) None in
    Array.blit r.blocks 0 blocks 0 cap;
    r.blocks <- blocks);
  (match r.blocks.(id) with
  | Some _ -> invalid_arg (Printf.sprintf "Msrlt.bind: mi_id %d bound twice" id)
  | None -> ());
  r.blocks.(id) <- Some block;
  r.count <- max r.count (id + 1);
  r.updates <- r.updates + 1

exception Unbound of int

(** Destination block for mi_id [id].
    @raise Unbound when the stream references an id never defined —
    corrupted or truncated input. *)
let resolve r id : Mem.block =
  if id < 0 || id >= r.count then raise (Unbound id)
  else match r.blocks.(id) with Some b -> b | None -> raise (Unbound id)

let bound_count r = r.count

(* ---- observability ---- *)

module Obs = Hpm_obs.Obs

(** Publish a finished collection epoch's §4.2 counters into the metrics
    registry (no-op without an installed sink). *)
let publish_collect (c : collect_side) =
  if Obs.metrics_on () then begin
    Obs.inc "hpm_msrlt_searches_total" [] ~by:(float_of_int c.searches);
    Obs.inc "hpm_msrlt_blocks_scanned_total" [] ~by:(float_of_int c.scanned);
    Obs.inc "hpm_msrlt_blocks_dirty_total" [] ~by:(float_of_int c.dirty)
  end

(** Publish a finished restoration epoch's §4.2 counters. *)
let publish_restore (r : restore_side) =
  if Obs.metrics_on () then
    Obs.inc "hpm_msrlt_updates_total" [] ~by:(float_of_int r.updates)
