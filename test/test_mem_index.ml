(** Differential oracle for the sorted flat-array interval index behind
    [Mem.find_block].

    A reference model keeps the [AddrMap] semantics the index replaced
    (base→block map, [find_last_opt] lookup, freed blocks left in place by
    [free] and removed by [remove_block]); random alloc/free/remove churn
    is applied to a real [Mem.t] while the model shadows every operation,
    and every probe address must classify identically — same block
    (physically), same dangling/wild fault — in both. *)

open Hpm_arch
open Hpm_lang
open Hpm_machine
open Util

module AddrMap = Map.Make (Int64)

let tenv = Ty.empty_tenv
let fresh ?(arch = Arch.sparc20) () = Mem.create arch tenv
let fault = function Mem.Fault _ -> true | _ -> false

(* ---- reference model ---- *)

type expect = Found of Mem.block | Dangling of Mem.block | Wild

let model_find (map : Mem.block AddrMap.t) addr : expect =
  match AddrMap.find_last_opt (fun b -> Int64.compare b addr <= 0) map with
  | Some (_, b)
    when Int64.compare addr b.Mem.base >= 0
         && Int64.compare addr (Int64.add b.Mem.base (Int64.of_int b.Mem.size)) < 0
    ->
      if b.Mem.freed then Dangling b else Found b
  | _ -> Wild

(* What the real Mem did for the same probe. *)
type actual = AFound of Mem.block | AFault of string

let real_find m addr : actual =
  match Mem.find_block m addr with
  | b -> AFound b
  | exception Mem.Fault msg -> AFault msg

let agree (e : expect) (a : actual) : bool =
  match (e, a) with
  | Found b, AFound b' -> b == b'
  | Dangling b, AFault msg ->
      contains_sub msg "dangling"
      && contains_sub msg (Printf.sprintf "freed block #%d" b.Mem.bid)
  | Wild, AFault msg -> contains_sub msg "wild"
  | _ -> false

(* ---- random churn ---- *)

let alloc_tys =
  [| Ty.Int; Ty.Array (Ty.Double, 3); Ty.Char; Ty.Array (Ty.Int, 7); Ty.Long |]

(* Interpret an op sequence on both the real memory and the model.  Ops
   are (selector, argument) pairs from QCheck; the state tracks every
   block ever allocated (for probing), live heap blocks (for free), and
   the stack as a LIFO (for remove + address reuse). *)
let run_ops (ops : (int * int) list) : bool =
  let m = fresh () in
  let map = ref AddrMap.empty in
  let all = ref [] and heap = ref [] and stack = ref [] in
  let probe addr =
    let a = real_find m addr in
    agree (model_find !map addr) a
  in
  let probe_block (b : Mem.block) =
    let base = b.Mem.base and size = Int64.of_int b.Mem.size in
    probe base
    && probe (Int64.add base 1L)
    && probe (Int64.add base (Int64.sub size 1L))
    && probe (Int64.add base size) (* one-past-the-end *)
    && probe (Int64.add base (Int64.add size 5L)) (* guard gap *)
  in
  let step (sel, arg) =
    (match sel mod 5 with
    | 0 | 1 ->
        (* alloc: heap-biased, some stack and global *)
        let ty = alloc_tys.(arg mod Array.length alloc_tys) in
        let seg, ident =
          match arg mod 3 with
          | 0 -> (Mem.Heap, Mem.Iheap)
          | 1 -> (Mem.Stack, Mem.Ilocal (0, "x"))
          | _ -> (Mem.Global, Mem.Iglobal "g")
        in
        let b = Mem.alloc m seg ty ident in
        map := AddrMap.add b.Mem.base b !map;
        all := b :: !all;
        if seg = Mem.Heap then heap := b :: !heap;
        if seg = Mem.Stack then stack := b :: !stack
    | 2 -> (
        (* free a live heap block *)
        match List.filter (fun (b : Mem.block) -> not b.Mem.freed) !heap with
        | [] -> ()
        | live ->
            let b = List.nth live (arg mod List.length live) in
            Mem.free m b (* freed flag is shared: model sees it too *))
    | 3 -> (
        (* pop the newest stack block, reusing its address range *)
        match !stack with
        | [] -> ()
        | b :: rest ->
            let top = Int64.add b.Mem.base (Int64.of_int b.Mem.size) in
            Mem.remove_block m b;
            Mem.set_stack_top m (Int64.add top 16L (* guard *));
            map := AddrMap.remove b.Mem.base !map;
            stack := rest)
    | _ ->
        (* probe a far-away address *)
        ignore (probe (Int64.of_int (0x2000_0000 + (arg * 3)))));
    (* after every op, every block ever allocated still classifies
       identically at its edges *)
    List.for_all probe_block !all
  in
  List.for_all step ops

let prop_differential =
  qt ~count:200 "index ≡ AddrMap model under churn"
    QCheck.(list_of_size (Gen.int_range 1 20) (pair small_nat small_nat))
    run_ops

(* ---- adversarial fixed cases ---- *)

let test_edges () =
  let m = fresh () in
  let a = Mem.alloc m Mem.Heap (Ty.Array (Ty.Int, 4)) Mem.Iheap in
  let b = Mem.alloc m Mem.Heap (Ty.Array (Ty.Int, 4)) Mem.Iheap in
  check_bool "at base" true (Mem.find_block m a.Mem.base == a);
  check_bool "last byte" true
    (Mem.find_block m (Int64.add a.Mem.base 15L) == a);
  expect_raise "one-past-end is wild" fault (fun () ->
      Mem.find_block m (Int64.add a.Mem.base 16L));
  expect_raise "guard gap between blocks" fault (fun () ->
      Mem.find_block m (Int64.sub b.Mem.base 1L));
  check_bool "second block base" true (Mem.find_block m b.Mem.base == b)

let test_cache_safety () =
  let m = fresh () in
  let a = Mem.alloc m Mem.Heap (Ty.Array (Ty.Long, 8)) Mem.Iheap in
  (* warm the cache on [a]... *)
  check_bool "warm" true (Mem.find_block m (Int64.add a.Mem.base 8L) == a);
  (* ...then free it: the cached hit must not survive *)
  Mem.free m a;
  expect_raise "cached block freed" fault (fun () ->
      Mem.find_block m (Int64.add a.Mem.base 8L));
  let b = Mem.alloc m Mem.Heap Ty.Int Mem.Iheap in
  check_bool "fresh block found after churn" true (Mem.find_block m b.Mem.base == b)

let test_realloc_churn () =
  let m = fresh () in
  let sp = Mem.stack_top m in
  let a = Mem.alloc m Mem.Stack (Ty.Array (Ty.Int, 4)) (Mem.Ilocal (0, "x")) in
  check_bool "stack block found" true (Mem.find_block m a.Mem.base == a);
  Mem.remove_block m a;
  Mem.set_stack_top m sp;
  expect_raise "removed is wild" fault (fun () -> Mem.find_block m a.Mem.base);
  (* reallocate the same range: the index entry must be replaced, and
     lookups must resolve to the NEW block *)
  let b = Mem.alloc m Mem.Stack (Ty.Array (Ty.Int, 4)) (Mem.Ilocal (0, "y")) in
  check_bool "range reused" true (Int64.equal b.Mem.base a.Mem.base);
  check_bool "new block wins" true (Mem.find_block m b.Mem.base == b);
  check_bool "interior of new block" true
    (Mem.find_block m (Int64.add b.Mem.base 8L) == b)

let test_many_blocks_ordered () =
  (* grow past the initial table capacity and check every block is still
     found — exercises the doubling + insertion blits *)
  let m = fresh () in
  let blocks = Array.init 100 (fun _ -> Mem.alloc m Mem.Heap Ty.Long Mem.Iheap) in
  Array.iter
    (fun (b : Mem.block) ->
      check_bool "each base resolves" true (Mem.find_block m b.Mem.base == b))
    blocks;
  check_int "live count" 100 m.Mem.live_blocks;
  (* interleave stack blocks below, heap above: segments stay sorted *)
  let s = Mem.alloc m Mem.Stack Ty.Int (Mem.Ilocal (0, "s")) in
  check_bool "stack base resolves" true (Mem.find_block m s.Mem.base == s);
  check_bool "heap unaffected" true
    (Mem.find_block m blocks.(50).Mem.base == blocks.(50))

let test_searches_still_counted () =
  let m = fresh () in
  let b = Mem.alloc m Mem.Heap Ty.Int Mem.Iheap in
  let before = m.Mem.stats.Mstats.searches in
  ignore (Mem.find_block m b.Mem.base);
  ignore (Mem.find_block m b.Mem.base); (* cache hit still counts *)
  (try ignore (Mem.find_block m 0xdead_0000L) with Mem.Fault _ -> ());
  check_int "3 searches" (before + 3) m.Mem.stats.Mstats.searches

let suite =
  [
    tc "boundary lookups" test_edges;
    tc "generation-checked cache never returns freed" test_cache_safety;
    tc "free/realloc churn replaces the index entry" test_realloc_churn;
    tc "table growth keeps order" test_many_blocks_ordered;
    tc "searches counter unchanged" test_searches_still_counted;
    prop_differential;
  ]
