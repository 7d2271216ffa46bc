(** TI table, MSRLT, and MSR graph tests. *)

open Hpm_lang
open Hpm_ir
open Hpm_msr
open Hpm_core
open Util

let prog_of src =
  let ast = check_src src in
  fst (Compile.lower ast)

(* The TI table of a program with user polls only (none in these). *)
let ti_of prog =
  Ti.build prog (Hpm_ir.Pollpoint.insert prog [] Hpm_ir.Pollpoint.user_only_strategy)

let tree_src =
  {|
struct node { float data; struct node *link; };
struct node *first;
int main() {
  struct node *p;
  double d[4];
  p = (struct node *) malloc(sizeof(struct node));
  first = p;
  d[0] = 1.0;
  print_double(d[0]);
  return 0;
}
|}

(* ---- TI ---- *)

let test_ti_contents () =
  let prog = prog_of tree_src in
  let ti = ti_of prog in
  check_bool "int present" true (Ti.find ti Ty.Int <> None);
  check_bool "struct present" true (Ti.find ti (Ty.Struct "node") <> None);
  check_bool "ptr present" true (Ti.find ti (Ty.Ptr (Ty.Struct "node")) <> None);
  check_bool "array present" true (Ti.find ti (Ty.Array (Ty.Double, 4)) <> None);
  check_bool "missing type" true (Ti.find ti (Ty.Array (Ty.Int, 77)) = None);
  let e = Ti.find_exn ti (Ty.Struct "node") in
  check_bool "has pointer" true e.Ti.has_pointer;
  check_int "two elems" 2 (List.length e.Ti.elem_kinds);
  let ei = Ti.find_exn ti Ty.Int in
  check_bool "int no pointer" false ei.Ti.has_pointer

let test_ti_deterministic () =
  let p1 = prog_of tree_src and p2 = prog_of tree_src in
  let t1 = ti_of p1 and t2 = ti_of p2 in
  check_int "same count" (Ti.entry_count t1) (Ti.entry_count t2);
  for i = 0 to Ti.entry_count t1 - 1 do
    check_string "same key" (Ti.by_tid t1 i).Ti.key (Ti.by_tid t2 i).Ti.key
  done

let test_ti_primitive_ids_stable () =
  (* primitive tids do not depend on the program *)
  let t1 = ti_of (prog_of tree_src) in
  let t2 = ti_of (prog_of "int main() { return 0; }") in
  List.iter
    (fun ty ->
      check_int (Ty.to_string ty) (Ti.find_exn t1 ty).Ti.tid (Ti.find_exn t2 ty).Ti.tid)
    [ Ty.Char; Ty.Short; Ty.Int; Ty.Long; Ty.Float; Ty.Double ]

let test_block_ty_codec () =
  let ti = ti_of (prog_of tree_src) in
  let roundtrip ty = Ti.decode_block_ty ti (Ti.encode_block_ty ti ty) in
  check_bool "scalar" true (Ty.equal (roundtrip Ty.Int) Ty.Int);
  check_bool "struct" true (Ty.equal (roundtrip (Ty.Struct "node")) (Ty.Struct "node"));
  (* runtime-sized heap array: element must be in the table, any count works *)
  check_bool "heap array" true
    (Ty.equal
       (roundtrip (Ty.Array (Ty.Struct "node", 12345)))
       (Ty.Array (Ty.Struct "node", 12345)));
  check_bool "static array" true
    (Ty.equal (roundtrip (Ty.Array (Ty.Double, 4))) (Ty.Array (Ty.Double, 4)))

(* ---- MSRLT ---- *)

let test_msrlt_collect_side () =
  let m = Hpm_machine.Mem.create Hpm_arch.Arch.sparc20 Ty.empty_tenv in
  let col = Msrlt.collector m in
  let b1 = Hpm_machine.Mem.alloc m Hpm_machine.Mem.Heap Ty.Int Hpm_machine.Mem.Iheap in
  let b2 = Hpm_machine.Mem.alloc m Hpm_machine.Mem.Heap Ty.Int Hpm_machine.Mem.Iheap in
  check_bool "not visited" true (Msrlt.lookup col b1 = None);
  check_int "first id" 0 (Msrlt.register col b1);
  check_int "second id" 1 (Msrlt.register col b2);
  check_bool "visited now" true (Msrlt.lookup col b1 = Some 0);
  check_int "count" 2 (Msrlt.collected_count col);
  let found = Msrlt.search col b2.Hpm_machine.Mem.base in
  check_bool "search finds" true (found == b2);
  check_int "search counted" 1 col.Msrlt.searches

let test_msrlt_restore_side () =
  let m = Hpm_machine.Mem.create Hpm_arch.Arch.sparc20 Ty.empty_tenv in
  let r = Msrlt.restorer () in
  let b = Hpm_machine.Mem.alloc m Hpm_machine.Mem.Heap Ty.Int Hpm_machine.Mem.Iheap in
  Msrlt.bind r 0 b;
  check_bool "resolve" true (Msrlt.resolve r 0 == b);
  check_int "updates" 1 r.Msrlt.updates;
  expect_raise "unbound" (function Msrlt.Unbound 5 -> true | _ -> false) (fun () ->
      Msrlt.resolve r 5);
  expect_raise "double bind" (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Msrlt.bind r 0 b);
  (* growth beyond the initial capacity *)
  for i = 1 to 200 do
    Msrlt.bind r i b
  done;
  check_int "grown" 201 (Msrlt.bound_count r)

(* Restore-side edge cases: ids may arrive sparsely (a damaged or partial
   stream), and the table must fail loudly on the holes rather than hand
   back a stale or junk block. *)
let test_msrlt_sparse_binds () =
  let m = Hpm_machine.Mem.create Hpm_arch.Arch.sparc20 Ty.empty_tenv in
  let r = Msrlt.restorer () in
  let b = Hpm_machine.Mem.alloc m Hpm_machine.Mem.Heap Ty.Int Hpm_machine.Mem.Iheap in
  Msrlt.bind r 0 b;
  Msrlt.bind r 5 b;
  expect_raise "hole between sparse binds"
    (function Msrlt.Unbound 3 -> true | _ -> false)
    (fun () -> Msrlt.resolve r 3);
  check_bool "resolve across the hole" true (Msrlt.resolve r 5 == b);
  check_int "bound_count spans the hole" 6 (Msrlt.bound_count r);
  check_int "updates count actual binds only" 2 r.Msrlt.updates;
  expect_raise "id past the high-water mark"
    (function Msrlt.Unbound 9 -> true | _ -> false)
    (fun () -> Msrlt.resolve r 9);
  expect_raise "negative id"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Msrlt.bind r (-1) b);
  expect_raise "double bind of a sparse id"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Msrlt.bind r 5 b);
  (* the failed binds must not have disturbed the table *)
  check_int "count unchanged after rejected binds" 6 (Msrlt.bound_count r);
  check_bool "binding a hole later is fine" true (Msrlt.bind r 3 b; Msrlt.resolve r 3 == b)

(* ---- MSR graph ---- *)

let test_graph_fig1 () =
  (* the paper's Figure 1: 12 user-level vertices at the snapshot *)
  let src =
    {|
struct node { float data; struct node *link; };
struct node *first, *last;
void foo(struct node **p, int **q) {
  #pragma poll snapshot
  *p = (struct node *) malloc(sizeof(struct node));
  (*p)->data = 10.0;
  (**q)++;
}
int main() {
  int i;
  int a, *b;
  struct node *parray[10];
  a = 1; b = &a;
  for (i = 0; i < 10; i++) {
    foo(parray + i, &b);
    first = parray[0];
    last = parray[i];
    first->link = last;
    if (i > 0) parray[i]->link = parray[i - 1];
  }
  return 0;
}
|}
  in
  let m = prepare_user src in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 4 in
  let g = Graph.user_only (Graph.reachable_from_roots p (Graph.snapshot m.Migration.ti p)) in
  check_int "12 vertices as in Figure 1" 12 (Graph.vertex_count g);
  (* the paper draws 12 edges; the snapshot semantics gives 13 (it includes
     addr1->addr4 from "first->link = last" which the figure omits) *)
  check_int "13 edges" 13 (Graph.edge_count g);
  (* segment census: 2 globals, 4 heap nodes, 6 stack variables *)
  let count seg =
    List.length (List.filter (fun v -> v.Graph.v_seg = seg) g.Graph.vertices)
  in
  check_int "globals" 2 (count Hpm_machine.Mem.Global);
  check_int "heap" 4 (count Hpm_machine.Mem.Heap);
  check_int "stack" 6 (count Hpm_machine.Mem.Stack)

let test_graph_interior_edge () =
  let src =
    {|
int main() {
  int a[10];
  int *p;
  a[7] = 1;
  p = &a[7];
  #pragma poll here
  print_int(*p);
  return 0;
}
|}
  in
  let m = prepare_user src in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
  let g = Graph.user_only (Graph.snapshot m.Migration.ti p) in
  let e =
    List.find
      (fun e -> e.Graph.e_dst_ord = 7)
      g.Graph.edges
  in
  check_int "interior ordinal" 7 e.Graph.e_dst_ord

let test_graph_one_past_end_edge () =
  let src =
    {|
int main() {
  int a[10];
  int *p;
  a[9] = 1;
  p = &a[10];
  #pragma poll here
  print_int(*(p - 1));
  return 0;
}
|}
  in
  let m = prepare_user src in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
  let g = Graph.user_only (Graph.snapshot m.Migration.ti p) in
  check_int "one edge" 1 (Graph.edge_count g);
  check_int "one-past-the-end ordinal" 10 (List.hd g.Graph.edges).Graph.e_dst_ord

let test_graph_dot () =
  let m = prepare_user "int main() { int x; int *p; p = &x; #pragma poll h\n return 0; }" in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
  let dot = Graph.to_dot (Graph.snapshot m.Migration.ti p) in
  check_bool "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  check_bool "has edge arrow" true (contains_sub dot "->")

let suite =
  [
    tc "TI table contents" test_ti_contents;
    tc "TI deterministic" test_ti_deterministic;
    tc "TI primitive ids stable" test_ti_primitive_ids_stable;
    tc "block type codec" test_block_ty_codec;
    tc "MSRLT collection side" test_msrlt_collect_side;
    tc "MSRLT restoration side" test_msrlt_restore_side;
    tc "MSRLT sparse binds and holes" test_msrlt_sparse_binds;
    tc "Figure 1 graph" test_graph_fig1;
    tc "interior pointer edges" test_graph_interior_edge;
    tc "one-past-the-end pointer edges" test_graph_one_past_end_edge;
    tc "dot output" test_graph_dot;
  ]
