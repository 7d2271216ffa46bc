(** Targeted collection/restoration tests at the datum level: the corner
    cases of the pointer encoding (interior, one-past-the-end, shared,
    cyclic, null, function pointers, cross-frame), plus the §4.2 counter
    semantics. *)

open Hpm_core
open Util

let migrate_src ?(src_arch = Hpm_arch.Arch.dec5000) ?(dst_arch = Hpm_arch.Arch.x86_64)
    ?(after = 0) src =
  let m = prepare_user src in
  let o = Migration.run_migrating m ~src_arch ~dst_arch ~after_polls:after () in
  check_bool "migrated" true o.Migration.migrated;
  (o.Migration.output, o.Migration.report)

let test_one_past_end () =
  let out, _ =
    migrate_src
      {|
int main() {
  int a[10];
  int *end;
  int i;
  for (i = 0; i < 10; i++) a[i] = i * 3;
  end = a + 10;                  /* legal C: one past the end */
  #pragma poll here
  print_int(*(end - 1));
  print_long(end - a);
  return 0;
}
|}
  in
  check_string "one-past-end survives" "27\n10\n" out

let test_interior_pointer () =
  let out, _ =
    migrate_src
      {|
struct trio { char tag; double mid; int last; };
int main() {
  struct trio t;
  double *pm;
  int *pl;
  t.tag = 'x'; t.mid = 2.5; t.last = 77;
  pm = &t.mid;
  pl = &t.last;
  #pragma poll here
  print_double(*pm);
  print_int(*pl);
  return 0;
}
|}
  in
  (* dec5000 puts mid at byte 8, x86_64 also 8, i386 at 4: the ordinal
     encoding must re-derive the right byte on the destination *)
  check_string "interior pointers into struct" "2.5\n77\n" out;
  let out2, _ =
    migrate_src ~src_arch:Hpm_arch.Arch.sparc20 ~dst_arch:Hpm_arch.Arch.i386
      {|
struct trio { char tag; double mid; int last; };
int main() {
  struct trio t;
  double *pm;
  t.tag = 'x'; t.mid = 2.5; t.last = 77;
  pm = &t.mid;
  #pragma poll here
  print_double(*pm);
  return 0;
}
|}
  in
  check_string "offset 8 becomes offset 4 on i386" "2.5\n" out2

let test_shared_block_saved_once () =
  let src =
    {|
int main() {
  int *a;
  int *b;
  int *c;
  a = (int *) malloc(sizeof(int));
  *a = 42;
  b = a;
  c = a;
  #pragma poll here
  print_int(*a + *b + *c);
  return 0;
}
|}
  in
  let m = prepare_user src in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 0 in
  let _, stats = Collect.collect p m.Migration.ti in
  (* a, b, c blocks + ONE heap block + main's temps/locals; the heap block
     appears once even though three pointers reach it *)
  let o = Migration.run_migrating m ~src_arch:Hpm_arch.Arch.dec5000
      ~dst_arch:Hpm_arch.Arch.sparc20 () in
  check_string "sum" "126\n" o.Migration.output;
  (match o.Migration.report with
  | Some r -> check_int "one heap alloc on restore" 1 r.Migration.restore_stats.Cstats.r_heap_allocs
  | None -> Alcotest.fail "no report");
  (* a, b, c and ONE heap block; three pointer elements all reach it *)
  check_int "four blocks" 4 stats.Cstats.c_blocks;
  check_int "three pointers" 3 stats.Cstats.c_pointers

let test_cycle () =
  let out, _ =
    migrate_src
      {|
struct ring { int v; struct ring *next; };
int main() {
  struct ring *a; struct ring *b; struct ring *c;
  struct ring *p;
  int i; int sum;
  a = (struct ring *) malloc(sizeof(struct ring));
  b = (struct ring *) malloc(sizeof(struct ring));
  c = (struct ring *) malloc(sizeof(struct ring));
  a->v = 1; b->v = 2; c->v = 4;
  a->next = b; b->next = c; c->next = a;    /* cycle */
  #pragma poll here
  sum = 0;
  p = a;
  for (i = 0; i < 7; i++) { sum = sum + p->v; p = p->next; }
  print_int(sum);
  if (c->next == a) print_str("ring closed\n");
  return 0;
}
|}
  in
  check_string "cycle walks after migration" "15\nring closed\n" out

let test_null_pointers () =
  let out, _ =
    migrate_src
      {|
struct opt { int v; struct opt *some; };
int main() {
  struct opt o;
  int *nothing;
  o.v = 9; o.some = 0;
  nothing = 0;
  #pragma poll here
  if (o.some == 0 && nothing == 0) print_int(o.v);
  return 0;
}
|}
  in
  check_string "nulls stay null" "9\n" out

let test_function_pointer_across () =
  let out, _ =
    migrate_src
      {|
int half(int x) { return x / 2; }
int twice(int x) { return x * 2; }
int main() {
  int (*f)(int);
  int (*g)(int);
  int (*z)(int);
  f = half; g = twice; z = 0;
  #pragma poll here
  if (z == 0) print_int(f(10) + g(10));
  return 0;
}
|}
  in
  check_string "function pointers rebound by name" "25\n" out

let test_cross_frame_pointer () =
  (* the paper's q = &b situation: a callee holds a pointer into the
     caller's frame at migration time *)
  let out, _ =
    migrate_src
      {|
void bump(int **q) {
  #pragma poll inside
  (**q)++;
}
int main() {
  int a; int *b;
  a = 41;
  b = &a;
  bump(&b);
  print_int(a);
  return 0;
}
|}
  in
  check_string "cross-frame pointer rebinds" "42\n" out

let test_global_pointing_to_stack () =
  let out, _ =
    migrate_src
      {|
int *gp;
int main() {
  int local;
  local = 13;
  gp = &local;           /* global points into main's frame */
  #pragma poll here
  print_int(*gp);
  return 0;
}
|}
  in
  check_string "global -> stack pointer" "13\n" out

let test_stack_pointing_to_global () =
  let out, _ =
    migrate_src
      {|
double table[4];
int main() {
  double *p;
  table[2] = 6.25;
  p = &table[2];
  #pragma poll here
  print_double(*p);
  return 0;
}
|}
  in
  check_string "stack -> global interior pointer" "6.25\n" out

let test_string_literal_pointer () =
  let out, _ =
    migrate_src
      {|
char *msg;
int main() {
  char *local;
  msg = "hello";
  local = msg + 1;        /* interior pointer into a string literal */
  #pragma poll here
  print_str(local);
  print_char('\n');
  return 0;
}
|}
  in
  check_string "string literals rebind" "ello\n" out

let test_misaligned_pointer_refused () =
  (* a char* into the middle of a double has no element ordinal: the MSR
     model cannot express it, and collection says so *)
  let src =
    {|
int main() {
  double d;
  char *c;
  d = 1.0;
  c = (char *) &d;
  c = c + 3;
  #pragma poll here
  print_int((int)*c);
  return 0;
}
|}
  in
  let m = prepare_user src in
  let p, _ = suspend m Hpm_arch.Arch.ultra5 0 in
  expect_raise "misaligned interior pointer"
    (function Collect.Error _ -> true | _ -> false)
    (fun () -> Collect.collect p m.Migration.ti)

let test_char_pointer_to_char_array_ok () =
  (* ... but char* at a char-element boundary is fine *)
  let out, _ =
    migrate_src
      {|
int main() {
  char buf[8];
  char *p;
  buf[0] = 'a'; buf[1] = 'b'; buf[2] = 'c'; buf[3] = 0;
  p = buf + 1;
  #pragma poll here
  print_str(p);
  print_char('\n');
  return 0;
}
|}
  in
  check_string "char interior ok" "bc\n" out

let test_every_scalar_kind () =
  (* one struct holding every scalar kind, including short (2 bytes) and
     float (single precision), migrated across all heterogeneity axes *)
  let src =
    {|
struct kinds {
  char c;
  short s;
  int i;
  long l;
  float f;
  double d;
  int *p;
  int (*fn)(int);
};
int idf(int x) { return x; }
int main() {
  struct kinds k;
  int target;
  target = 55;
  k.c = (char)(-7);
  k.s = (short)(-30000);
  k.i = 123456789;
  k.l = 2000000000L;
  k.f = 1.5f;
  k.d = 0.333333333333;
  k.p = &target;
  k.fn = idf;
  #pragma poll here
  print_int((int)k.c);
  print_int((int)k.s);
  print_int(k.i);
  print_long(k.l);
  print_double((double)k.f);
  print_double(k.d);
  print_int(*k.p);
  print_int(k.fn(9));
  return 0;
}
|}
  in
  let expected = "-7
-30000
123456789
2000000000
1.5
0.333333333333
55
9
" in
  List.iter
    (fun (a, b) ->
      let out, _ = migrate_src ~src_arch:a ~dst_arch:b src in
      check_string
        (Printf.sprintf "kinds %s->%s" a.Hpm_arch.Arch.name b.Hpm_arch.Arch.name)
        expected out)
    (same_width_pairs @ cross_width_pairs)

let test_short_arrays () =
  let out, _ =
    migrate_src
      {|
int main() {
  short xs[6];
  short *mid;
  int i;
  for (i = 0; i < 6; i++) xs[i] = (short)(i * 1000 - 2500);
  mid = &xs[3];
  #pragma poll here
  print_int((int)xs[0] + (int)*mid);
  return 0;
}
|}
  in
  check_string "short arrays and interior short*" "-2000
" (out)

let test_counters_match_both_sides () =
  let m = prepare (Hpm_workloads.Bitonic.source 400) in
  let p, _ = suspend m Hpm_arch.Arch.dec5000 900 in
  let data, cs = Collect.collect p m.Migration.ti in
  let _, rs = Restore.restore m.Migration.prog Hpm_arch.Arch.x86_64 m.Migration.ti data in
  check_int "blocks equal" cs.Cstats.c_blocks rs.Cstats.r_blocks;
  (* every datum (live var or global) is one extra restore_ptr call *)
  check_int "pointer counts equal" cs.Cstats.c_pointers
    (rs.Cstats.r_pointers - cs.Cstats.c_live_vars);
  (* updates = one bind per block *)
  check_int "updates = blocks" rs.Cstats.r_blocks rs.Cstats.r_updates;
  (* searches happen only on the collect side, at most one per pointer *)
  check_bool "searches <= pointers" true (cs.Cstats.c_searches <= cs.Cstats.c_pointers)

(* Plans are kept per TI type, not per block type: heap arrays of 200
   distinct lengths (pointer-free and pointer-bearing) leave every arch's
   plan table no larger than the TI table, after collection, snapshot
   collection, restoration, verification and the MSR graph. *)
let test_plan_table_bounded_by_ti () =
  let m =
    prepare_user
      {|
struct cell { int v; struct cell *next; };
int *ps[200];
struct cell *cs[200];
int main() {
  int i;
  int j;
  for (i = 0; i < 200; i++) {
    ps[i] = (int *) malloc((i + 1) * sizeof(int));
    for (j = 0; j <= i; j++) ps[i][j] = i + j;
    cs[i] = (struct cell *) malloc((i + 1) * sizeof(struct cell));
    cs[i][i].v = i;
    cs[i][i].next = cs[i];
  }
  #pragma poll here
  print_int(ps[199][150]);
  print_int(cs[120][120].next[120].v);
  return 0;
}
|}
  in
  let ti = m.Migration.ti in
  let plain, _, _ = Migration.run_plain m Hpm_arch.Arch.dec5000 in
  List.iter
    (fun (src_arch, dst_arch) ->
      let p, _ = suspend m src_arch 0 in
      let data, _ = Collect.collect p ti in
      ignore (Hpm_store.Snapshot.collect p ti);
      ignore (Graph.snapshot ti p);
      let dst, _ = Restore.restore m.Migration.prog dst_arch ti data in
      ignore (Verify.check dst ti : Verify.report);
      check_string "output" plain (finish_output (Hpm_machine.Interp.output p) dst))
    [ (Hpm_arch.Arch.dec5000, Hpm_arch.Arch.x86_64); (Hpm_arch.Arch.x86_64, Hpm_arch.Arch.sparc20) ];
  List.iter
    (fun arch ->
      let t = Tplan.table ti (Hpm_lang.Layout.make arch ti.Hpm_msr.Ti.tenv) in
      let size = Array.fold_left (fun n p -> if p = None then n else n + 1) 0 t.Tplan.by_tid in
      if size > Hpm_msr.Ti.entry_count ti then
        Alcotest.failf "%s: %d plans for %d TI entries" arch.Hpm_arch.Arch.name size
          (Hpm_msr.Ti.entry_count ti))
    [ Hpm_arch.Arch.dec5000; Hpm_arch.Arch.x86_64; Hpm_arch.Arch.sparc20 ]

let suite =
  [
    tc "one-past-the-end pointer" test_one_past_end;
    tc "interior pointers re-derive byte offsets" test_interior_pointer;
    tc "shared blocks saved once" test_shared_block_saved_once;
    tc "cycles survive" test_cycle;
    tc "null pointers stay null" test_null_pointers;
    tc "function pointers rebind by identity" test_function_pointer_across;
    tc "cross-frame pointers rebind" test_cross_frame_pointer;
    tc "global pointing into the stack" test_global_pointing_to_stack;
    tc "stack pointing into a global" test_stack_pointing_to_global;
    tc "string-literal pointers" test_string_literal_pointer;
    tc "misaligned interior pointer refused" test_misaligned_pointer_refused;
    tc "char-boundary interior pointer ok" test_char_pointer_to_char_array_ok;
    tc "every scalar kind migrates" test_every_scalar_kind;
    tc "short arrays" test_short_arrays;
    tc "collect/restore counters agree" test_counters_match_both_sides;
    tc "plan table bounded by the TI table" test_plan_table_bounded_by_ti;
  ]
