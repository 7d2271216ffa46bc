(** End-to-end migration tests: the §4.1 heterogeneity claims.

    The oracle is *migrate-anywhere equivalence*: for any program and any
    poll event k, running with a migration at k produces exactly the
    output of an unmigrated run.  Full equivalence holds between machines
    with equal integer widths (the paper's DEC↔SPARC setting); across
    ILP32/LP64 it holds for programs whose [long] arithmetic stays in
    range (C itself promises no more). *)

open Hpm_core
open Util

let fst3 (a, _, _) = a

let workload name =
  let w = Hpm_workloads.Registry.find_exn name in
  w.Hpm_workloads.Registry.source w.Hpm_workloads.Registry.default_n

let equivalence_everywhere ?(polls = [ 0; 1; 5; 23; 77 ]) pairs name src =
  let m = prepare src in
  let ref_out, ref_ret, _ = Migration.run_plain m Hpm_arch.Arch.sparc20 in
  List.iter
    (fun (a, b) ->
      List.iter
        (fun k ->
          let o = Migration.run_migrating m ~src_arch:a ~dst_arch:b ~after_polls:k () in
          check_string
            (Printf.sprintf "%s %s->%s @%d" name a.Hpm_arch.Arch.name
               b.Hpm_arch.Arch.name k)
            ref_out o.Migration.output;
          check_bool (name ^ " return value") true
            (match (ref_ret, o.Migration.return_value) with
            | Some x, Some y -> Hpm_machine.Mem.value_equal x y
            | None, None -> true
            | _ -> false))
        polls)
    pairs

let test_same_width_all_workloads () =
  List.iter
    (fun (w : Hpm_workloads.Registry.t) ->
      equivalence_everywhere same_width_pairs w.Hpm_workloads.Registry.name
        (w.Hpm_workloads.Registry.source w.Hpm_workloads.Registry.default_n))
    Hpm_workloads.Registry.all

let test_cross_width_safe_workloads () =
  (* workloads whose long arithmetic stays within 32 bits, per the
     registry's [wide_safe] flag *)
  List.iter
    (fun (w : Hpm_workloads.Registry.t) ->
      equivalence_everywhere cross_width_pairs w.Hpm_workloads.Registry.name
        (w.Hpm_workloads.Registry.source w.Hpm_workloads.Registry.default_n))
    (List.filter
       (fun (w : Hpm_workloads.Registry.t) -> w.Hpm_workloads.Registry.wide_safe)
       Hpm_workloads.Registry.all)

let test_test_pointer_oracle () =
  (* the full §4.1 consistency checklist, on the destination machine:
     user-only polls, so the migration happens exactly at the program's
     "#pragma poll midpoint" between construction and verification *)
  let m = prepare_user (workload "test_pointer") in
  List.iter
    (fun (a, b) ->
      let o = Migration.run_migrating m ~src_arch:a ~dst_arch:b ~after_polls:0 () in
      check_bool "used the user poll" true o.Migration.migrated;
      check_string
        (Printf.sprintf "oracle %s->%s" a.Hpm_arch.Arch.name b.Hpm_arch.Arch.name)
        Hpm_workloads.Test_pointer.expected_output o.Migration.output)
    (same_width_pairs @ cross_width_pairs)

let test_no_duplication () =
  (* "all memory blocks and pointers are collected and restored without
     duplication": heap blocks restored = live heap blocks at migration *)
  let m = prepare (workload "bitonic") in
  let src = Migration.start m Hpm_arch.Arch.dec5000 in
  Hpm_machine.Interp.request_migration_after src 700;
  (match Hpm_machine.Interp.run src with
  | Hpm_machine.Interp.RPolled _ -> ()
  | _ -> Alcotest.fail "expected suspension");
  let live_heap =
    List.length
      (List.filter
         (fun (b : Hpm_machine.Mem.block) -> b.Hpm_machine.Mem.seg = Hpm_machine.Mem.Heap)
         (Hpm_machine.Mem.live_blocks src.Hpm_machine.Interp.mem))
  in
  let dst, report = Migration.migrate m src Hpm_arch.Arch.sparc20 in
  check_int "heap blocks moved once each" live_heap
    report.Migration.restore_stats.Cstats.r_heap_allocs;
  let dst_heap =
    List.length
      (List.filter
         (fun (b : Hpm_machine.Mem.block) -> b.Hpm_machine.Mem.seg = Hpm_machine.Mem.Heap)
         (Hpm_machine.Mem.live_blocks dst.Hpm_machine.Interp.mem))
  in
  check_int "destination heap equals source heap" live_heap dst_heap

let test_rng_state_travels () =
  (* rand() continues the same sequence on the destination machine *)
  let src =
    {|
int main() {
  int i;
  srand(99);
  for (i = 0; i < 5; i++) print_int(rand() % 1000);
  #pragma poll mid
  for (i = 0; i < 5; i++) print_int(rand() % 1000);
  return 0;
}
|}
  in
  let m = prepare_user src in
  let ref_out = fst3 (Migration.run_plain m Hpm_arch.Arch.ultra5) in
  let o =
    Migration.run_migrating m ~src_arch:Hpm_arch.Arch.x86_64
      ~dst_arch:Hpm_arch.Arch.dec5000 ()
  in
  check_string "rng sequence unbroken" ref_out o.Migration.output

let test_chained_migration () =
  (* A -> B -> C -> A: three hops through three layouts *)
  let m = prepare (workload "bitonic") in
  let p0 = Migration.start m Hpm_arch.Arch.dec5000 in
  Hpm_machine.Interp.request_migration_after p0 100;
  (match Hpm_machine.Interp.run p0 with
  | Hpm_machine.Interp.RPolled _ -> ()
  | _ -> Alcotest.fail "no suspension");
  let p1, _ = Migration.migrate m p0 Hpm_arch.Arch.x86_64 in
  Hpm_machine.Interp.request_migration_after p1 200;
  (match Hpm_machine.Interp.run p1 with
  | Hpm_machine.Interp.RPolled _ -> ()
  | _ -> Alcotest.fail "no second suspension");
  let p2, _ = Migration.migrate m p1 Hpm_arch.Arch.i386 in
  Hpm_machine.Interp.request_migration_after p2 300;
  (match Hpm_machine.Interp.run p2 with
  | Hpm_machine.Interp.RPolled _ -> ()
  | _ -> Alcotest.fail "no third suspension");
  let p3, _ = Migration.migrate m p2 Hpm_arch.Arch.sparc20 in
  (match Hpm_machine.Interp.run p3 with
  | Hpm_machine.Interp.RDone _ -> ()
  | _ -> Alcotest.fail "did not finish");
  let total =
    Hpm_machine.Interp.output p0 ^ Hpm_machine.Interp.output p1
    ^ Hpm_machine.Interp.output p2 ^ Hpm_machine.Interp.output p3
  in
  let ref_out = fst3 (Migration.run_plain m Hpm_arch.Arch.ultra5) in
  check_string "three-hop output" ref_out total

let test_migration_in_deep_recursion () =
  let src =
    {|
long sum_to(int n) {
  if (n == 0) return 0L;
  return (long)n + sum_to(n - 1);
}
int main() {
  print_long(sum_to(300));
  return 0;
}
|}
  in
  let m = prepare src in
  (* suspend deep inside the recursion: each call entry polls once *)
  let o =
    Migration.run_migrating m ~src_arch:Hpm_arch.Arch.dec5000
      ~dst_arch:Hpm_arch.Arch.sparc20 ~after_polls:250 ()
  in
  check_bool "migrated" true o.Migration.migrated;
  check_string "deep stack" "45150\n" o.Migration.output;
  (match o.Migration.report with
  | Some r ->
      check_bool "many frames collected" true (r.Migration.collect_stats.Cstats.c_frames > 200)
  | None -> Alcotest.fail "no report")

let test_wrong_program_rejected () =
  let m1 = prepare (workload "bitonic") in
  let m2 = prepare (workload "nqueens") in
  let p, _ = suspend m1 Hpm_arch.Arch.ultra5 10 in
  let data, _ = Collect.collect p m1.Migration.ti in
  expect_raise "fingerprint mismatch"
    (function Restore.Error _ -> true | _ -> false)
    (fun () -> Restore.restore m2.Migration.prog Hpm_arch.Arch.ultra5 m2.Migration.ti data)

let test_homogeneous_migration () =
  (* Table 1's setting: Ultra 5 to Ultra 5 must of course also work *)
  equivalence_everywhere ~polls:[ 0; 13 ]
    [ (Hpm_arch.Arch.ultra5, Hpm_arch.Arch.ultra5) ]
    "bitonic-homogeneous" (workload "bitonic")

(* ---- randomized chaos-graph property ---- *)

let chaos_template = format_of_string {|
struct gnode {
  int id;
  int mark;
  double w;
  struct gnode *out[3];
};

struct gnode *nodes[64];
long fp;

void visit(struct gnode *g, int pass, int depth) {
  int j;
  if (g == 0) return;
  if (g->mark == pass) return;
  if (depth > 40) return;
  g->mark = pass;
  fp = fp * 31L + (long)g->id + (long)depth;
  fp = fp %% 1000000007L;
  for (j = 0; j < 3; j++) visit(g->out[j], pass, depth + 1);
}

int main() {
  int i; int j; int r;
  int n;
  struct gnode *garbage;
  n = %d;
  srand(%d);
  fp = 0L;
  for (i = 0; i < n; i++) {
    nodes[i] = (struct gnode *) malloc(sizeof(struct gnode));
    nodes[i]->id = i;
    nodes[i]->mark = -1;
    nodes[i]->w = (double)i * 0.25;
    for (j = 0; j < 3; j++) nodes[i]->out[j] = 0;
    /* some garbage that is freed and never referenced again */
    if (i %% 5 == 0) {
      garbage = (struct gnode *) malloc(sizeof(struct gnode));
      free(garbage);
    }
  }
  for (i = 0; i < n; i++) {
    #pragma poll linking
    for (j = 0; j < 3; j++) {
      r = rand() %% (n + 1);
      if (r < n) nodes[i]->out[j] = nodes[r];
    }
  }
  for (i = 0; i < n; i++) {
    #pragma poll walking
    visit(nodes[i], i, 0);
  }
  print_long(fp);
  return 0;
}
|}

let chaos_src ~n ~seed = Printf.sprintf chaos_template n seed

let prop_chaos =
  qt ~count:25 "random shared/cyclic graphs migrate anywhere"
    QCheck.(triple (int_range 2 64) (int_range 0 10_000) (int_range 0 120))
    (fun (n, seed, after) ->
      let src = chaos_src ~n ~seed in
      let m = prepare_user src in
      let ref_out = fst3 (Migration.run_plain m Hpm_arch.Arch.ultra5) in
      List.for_all
        (fun (a, b) ->
          let o = Migration.run_migrating m ~src_arch:a ~dst_arch:b ~after_polls:after () in
          String.equal ref_out o.Migration.output)
        [ (Hpm_arch.Arch.dec5000, Hpm_arch.Arch.sparc20);
          (Hpm_arch.Arch.sparc20, Hpm_arch.Arch.i386) ])

let test_verify_matches_handoff () =
  (* the reference pipeline verifies the restored image exactly as the
     two-phase handoff does before it commits *)
  List.iter
    (fun (name, n, src_arch, dst_arch, after) ->
      let m = prepare ((Hpm_workloads.Registry.find_exn name).Hpm_workloads.Registry.source n) in
      let p, _ = suspend m src_arch after in
      let _, report = Migration.migrate m p dst_arch in
      let q, _ = suspend m src_arch after in
      match
        (Handoff.execute ~channel:(Hpm_net.Netsim.ethernet_10 ()) ~epoch:1 m q dst_arch)
          .Handoff.outcome
      with
      | Handoff.Committed c ->
          check_bool
            (Printf.sprintf "%s: same verify report as the handoff" name)
            true (report.Migration.verify = c.Handoff.c_verify);
          check_bool (name ^ ": pointers checked") true
            (report.Migration.verify.Verify.v_pointers > 0)
      | o -> Alcotest.failf "%s: clean handoff did not commit (%s)" name (Handoff.outcome_name o))
    [
      ("bitonic", 200, Hpm_arch.Arch.dec5000, Hpm_arch.Arch.sparc20, 300);
      ("hashtab", 60, Hpm_arch.Arch.sparc20, Hpm_arch.Arch.x86_64, 1);
      ("test_pointer", 0, Hpm_arch.Arch.x86_64, Hpm_arch.Arch.i386, 2);
    ]

let suite =
  [
    tc_slow "all workloads: same-width equivalence" test_same_width_all_workloads;
    tc_slow "safe workloads: cross-width equivalence" test_cross_width_safe_workloads;
    tc "test_pointer oracle on every pair" test_test_pointer_oracle;
    tc "no duplication of shared blocks" test_no_duplication;
    tc "rng state migrates" test_rng_state_travels;
    tc "chained three-hop migration" test_chained_migration;
    tc "migration in deep recursion" test_migration_in_deep_recursion;
    tc "wrong program rejected" test_wrong_program_rejected;
    tc "homogeneous migration (Table 1 setting)" test_homogeneous_migration;
    tc "restored image verified as by the handoff" test_verify_matches_handoff;
    prop_chaos;
  ]
