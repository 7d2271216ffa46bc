(* The paper's Figure 1, reproduced.

   Runs the example program of §3.2, suspends it exactly where the paper
   takes its snapshot — in foo, just before the malloc at line 20, with
   the for loop having completed four iterations — and prints the MSR
   graph.  The paper's figure shows 12 vertices; this prints the graph so
   you can compare, plus Graphviz dot on request.

     dune exec examples/fig1_example.exe [-- --dot]
*)

open Hpm_core

(* The program of Figure 1(a), verbatim up to formatting.  A user
   poll-point marks the paper's snapshot location (right before line 20);
   automatic insertion is disabled so poll events count foo invocations
   exactly. *)
let source =
  {|
struct node {
  float data;
  struct node *link;
};
struct node *first, *last;

void foo(struct node **p, int **q) {
  #pragma poll before_malloc
  *p = (struct node *) malloc(sizeof(struct node));
  (*p)->data = 10.0;
  (**q)++;
}

int main() {
  int i;
  int a, *b;
  struct node *parray[10];
  a = 1;
  b = &a;
  for (i = 0; i < 10; i++) {
    foo(parray + i, &b);
    first = parray[0];
    last = parray[i];
    first->link = last;
    if (i > 0) {
      parray[i]->link = parray[i - 1];
    }
  }
  return 0;
}
|}

let () =
  let dot = Array.exists (String.equal "--dot") Sys.argv in
  let m = Migration.prepare ~strategy:Hpm_ir.Pollpoint.user_only_strategy source in
  let p = Migration.start m Hpm_arch.Arch.dec5000 in
  (* the paper: "the for loop at line 12 had been executed four times
     before the snapshot" — suspend at foo's 5th invocation *)
  Hpm_machine.Interp.request_migration_after p 4;
  match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RPolled _ ->
      let g = Graph.snapshot m.Migration.ti p in
      let g = Graph.user_only (Graph.reachable_from_roots p g) in
      if dot then print_string (Graph.to_dot g)
      else (
        Fmt.pr "%a" Graph.pp g;
        Fmt.pr
          "@.The paper's Figure 1(b) shows 12 vertices (first, last, i, a, b,@.\
           parray, addr1-addr4, p, q) — check them above.  Now migrating the@.\
           snapshot dec5000 -> sparc20 and finishing there...@.";
        let dst, report = Migration.migrate m p Hpm_arch.Arch.sparc20 in
        (match Hpm_machine.Interp.run dst with
        | Hpm_machine.Interp.RDone _ -> Fmt.pr "@.resumed and finished OK@."
        | _ -> Fmt.pr "@.unexpected suspension@.");
        Fmt.pr "%a@." Migration.pp_report report)
  | _ -> Fmt.epr "program ended before the snapshot point@."
