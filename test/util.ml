(** Shared helpers for the test suite. *)

open Hpm_core

let arches = Hpm_arch.Arch.all

(* architecture pairs with equal long/pointer widths: full output
   equivalence under migration holds for any program on these; programs
   whose long arithmetic overflows 32 bits are width-dependent (faithful C
   behaviour), so cross-width checks use overflow-free programs only *)
let same_width_pairs =
  let open Hpm_arch.Arch in
  [
    (dec5000, sparc20);
    (sparc20, dec5000);
    (sparc20, ultra5);
    (dec5000, i386);
    (i386, sparc20);
  ]

let cross_width_pairs =
  let open Hpm_arch.Arch in
  [ (dec5000, x86_64); (x86_64, sparc20); (ultra5, x86_64); (x86_64, i386) ]

let prepare = Migration.prepare
let prepare_user = Migration.prepare ~strategy:Hpm_ir.Pollpoint.user_only_strategy

(** Parse + scope-normalize + typecheck only. *)
let check_src src =
  Hpm_lang.Typecheck.check_program
    (Hpm_lang.Scopes.normalize (Hpm_lang.Parser.parse_string src))

(** Run a program (source text) to completion on [arch], returning output. *)
let run_on ?(arch = Hpm_arch.Arch.ultra5) src =
  let m = prepare src in
  let out, _, _ = Migration.run_plain m arch in
  out

(** Run with a migration after [after] poll events; return combined output. *)
let run_migrated ?(src_arch = Hpm_arch.Arch.dec5000) ?(dst_arch = Hpm_arch.Arch.sparc20)
    ?(after = 0) src =
  let m = prepare src in
  let o = Migration.run_migrating m ~src_arch ~dst_arch ~after_polls:after () in
  o.Migration.output

(** Suspend a prepared program at the (k+1)-th poll event. *)
let suspend m arch after =
  let p = Migration.start m arch in
  Hpm_machine.Interp.request_migration_after p after;
  match Hpm_machine.Interp.run p with
  | Hpm_machine.Interp.RPolled id -> (p, id)
  | Hpm_machine.Interp.RDone _ -> Alcotest.fail "program finished before the poll"
  | Hpm_machine.Interp.RFuel -> Alcotest.fail "out of fuel"

(* Run [interp] to completion; the output is [pre] (what the source
   printed before a handoff) followed by [interp]'s own. *)
let finish_output pre (interp : Hpm_machine.Interp.t) =
  match Hpm_machine.Interp.run interp with
  | Hpm_machine.Interp.RDone _ -> pre ^ Hpm_machine.Interp.output interp
  | _ -> Alcotest.fail "process did not run to completion"

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(** Substring test. *)
let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** Expect that [f ()] raises an exception matching [pred]. *)
let expect_raise name pred f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" name
  | exception e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
