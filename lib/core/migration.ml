(** End-to-end heterogeneous process migration.

    Glues the pipeline together: pre-compile a Mini-C source into the
    migratable format (type check → unsafe-feature check → IR lowering →
    poll-point insertion), start it on a source machine, run until a
    migration request is noticed at a poll-point, collect, restore on the
    destination machine, and resume.

    {!migrate} and {!run_migrating} hand the stream over in memory: they
    are the reference pipeline that tests and examples compare against.
    A migration that crosses a (simulated) network runs
    {!Handoff.execute}, the same collect → restore pipeline with the
    chunked transport in between and two-phase commit around it.

    [Unix.gettimeofday]-style timing deliberately lives in the benchmark
    harness, not here; this module reports the §4.2 operation counts and
    byte volumes. *)

open Hpm_arch
open Hpm_xdr
open Hpm_ir
open Hpm_machine
open Hpm_msr

exception Error of string

let error fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

(** A program in the paper's "migratable format": deterministic IR with
    poll-points inserted, plus the TI table — exactly what would be
    pre-distributed and compiled on every machine of the network. *)
type migratable = {
  source : string;                (** original Mini-C source *)
  ast : Hpm_lang.Ast.program;     (** type-checked, elaborated AST *)
  prog : Ir.prog;                 (** annotated IR *)
  polls : Pollpoint.table;
  ti : Ti.t;
  diags : Unsafe.diag list;
      (** warnings from the unsafe checker and the flow-sensitive lint *)
}

(** Run the pre-compiler on Mini-C source text.  After poll-point
    insertion the flow-sensitive {!Lint} analyses run over the IR and any
    lint *error* (e.g. a wild pointer live at a poll-point) rejects the
    program just like an unsafe feature does; pass [~lint:false] to opt
    out (the dynamic-defect experiments do, deliberately migrating broken
    programs).
    @raise Hpm_lang.Lexer.Error, Hpm_lang.Parser.Error on syntax errors
    @raise Hpm_lang.Typecheck.Error on type errors
    @raise Hpm_ir.Unsafe.Rejected when migration-unsafe features or lint
    errors are found
    @raise Hpm_ir.Diag.Rejected when [require_compat = Some (src, dst)]
    and the portability analysis finds a hard incompatibility ([HPM-E20x])
    for that ordered pair at any poll-point *)
let prepare ?(strategy = Pollpoint.default_strategy) ?(lint = true) ?require_compat
    (source : string) : migratable =
  let ast = Hpm_lang.Parser.parse_string source in
  let ast = Hpm_lang.Scopes.normalize ast in
  let ast = Hpm_lang.Typecheck.check_program ast in
  let diags = Unsafe.check_exn ast in
  let prog, user_polls = Compile.lower ast in
  let polls = Pollpoint.insert prog user_polls strategy in
  let diags =
    if lint then diags @ Diag.reject_on_errors (Lint.check_ir prog polls)
    else diags
  in
  let diags =
    match require_compat with
    | None -> diags
    | Some (src, dst) ->
        let r = Portability.analyze prog polls ~src ~dst in
        let pair_diags =
          List.concat_map (fun p -> p.Portability.r_diags) r.Portability.p_polls
        in
        diags @ Diag.reject_on_errors pair_diags
  in
  let ti = Ti.build prog polls in
  { source; ast; prog; polls; ti; diags }

(** Like {!prepare} but without any poll-point insertion or block-table
    accounting — the "original program" baseline of the §4.3 overhead
    experiment. *)
let prepare_unannotated (source : string) : migratable =
  prepare ~strategy:Pollpoint.user_only_strategy source

(** Start a process on [arch]. *)
let start (m : migratable) (arch : Arch.t) : Interp.t = Interp.create m.prog arch

type migration_report = {
  poll_id : int;
  stream_bytes : int;
  collect_stats : Cstats.collect;
  restore_stats : Cstats.restore;
  verify : Verify.report;  (** the restored image's integrity check *)
  src_arch : string;
  dst_arch : string;
}

let pp_report ppf r =
  Fmt.pf ppf "migration %s -> %s at poll #%d: %d bytes@.  %a@.  %a@.  %a" r.src_arch
    r.dst_arch r.poll_id r.stream_bytes Cstats.pp_collect r.collect_stats
    Cstats.pp_restore r.restore_stats Verify.pp_report r.verify

(** Migrate a process suspended at a poll-point ({!Interp.run} returned
    [RPolled]) to a fresh process on [dst_arch], and verify the restored
    image as {!Handoff.execute} does before it commits.  The source
    process is dead afterwards (its memory is untouched, but, per §2, the
    migrating process terminates after transmission).
    @raise Verify.Violation when the restored image breaks an invariant *)
let migrate (m : migratable) (src : Interp.t) (dst_arch : Arch.t) :
    Interp.t * migration_report =
  let data, collect_stats = Collect.collect src m.ti in
  let dst, restore_stats = Restore.restore m.prog dst_arch m.ti data in
  let verify = Verify.check dst m.ti in
  let header = Stream.get_header (Xdr.reader_of_string data) in
  ( dst,
    {
      poll_id = header.Stream.poll_id;
      stream_bytes = String.length data;
      collect_stats;
      restore_stats;
      verify;
      src_arch = src.Interp.arch.Arch.name;
      dst_arch = dst_arch.Arch.name;
    } )

type run_outcome = {
  migrated : bool;
  report : migration_report option;
  output : string;        (** source-side output ^ destination-side output *)
  return_value : Mem.value option;
}

(** Full scenario driver: start on [src_arch]; after [after_polls] poll
    events, migrate to [dst_arch]; run to completion.  If the program
    finishes before the migration triggers, it simply completes on the
    source machine ([migrated = false]). *)
let run_migrating (m : migratable) ~(src_arch : Arch.t) ~(dst_arch : Arch.t)
    ?(after_polls = 0) () : run_outcome =
  let src = start m src_arch in
  Interp.request_migration_after src after_polls;
  match Interp.run src with
  | Interp.RDone v ->
      {
        migrated = false;
        report = None;
        output = Interp.output src;
        return_value = v;
      }
  | Interp.RFuel -> assert false
  | Interp.RPolled _ -> (
      let dst, report = migrate m src dst_arch in
      match Interp.run dst with
      | Interp.RDone v ->
          {
            migrated = true;
            report = Some report;
            output = Interp.output src ^ Interp.output dst;
            return_value = v;
          }
      | Interp.RPolled id -> error "unexpected second migration at poll #%d" id
      | Interp.RFuel -> assert false)

(** Run without migrating at all, for reference outputs and overhead
    baselines. *)
let run_plain (m : migratable) (arch : Arch.t) : string * Mem.value option * Mstats.t =
  let p = start m arch in
  let v = Interp.run_to_completion p in
  (Interp.output p, v, Interp.stats p)
