(* migratec: the pre-compiler CLI.

   Subcommands:
     check FILE     - parse, type-check, and report migration-unsafe features
     lint FILE      - the full static analysis: unsafe features plus the
                      flow-sensitive checks (uninitialized/dangling values
                      live at poll-points, double frees, dead stores) and
                      an optional per-poll migration-footprint report
     compat FILE    - arch-pair compatibility matrix: per ordered pair and
                      poll-point, legal / lossy / illegal
     ir FILE        - dump the annotated IR (after poll-point insertion)
     polls FILE     - list poll-points with their live-variable sets
     graph FILE     - run to a poll-point and print the MSR graph (or dot)
     source FILE    - re-print the parsed program (pretty-printer round trip)

   FILE may also be "workload:NAME[:N]" to use a built-in workload. *)

open Cmdliner
open Hpm_core

let read_input (spec : string) : string =
  match String.split_on_char ':' spec with
  | [ "workload"; name ] ->
      let w = Hpm_workloads.Registry.find_exn name in
      w.Hpm_workloads.Registry.source w.Hpm_workloads.Registry.default_n
  | [ "workload"; name; n ] ->
      let w = Hpm_workloads.Registry.find_exn name in
      w.Hpm_workloads.Registry.source (int_of_string n)
  | _ ->
      let ic = open_in_bin spec in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s

let strategy_of_string = function
  | "default" -> Hpm_ir.Pollpoint.default_strategy
  | "outer" -> Hpm_ir.Pollpoint.outer_loops_strategy
  | "user" -> Hpm_ir.Pollpoint.user_only_strategy
  | s -> failwith (Printf.sprintf "unknown strategy %S (default|outer|user)" s)

let with_errors f =
  try f () with
  | Hpm_lang.Lexer.Error (m, l, c) ->
      Fmt.epr "lexical error at %d:%d: %s@." l c m;
      exit 1
  | Hpm_lang.Parser.Error (m, l, c) ->
      Fmt.epr "syntax error at %d:%d: %s@." l c m;
      exit 1
  | Hpm_lang.Typecheck.Error (m, loc) ->
      Fmt.epr "type error at %a: %s@." Hpm_lang.Ast.pp_loc loc m;
      exit 1
  | Hpm_ir.Diag.Rejected diags ->
      Fmt.epr "program rejected by static analysis:@.";
      List.iter (fun d -> Fmt.epr "  %a@." Hpm_ir.Diag.pp d) diags;
      exit 1
  | Invalid_argument m ->
      Fmt.epr "error: %s@." m;
      exit 2

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Mini-C source file, or workload:NAME[:N]")

let strategy_arg =
  Arg.(value & opt string "default" & info [ "strategy" ] ~docv:"S" ~doc:"poll-point strategy: default, outer, or user")

let werror_arg =
  Arg.(value & flag & info [ "werror" ] ~doc:"treat warnings as errors (exit 1)")

let suppress_arg =
  Arg.(
    value & opt_all string []
    & info [ "suppress" ] ~docv:"CODE"
        ~doc:"suppress a diagnostic code (repeatable; comma-separated lists accepted)")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ]
        ~doc:"skip the flow-sensitive lint gate (accept programs the lint would reject)")

let diag_config werror suppress =
  {
    Hpm_ir.Diag.werror;
    suppress = List.concat_map (String.split_on_char ',') suppress;
  }

let cmd_check =
  let run file werror suppress =
    with_errors (fun () ->
        let src = read_input file in
        let ast = Hpm_lang.Parser.parse_string src in
        let ast = Hpm_lang.Typecheck.check_program ast in
        let diags =
          Hpm_ir.Diag.apply (diag_config werror suppress) (Hpm_ir.Unsafe.check ast)
        in
        if diags = [] then Fmt.pr "%s: migration-safe, no warnings@." file
        else List.iter (fun d -> Fmt.pr "%a@." Hpm_ir.Diag.pp d) diags;
        exit (Hpm_ir.Diag.exit_code diags))
  in
  Cmd.v (Cmd.info "check" ~doc:"type-check and scan for migration-unsafe features")
    Term.(const run $ file_arg $ werror_arg $ suppress_arg)

let cmd_lint =
  let format_arg =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"F" ~doc:"output format: text or json")
  in
  let footprint_arg =
    Arg.(
      value & flag
      & info [ "footprint" ] ~doc:"also report per-poll migration footprints (live bytes)")
  in
  let arch_arg =
    Arg.(
      value & opt string "ultra5"
      & info [ "arch" ] ~docv:"A" ~doc:"architecture for footprint sizes")
  in
  let run file strategy format werror suppress footprint archname =
    with_errors (fun () ->
        let a =
          Hpm_ir.Lint.analyze_source ~strategy:(strategy_of_string strategy)
            (read_input file)
        in
        let diags = Hpm_ir.Diag.apply (diag_config werror suppress) a.Hpm_ir.Lint.a_diags in
        let fp =
          match (footprint, a.Hpm_ir.Lint.a_prog) with
          | true, Some (prog, polls) ->
              Some (Hpm_ir.Lint.footprint prog polls (Hpm_arch.Arch.by_name_exn archname))
          | _ -> None
        in
        (match format with
        | "json" -> print_endline (Hpm_ir.Lint.report_json ~file diags fp)
        | "text" ->
            List.iter (fun d -> Fmt.pr "%a@." Hpm_ir.Diag.pp d) diags;
            Option.iter
              (List.iter (fun e -> Fmt.pr "%a@." Hpm_ir.Lint.pp_footprint_entry e))
              fp;
            Fmt.pr "%s: %d error(s), %d warning(s)@." file
              (List.length (Hpm_ir.Diag.errors diags))
              (List.length (Hpm_ir.Diag.warnings diags))
        | f -> failwith (Printf.sprintf "unknown format %S (text|json)" f));
        exit (Hpm_ir.Diag.exit_code diags))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "run the full static analysis: unsafe features plus flow-sensitive \
          migratability checks")
    Term.(
      const run $ file_arg $ strategy_arg $ format_arg $ werror_arg $ suppress_arg
      $ footprint_arg $ arch_arg)

let cmd_ir =
  let run file strategy no_lint =
    with_errors (fun () ->
        let m =
          Migration.prepare ~strategy:(strategy_of_string strategy) ~lint:(not no_lint)
            (read_input file)
        in
        Fmt.pr "%a@." Hpm_ir.Ir.pp_prog m.Migration.prog)
  in
  Cmd.v (Cmd.info "ir" ~doc:"dump annotated IR")
    Term.(const run $ file_arg $ strategy_arg $ no_lint_arg)

let cmd_polls =
  let run file strategy no_lint =
    with_errors (fun () ->
        let m =
          Migration.prepare ~strategy:(strategy_of_string strategy) ~lint:(not no_lint)
            (read_input file)
        in
        List.iter
          (fun p -> Fmt.pr "%a@." Hpm_ir.Pollpoint.pp_info p)
          m.Migration.polls.Hpm_ir.Pollpoint.polls;
        Fmt.pr "%d poll-points@." (List.length m.Migration.polls.Hpm_ir.Pollpoint.polls))
  in
  Cmd.v (Cmd.info "polls" ~doc:"list poll-points and live sets")
    Term.(const run $ file_arg $ strategy_arg $ no_lint_arg)

let cmd_source =
  let run file =
    with_errors (fun () ->
        let ast = Hpm_lang.Parser.parse_string (read_input file) in
        let ast = Hpm_lang.Typecheck.check_program ast in
        Fmt.pr "%a" Hpm_lang.Pretty.pp_program ast)
  in
  Cmd.v (Cmd.info "source" ~doc:"pretty-print the parsed program") Term.(const run $ file_arg)

let cmd_annotate =
  let run file strategy =
    with_errors (fun () ->
        print_string
          (Hpm_ir.Annotate.source ~strategy:(strategy_of_string strategy) (read_input file)))
  in
  Cmd.v
    (Cmd.info "annotate" ~doc:"emit the annotated (migratable-format) source")
    Term.(const run $ file_arg $ strategy_arg)

let cmd_graph =
  let after_arg =
    Arg.(value & opt int 0 & info [ "after-polls" ] ~docv:"K" ~doc:"suspend at the (K+1)-th poll event")
  in
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"emit Graphviz dot") in
  let arch_arg =
    Arg.(value & opt string "ultra5" & info [ "arch" ] ~docv:"A" ~doc:"architecture to run on")
  in
  let reachable_arg =
    Arg.(value & flag & info [ "reachable" ] ~doc:"restrict to blocks reachable from roots")
  in
  let run file after dot archname reachable no_lint =
    with_errors (fun () ->
        let arch = Hpm_arch.Arch.by_name_exn archname in
        let m = Migration.prepare ~lint:(not no_lint) (read_input file) in
        let p = Migration.start m arch in
        Hpm_machine.Interp.request_migration_after p after;
        match Hpm_machine.Interp.run p with
        | Hpm_machine.Interp.RDone _ ->
            Fmt.epr "process finished before reaching poll event %d@." after;
            exit 1
        | Hpm_machine.Interp.RFuel -> assert false
        | Hpm_machine.Interp.RPolled id ->
            let g = Graph.snapshot m.Migration.ti p in
            let g = if reachable then Graph.reachable_from_roots p g else g in
            if dot then print_string (Graph.to_dot g)
            else (
              Fmt.pr "suspended at poll #%d@." id;
              Fmt.pr "%a" Graph.pp g))
  in
  Cmd.v (Cmd.info "graph" ~doc:"print the MSR graph at a poll-point")
    Term.(const run $ file_arg $ after_arg $ dot_arg $ arch_arg $ reachable_arg $ no_lint_arg)

let cmd_compat =
  let format_arg =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"F" ~doc:"output format: text or json")
  in
  let arches_arg =
    Arg.(
      value & opt string ""
      & info [ "arches" ] ~docv:"A,B,..."
          ~doc:"restrict the matrix to these architectures (default: all)")
  in
  let run file strategy format arches no_lint =
    with_errors (fun () ->
        let m =
          Migration.prepare ~strategy:(strategy_of_string strategy)
            ~lint:(not no_lint) (read_input file)
        in
        let arches =
          match arches with
          | "" -> Hpm_arch.Arch.all
          | s -> List.map Hpm_arch.Arch.by_name_exn (String.split_on_char ',' s)
        in
        let c = Compat.create m.Migration.prog m.Migration.polls in
        match format with
        | "json" -> print_endline (Compat.render_json c ~arches ~workload:file ())
        | "text" -> print_string (Compat.render_text c ~arches ~workload:file ())
        | f -> failwith (Printf.sprintf "unknown format %S (text|json)" f))
  in
  Cmd.v
    (Cmd.info "compat"
       ~doc:
         "compute the arch-pair compatibility matrix: for every ordered \
          architecture pair and poll-point, whether the collected state \
          survives the trip (legal), survives with value-dependent hazards \
          (lossy), or provably cannot (illegal)")
    Term.(const run $ file_arg $ strategy_arg $ format_arg $ arches_arg $ no_lint_arg)

let cmd_stream =
  let after_arg =
    Arg.(value & opt int 0 & info [ "after-polls" ] ~docv:"K" ~doc:"suspend at the (K+1)-th poll event")
  in
  let arch_arg =
    Arg.(value & opt string "ultra5" & info [ "arch" ] ~docv:"A" ~doc:"architecture to run on")
  in
  let run file after archname no_lint =
    with_errors (fun () ->
        let arch = Hpm_arch.Arch.by_name_exn archname in
        let m = Migration.prepare ~lint:(not no_lint) (read_input file) in
        let p = Migration.start m arch in
        Hpm_machine.Interp.request_migration_after p after;
        match Hpm_machine.Interp.run p with
        | Hpm_machine.Interp.RDone _ ->
            Fmt.epr "process finished before reaching poll event %d@." after;
            exit 1
        | Hpm_machine.Interp.RFuel -> assert false
        | Hpm_machine.Interp.RPolled _ ->
            let data, _ = Collect.collect p m.Migration.ti in
            ignore (Inspect.dump m.Migration.prog m.Migration.ti data))
  in
  Cmd.v
    (Cmd.info "stream" ~doc:"collect at a poll-point and dump the decoded migration stream")
    Term.(const run $ file_arg $ after_arg $ arch_arg $ no_lint_arg)

(* the shared query CLI returns an exit code; fold it into this
   binary's unit-term convention *)
let cmd_query =
  Cmd.v Hpm_query.Qcli.info
    Term.(const (fun rc -> if rc <> 0 then Stdlib.exit rc) $ Hpm_query.Qcli.term)

let () =
  let doc = "pre-compiler for heterogeneous process migration" in
  exit (Cmd.eval (Cmd.group (Cmd.info "migratec" ~doc) [ cmd_check; cmd_lint; cmd_compat; cmd_ir; cmd_polls; cmd_source; cmd_annotate; cmd_graph; cmd_stream; cmd_query ]))
