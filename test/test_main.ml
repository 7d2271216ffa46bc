(* Test runner: one alcotest binary aggregating every module's suite. *)

let () =
  Alcotest.run "hpm"
    [
      ("endian", Test_endian.suite);
      ("arch", Test_arch.suite);
      ("layout", Test_layout.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("typecheck", Test_typecheck.suite);
      ("lang-ext", Test_lang_ext.suite);
      ("scopes", Test_scopes.suite);
      ("cfg", Test_cfg.suite);
      ("liveness", Test_liveness.suite);
      ("pollpoint", Test_pollpoint.suite);
      ("unsafe", Test_unsafe.suite);
      ("lint", Test_lint.suite);
      ("annotate", Test_annotate.suite);
      ("mem", Test_mem.suite);
      ("mem-index", Test_mem_index.suite);
      ("interp", Test_interp.suite);
      ("xdr", Test_xdr.suite);
      ("stream", Test_stream.suite);
      ("xdr-batch", Test_xdr_batch.suite);
      ("msr", Test_msr.suite);
      ("collect-restore", Test_collect_restore.suite);
      ("migration", Test_migration.suite);
      ("portability", Test_portability.suite);
      ("matrix", Test_matrix.suite);
      ("failure-injection", Test_failure.suite);
      ("transport", Test_transport.suite);
      ("handoff", Test_handoff.suite);
      ("inspect", Test_inspect.suite);
      ("fuzz", Test_fuzz.suite);
      ("netsim", Test_netsim.suite);
      ("sched", Test_sched.suite);
      ("store", Test_store.suite);
      ("replica", Test_replica.suite);
      ("precopy", Test_precopy.suite);
      ("obs", Test_obs.suite);
      ("workloads", Test_workloads.suite);
      ("bench-json", Test_bench_json.suite);
      ("paper", Test_paper.suite);
      ("query", Test_query.suite);
      ("cluster", Test_cluster.suite);
    ]
