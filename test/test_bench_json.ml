(** The BENCH_v1 document: schema shape and determinism.

    The bench gate in CI diffs a freshly generated document against the
    committed baseline (the newest [BENCH_000N.json]), which only works if (a) the
    schema is stable and (b) two runs of the same build emit identical
    bytes.  Both are pinned here on a single fast case; the full suite's
    coverage (workload × arch-pair grid) is checked structurally. *)

open Hpm_bench
open Util

let fast_case =
  match Bench_json.default_cases with
  | c :: _ -> c
  | [] -> Alcotest.fail "default suite is empty"

let entry = lazy (Bench_json.run_case fast_case)

let test_required_keys () =
  let j = Bench_json.to_json [ Lazy.force entry ] in
  List.iter
    (fun key ->
      check_bool (Printf.sprintf "key %s present" key) true
        (contains_sub j (Printf.sprintf "\"%s\"" key)))
    [
      "schema"; "version"; "entries"; "workload"; "n"; "poll"; "src_arch"; "dst_arch";
      "collect"; "model_s"; "searches"; "blocks"; "data_bytes"; "stream_bytes";
      "pointers"; "restore"; "updates"; "handoff"; "sim_s"; "delta"; "full_bytes";
      "incr_bytes"; "cache_hits"; "chunks_shipped"; "compat"; "polls"; "entries";
      "checks"; "illegal_pairs"; "lossy_pairs"; "replication"; "final_delta_bytes";
      "catchup_lag1_bytes"; "catchup_lag3_bytes"; "ship_sim_s";
    ];
  check_bool "schema tag" true (contains_sub j "\"schema\": \"BENCH_v1\"");
  check_bool "version field" true (contains_sub j "\"version\": 1")

let test_values_sane () =
  let e = Lazy.force entry in
  let nonneg name v = check_bool (name ^ " >= 0") true (v >= 0) in
  nonneg "searches" e.Bench_json.c_searches;
  nonneg "blocks" e.Bench_json.c_blocks;
  nonneg "data_bytes" e.Bench_json.c_data_bytes;
  nonneg "pointers" e.Bench_json.c_pointers;
  nonneg "updates" e.Bench_json.r_updates;
  nonneg "cache_hits" e.Bench_json.d_cache_hits;
  check_bool "the incremental epoch ships chunks" true (e.Bench_json.d_chunks_shipped > 0);
  check_bool "collect model time positive" true (e.Bench_json.c_model_s > 0.0);
  check_bool "restore model time positive" true (e.Bench_json.r_model_s > 0.0);
  check_bool "handoff simulated time positive" true (e.Bench_json.h_sim_s > 0.0);
  check_bool "stream at least as large as data" true
    (e.Bench_json.c_stream_bytes >= e.Bench_json.c_data_bytes);
  check_bool "incremental delta no larger than full" true
    (e.Bench_json.d_incr_bytes <= e.Bench_json.d_full_bytes);
  check_bool "handoff ships the collected stream" true
    (e.Bench_json.h_stream_bytes = e.Bench_json.c_stream_bytes);
  (* compat: the matrix analysed something, and the verdict census stays
     within the 64 ordered pairs *)
  check_bool "compat model time positive" true (e.Bench_json.p_model_s > 0.0);
  check_bool "compat summarized polls" true (e.Bench_json.p_polls > 0);
  check_bool "compat checked entries" true
    (e.Bench_json.p_checks >= e.Bench_json.p_entries);
  check_bool "verdict census bounded" true
    (e.Bench_json.p_illegal >= 0
    && e.Bench_json.p_lossy >= 0
    && e.Bench_json.p_illegal + e.Bench_json.p_lossy <= 64);
  (* replication: the planned-migration claim and the lag model *)
  check_bool "final delta well below the full state" true
    (e.Bench_json.rep_final_bytes > 0
    && e.Bench_json.rep_final_bytes < e.Bench_json.rep_full_bytes);
  check_bool "lag model monotone" true
    (e.Bench_json.rep_lag1_bytes <= e.Bench_json.rep_lag3_bytes);
  check_bool "lag-1 catch-up is the final delta" true
    (e.Bench_json.rep_lag1_bytes = e.Bench_json.rep_final_bytes);
  check_bool "replication ship time positive" true
    (e.Bench_json.rep_ship_s > 0.0)

let test_deterministic () =
  let j1 = Bench_json.to_json [ Bench_json.run_case fast_case ] in
  let j2 = Bench_json.to_json [ Bench_json.run_case fast_case ] in
  check_string "same-seed runs byte-identical" j1 j2

let test_suite_coverage () =
  (* the default grid: every workload appears with every arch pair, so a
     regression in any cell of the workload × pair matrix is gated *)
  let cases = Bench_json.default_cases in
  let workloads = [ "jacobi"; "hashtab"; "bitonic" ] in
  let pairs =
    List.sort_uniq compare
      (List.map
         (fun (c : Bench_json.case) ->
           (c.Bench_json.src.Hpm_arch.Arch.name, c.Bench_json.dst.Hpm_arch.Arch.name))
         cases)
  in
  check_int "three distinct arch pairs" 3 (List.length pairs);
  List.iter
    (fun w ->
      List.iter
        (fun (s, d) ->
          check_bool
            (Printf.sprintf "%s on %s->%s present" w s d)
            true
            (List.exists
               (fun (c : Bench_json.case) ->
                 String.equal c.Bench_json.w_name w
                 && String.equal c.Bench_json.src.Hpm_arch.Arch.name s
                 && String.equal c.Bench_json.dst.Hpm_arch.Arch.name d)
               cases))
        pairs)
    workloads;
  (* both endianness and width axes are exercised *)
  check_bool "endianness axis" true
    (List.exists
       (fun (c : Bench_json.case) ->
         c.Bench_json.src.Hpm_arch.Arch.endian <> c.Bench_json.dst.Hpm_arch.Arch.endian)
       cases);
  check_bool "ILP32/LP64 axis" true
    (List.exists
       (fun (c : Bench_json.case) ->
         c.Bench_json.src.Hpm_arch.Arch.long_size
         <> c.Bench_json.dst.Hpm_arch.Arch.long_size)
       cases)

let test_json_parses () =
  (* minimal well-formedness: balanced braces/brackets, no trailing comma *)
  let j = Bench_json.to_json [ Lazy.force entry ] in
  let depth = ref 0 and min_depth = ref 0 and in_str = ref false in
  String.iteri
    (fun i ch ->
      if !in_str then (if ch = '"' && j.[i - 1] <> '\\' then in_str := false)
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            min_depth := min !min_depth !depth
        | _ -> ())
    j;
  check_int "braces balanced" 0 !depth;
  check_int "never negative depth" 0 !min_depth;
  check_bool "no trailing comma" false (contains_sub j ",\n  ]")

let suite =
  [
    tc_slow "required keys and version" test_required_keys;
    tc_slow "values sane and non-negative" test_values_sane;
    tc_slow "two same-seed runs emit identical JSON" test_deterministic;
    tc "default grid covers workloads × arch pairs" test_suite_coverage;
    tc_slow "document is well-formed" test_json_parses;
  ]
