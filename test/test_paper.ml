(** The verdicts of `bench paper`, on synthetic records.

    {!Hpm_bench.Paper.claims} is a pure function of the records, so each
    paper claim is checked here against hand-made numbers without timing
    anything: a healthy set meets every claim, and each broken input
    fails exactly the claim that names it. *)

open Hpm_bench
open Util
module W = Hpm_workloads

let record ?same_output ~blocks ~searches ~data_bytes ~collect ~restore workload n =
  {
    Paper.workload; n; poll = 0; blocks; data_bytes; stream_bytes = data_bytes;
    frames = 1; searches; updates = blocks; heap_allocs = 0; tx_s = 0.0;
    collect_s = Array.make 5 collect; restore_s = Array.make 5 restore; same_output;
  }

(* 9 matrix blocks at [ns] ns per byte for each order *)
let linpack ?(blocks = fun _ -> 9) ?(ns = fun _ -> 0.3) () =
  List.map
    (fun n ->
      let bytes = 8 * n * n in
      let t = ns n *. float_of_int bytes *. 1e-9 in
      record ~blocks:(blocks n) ~searches:2 ~data_bytes:bytes ~collect:t ~restore:t
        W.Linpack.name n)
    W.Linpack.fig2a_sizes

(* one block per three numbers sorted; [ratios] are collect/restore per size *)
let bitonic ratios =
  List.map2
    (fun n r ->
      let blocks = n / 3 in
      record ~blocks ~searches:(blocks - 7) ~data_bytes:(12 * blocks) ~collect:(r *. 1e-3)
        ~restore:1e-3 W.Bitonic.name n)
    W.Bitonic.fig2b_sizes ratios

let hetero ?(wrong = "") () =
  List.map
    (fun (w : W.Registry.t) ->
      record
        ~same_output:(not (String.equal w.W.Registry.name wrong))
        ~blocks:3 ~searches:1 ~data_bytes:64 ~collect:1e-5 ~restore:1e-5 w.W.Registry.name
        w.W.Registry.default_n)
    W.Registry.all

let widening = [ 1.1; 1.2; 1.3; 1.4; 1.5; 1.6 ]

let paper ?(hetero = hetero ()) ?(linpack = linpack ()) ?(bitonic = bitonic widening) () =
  {
    Paper.hetero; linpack; bitonic;
    listops =
      record ~blocks:1049 ~searches:2091 ~data_bytes:12584 ~collect:1e-3 ~restore:1e-3
        W.Listops.name 2000;
  }

let verdict t prefix =
  match
    List.find_opt (fun c -> String.starts_with ~prefix c.Paper.what) (Paper.claims t)
  with
  | Some c -> c.Paper.met
  | None -> Alcotest.failf "no claim starts with %S" prefix

let test_healthy_set_meets_every_claim () =
  let t = paper () in
  List.iter
    (fun c -> check_bool c.Paper.what true c.Paper.met)
    (Paper.claims t);
  check_int "exit status" 0 (Paper.status (Paper.claims t))

(* Restore dearer than collect at every n, with the ratio still growing
   0.58 -> 0.88: a check that asked only for a growing ratio called this
   ok. *)
let test_fig2b_restore_dearer_is_not_met () =
  let t = paper ~bitonic:(bitonic [ 0.58; 0.49; 0.67; 0.44; 0.75; 0.88 ]) () in
  check_bool "collect dearer and widening" false (verdict t "Fig. 2(b): collection costs");
  check_int "a timed claim does not set the exit status" 0 (Paper.status (Paper.claims t));
  (* collect dearer at every n >= 10 000 but the gap narrowing *)
  let t = paper ~bitonic:(bitonic [ 1.0; 1.0; 1.6; 1.5; 1.4; 1.3 ]) () in
  check_bool "a narrowing gap" false (verdict t "Fig. 2(b): collection costs");
  (* below 10 000 the ratio is not judged *)
  let t = paper ~bitonic:(bitonic [ 0.5; 0.5; 1.1; 1.2; 1.3; 1.4 ]) () in
  check_bool "small sizes ignored" true (verdict t "Fig. 2(b): collection costs")

let test_fig2a_varying_nodes_fails () =
  let t = paper ~linpack:(linpack ~blocks:(fun n -> if n = 800 then 10 else 9) ()) () in
  check_bool "node count claim" false (verdict t "Fig. 2(a): the number of MSR nodes");
  check_int "exit status" 1 (Paper.status (Paper.claims t))

let test_fig2a_per_byte_bound () =
  let t = paper ~linpack:(linpack ~ns:(fun n -> if n = 600 then 0.61 else 0.3) ()) () in
  check_bool "2.03x breaks the 2x bound" false (verdict t "Fig. 2(a): collection time");
  check_int "reported only" 0 (Paper.status (Paper.claims t));
  let t = paper ~linpack:(linpack ~ns:(fun n -> if n = 600 then 0.59 else 0.3) ()) () in
  check_bool "1.97x is within it" true (verdict t "Fig. 2(a): collection time")

let test_hetero_mismatch_fails () =
  let t = paper ~hetero:(hetero ~wrong:"listops" ()) () in
  check_bool "§4.1 claim" false (verdict t "§4.1");
  check_int "exit status" 1 (Paper.status (Paper.claims t))

let test_table1_and_searches () =
  let t = paper ~linpack:(linpack ~blocks:(fun _ -> 64) ()) () in
  check_bool "64 linpack blocks are not few" false (verdict t "Table 1: linpack");
  let flat = List.map (fun r -> { r with Paper.searches = 100 }) (bitonic widening) in
  let t = paper ~bitonic:flat () in
  check_bool "flat bitonic searches" false (verdict t "§4.2");
  check_int "exit status" 1 (Paper.status (Paper.claims t))

let suite =
  [
    Alcotest.test_case "a healthy record set meets every claim" `Quick
      test_healthy_set_meets_every_claim;
    Alcotest.test_case "fig2b: restore dearer than collect is NOT MET" `Quick
      test_fig2b_restore_dearer_is_not_met;
    Alcotest.test_case "fig2a: a varying node count fails the exit" `Quick
      test_fig2a_varying_nodes_fails;
    Alcotest.test_case "fig2a: per-byte cost bound is 2x" `Quick test_fig2a_per_byte_bound;
    Alcotest.test_case "4.1: an output mismatch fails the exit" `Quick
      test_hetero_mismatch_fails;
    Alcotest.test_case "table1 and 4.2 counter claims" `Quick test_table1_and_searches;
  ]
