(* The distributed environment of §2: a scheduler managing processes on a
   small heterogeneous network, migrating them to balance load.

   Three machines (a fast x86_64, a Sparc 20, a slow DEC 5000) share a
   10 Mb/s Ethernet.  Six n-queens jobs all start on the slow DECstation;
   the load-balancing policy spreads them out, and the fastest-machine
   policy is shown for comparison against no policy at all.

     dune exec examples/load_balance.exe
*)

open Hpm_core
open Hpm_sched

let jobs = 6
let queens = 8

let run_policy name policy =
  let n1 = Sched.node "decbox" Hpm_arch.Arch.dec5000 in
  let n2 = Sched.node "sparcbox" Hpm_arch.Arch.sparc20 in
  let n3 = Sched.node "fastbox" Hpm_arch.Arch.x86_64 in
  let sim = Sched.create ~channel:(Hpm_net.Netsim.ethernet_10 ()) [ n1; n2; n3 ] in
  let m = Migration.prepare (Hpm_workloads.Nqueens.source queens) in
  let procs =
    List.init jobs (fun i -> Sched.spawn sim n1 (Printf.sprintf "queens-%d" i) m)
  in
  let _ticks = Sched.run ~policy sim in
  Fmt.pr "@.=== policy: %s ===@." name;
  List.iter (fun e -> Fmt.pr "%a@." Hpm_store.Journal.pp_entry e) (Sched.events sim);
  List.iter
    (fun p ->
      Fmt.pr "%s: output=%s migrations=%d finished at %.2fs on %s@."
        p.Sched.p_name
        (String.trim (Sched.output p))
        p.Sched.p_migrations
        (Option.value ~default:nan p.Sched.p_finish_time)
        p.Sched.p_node.Sched.n_name)
    procs;
  let makespan =
    List.fold_left
      (fun acc p -> max acc (Option.value ~default:nan p.Sched.p_finish_time))
      0. procs
  in
  Fmt.pr "makespan: %.2f simulated seconds@." makespan;
  makespan

let () =
  let none = run_policy "none (all jobs stay on the slow node)" (fun _ -> ()) in
  let lb = run_policy "load-balance" Sched.load_balance in
  Fmt.pr "@.migration speedup from load balancing: %.2fx@." (none /. lb)
