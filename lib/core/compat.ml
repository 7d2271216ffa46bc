(** Compatibility-set artifacts.

    Wraps {!Hpm_ir.Portability} for a prepared migratable program and
    renders the (arch-pair x poll) -> Legal/Lossy/Illegal matrix as text
    or as the versioned COMPAT_v1 JSON document CI consumes.  Output is
    byte-deterministic: arches appear in catalog order, polls in table
    order, diagnostics in emission order.

    The same object answers the scheduler's placement question
    ({!ok}: is the ordered pair free of hard incompatibilities at every
    poll?) and {!Hpm_core.Migration.prepare}'s [?require_compat] gate,
    so the artifact, the gate, and placement can never disagree. *)

open Hpm_arch
open Hpm_ir
module Json = Hpm_obs.Json

type t = {
  analysis : Portability.t;
  mutable cache : ((string * string) * Portability.pair_report) list;
}

let create (prog : Ir.prog) (polls : Pollpoint.table) : t =
  { analysis = Portability.create prog polls; cache = [] }

let pair (t : t) ~(src : Arch.t) ~(dst : Arch.t) : Portability.pair_report =
  let key = (src.Arch.name, dst.Arch.name) in
  match List.assoc_opt key t.cache with
  | Some r -> r
  | None ->
      let r = Portability.analyze_pair t.analysis ~src ~dst in
      t.cache <- (key, r) :: t.cache;
      r

let verdict (t : t) ~src ~dst : Portability.verdict =
  (pair t ~src ~dst).Portability.p_verdict

(** Placement predicate: may a process suspended at {e any} poll move
    [src] -> [dst]?  Lossy pairs pass — they migrate, with warnings. *)
let ok (t : t) ~src ~dst = verdict t ~src ~dst <> Portability.Illegal

let matrix (t : t) (arches : Arch.t list) : Portability.pair_report list =
  List.concat_map
    (fun src -> List.map (fun dst -> pair t ~src ~dst) arches)
    arches

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let verdict_cell = function
  | Portability.Legal -> "L"
  | Portability.Lossy -> "~"
  | Portability.Illegal -> "X"

(** Text matrix: one row per source arch, one column per destination,
    [L]egal / [~] lossy / [X] illegal; then the per-poll findings of
    every non-Legal pair. *)
let render_text (t : t) ?(arches = Arch.all) ~workload () : string =
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let reports = matrix t arches in
  let width =
    List.fold_left (fun w (a : Arch.t) -> max w (String.length a.Arch.name)) 1 arches
  in
  add "compatibility matrix for %s (L legal, ~ lossy, X illegal)\n" workload;
  add "%*s" (width + 2) "";
  List.iteri (fun i (_ : Arch.t) -> add "%s%d" (if i = 0 then "" else " ") i) arches;
  add "\n";
  List.iteri
    (fun i (src : Arch.t) ->
      add "%d %*s" i width src.Arch.name;
      List.iter
        (fun (dst : Arch.t) ->
          add " %s" (verdict_cell (verdict t ~src ~dst)))
        arches;
      add "\n")
    arches;
  let flagged =
    List.filter (fun r -> r.Portability.p_verdict <> Portability.Legal) reports
  in
  if flagged <> [] then add "\n";
  List.iter
    (fun (r : Portability.pair_report) ->
      add "%s -> %s: %s\n" r.Portability.p_src.Arch.name
        r.Portability.p_dst.Arch.name
        (Portability.verdict_to_string r.Portability.p_verdict);
      List.iter
        (fun (pr : Portability.poll_report) ->
          List.iter
            (fun d -> add "  %s\n" (Fmt.str "%a" Diag.pp d))
            pr.Portability.r_diags)
        r.Portability.p_polls)
    flagged;
  Buffer.contents buf

(** COMPAT_v1 JSON: the machine-readable artifact.
    [{"compat_version":1,"workload":...,"arches":[...],"pairs":[
       {"src":...,"dst":...,"verdict":...,"polls":[
         {"poll":id,"verdict":...,"diags":[...]}]}]}] *)
let render_json (t : t) ?(arches = Arch.all) ~workload () : string =
  let buf = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  add {|{"compat_version":1,"workload":%s,"arches":[%s],"pairs":[|}
    (Json.str workload)
    (String.concat "," (List.map (fun (a : Arch.t) -> Json.str a.Arch.name) arches));
  List.iteri
    (fun i (r : Portability.pair_report) ->
      if i > 0 then add ",";
      add {|{"src":%s,"dst":%s,"verdict":%s,"polls":[|}
        (Json.str r.Portability.p_src.Arch.name)
        (Json.str r.Portability.p_dst.Arch.name)
        (Json.str (Portability.verdict_to_string r.Portability.p_verdict));
      List.iteri
        (fun j (pr : Portability.poll_report) ->
          if j > 0 then add ",";
          add {|{"poll":%d,"verdict":%s,"diags":[%s]}|}
            pr.Portability.r_poll.Pollpoint.id
            (Json.str (Portability.verdict_to_string pr.Portability.r_verdict))
            (String.concat "," (List.map Diag.to_json_one pr.Portability.r_diags)))
        r.Portability.p_polls;
      add "]}")
    (matrix t arches);
  add "]}";
  Buffer.contents buf
