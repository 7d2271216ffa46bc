(** Poll-point selection and insertion — the heart of the pre-compiler.

    Following §2 of the paper: the pre-compiler selects source locations
    where migration may occur, inserts a polling macro at each (here: an
    {!Ir.Ipoll} instruction), and records the live variables whose values
    are needed beyond each poll-point.  Users may also place poll-points
    by hand with [#pragma poll NAME]; those were already lowered by
    {!Compile} and are renumbered and folded into the table here.

    Insertion is deterministic (strategy + program → same ids on every
    machine), which is what lets the source and destination processes of a
    migration agree on where "poll-point 7" is.

    The [hot_threshold] knob implements the §4.3 guidance: polling inside
    a small, frequently-invoked kernel dominates execution overhead, so
    the automatic strategy can skip functions whose body is smaller than a
    threshold (they are reached via their callers' polls anyway). *)

type kind =
  | Kuser of string  (** [#pragma poll NAME] *)
  | Kloop            (** natural-loop header *)
  | Kentry           (** function entry *)

type strategy = {
  loop_headers : bool;     (** poll at every natural-loop header *)
  fn_entries : bool;       (** poll at every function entry *)
  only_funcs : string list option;
      (** restrict automatic insertion to these functions *)
  hot_threshold : int;
      (** skip automatic polls in functions with fewer IR instructions
          than this (0 disables the heuristic) *)
  max_loop_depth : int;
      (** skip loop-header polls at nesting depth greater than this
          (inner kernels); 0 means no limit *)
}

(** The paper's default: poll wherever execution returns repeatedly, but
    stay out of innermost kernels. *)
let default_strategy =
  { loop_headers = true; fn_entries = true; only_funcs = None; hot_threshold = 0; max_loop_depth = 0 }

(** Aggressive placement — every loop header at any depth and every
    function entry.  Used by the overhead experiment as the worst case. *)
let aggressive_strategy = default_strategy

(** Conservative placement: outermost loops only, no tiny functions. *)
let outer_loops_strategy =
  { loop_headers = true; fn_entries = true; only_funcs = None; hot_threshold = 8; max_loop_depth = 1 }

(** No automatic polls at all; only user pragmas remain. *)
let user_only_strategy =
  { loop_headers = false; fn_entries = false; only_funcs = None; hot_threshold = 0; max_loop_depth = 0 }

type info = {
  id : int;
  fn : string;
  block : int;           (** block index after insertion *)
  index : int;           (** instruction index of the Ipoll after insertion *)
  kind : kind;
  live : string list;    (** variables needed beyond this poll-point, sorted *)
}

type table = {
  polls : info list;
  strategy : strategy;
  live : (string, Liveness.t) Hashtbl.t;
      (** each function's liveness on the post-insertion IR, by name:
          computed once here, read by every later pass *)
}

(** The liveness of one of the program's functions.
    @raise Invalid_argument when the program has no function of that
    name. *)
let live t (f : Ir.func) : Liveness.t =
  match Hashtbl.find_opt t.live f.Ir.name with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Pollpoint.live: no function %s" f.Ir.name)

let find t id = List.find_opt (fun p -> p.id = id) t.polls

let find_exn t id =
  match find t id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Pollpoint.find_exn: no poll #%d" id)

let pp_kind ppf = function
  | Kuser name -> Fmt.pf ppf "user:%s" name
  | Kloop -> Fmt.string ppf "loop-header"
  | Kentry -> Fmt.string ppf "fn-entry"

let pp_info ppf p =
  Fmt.pf ppf "poll #%d at %s B%d.%d (%a) live={%a}" p.id p.fn p.block p.index
    pp_kind p.kind
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    p.live

(* Insert an instruction at the head of a block, in place, keeping the
   parallel source-location array aligned: the poll inherits the location
   of the instruction it now precedes (the loop-body or function head). *)
let insert_at_head (b : Ir.block) (ins : Ir.instr) =
  let loc = Ir.instr_loc b 0 in
  b.Ir.instrs <- Array.append [| ins |] b.Ir.instrs;
  b.Ir.locs <- Array.append [| loc |] b.Ir.locs

(** Insert poll-points per [strategy] into [prog] (mutating block
    instruction arrays), then run liveness once per function and build
    the poll table.
    [user_polls] are the (id, name) pairs returned by {!Compile.lower};
    automatic polls get fresh ids above them. *)
let insert (prog : Ir.prog) (user_polls : (int * string) list) (strategy : strategy) : table
    =
  let next_id = ref (List.fold_left (fun m (i, _) -> max m (i + 1)) 0 user_polls) in
  let wants_fn (f : Ir.func) =
    (match strategy.only_funcs with
    | Some names -> List.mem f.Ir.name names
    | None -> true)
    && (strategy.hot_threshold = 0 || Cfg.instr_count f >= strategy.hot_threshold)
  in
  (* 1. insert automatic polls *)
  List.iter
    (fun (f : Ir.func) ->
      if wants_fn f then (
        let depth = Cfg.loop_depth f in
        if strategy.loop_headers then
          List.iter
            (fun h ->
              if strategy.max_loop_depth = 0 || depth.(h) <= strategy.max_loop_depth
              then (
                let has_poll =
                  Array.exists
                    (function Ir.Ipoll _ -> true | _ -> false)
                    f.Ir.blocks.(h).Ir.instrs
                in
                if not has_poll then (
                  insert_at_head f.Ir.blocks.(h) (Ir.Ipoll !next_id);
                  incr next_id)))
            (Cfg.loop_headers f);
        if strategy.fn_entries then (
          let entry = f.Ir.blocks.(f.Ir.entry) in
          let has_poll =
            Array.exists (function Ir.Ipoll _ -> true | _ -> false) entry.Ir.instrs
          in
          if not has_poll then (
            insert_at_head entry (Ir.Ipoll !next_id);
            incr next_id))))
    prog.Ir.funcs;
  (* 2. build the table with live sets *)
  let polls = ref [] in
  let lives = Hashtbl.create (List.length prog.Ir.funcs) in
  List.iter
    (fun (f : Ir.func) ->
      let live = Liveness.analyze f in
      Hashtbl.replace lives f.Ir.name live;
      Array.iteri
        (fun bi (b : Ir.block) ->
          Array.iteri
            (fun ii ins ->
              match ins with
              | Ir.Ipoll id ->
                  let kind =
                    match List.assoc_opt id user_polls with
                    | Some name -> Kuser name
                    | None ->
                        if ii = 0 && bi = f.Ir.entry then Kentry
                        else if List.mem bi (Cfg.loop_headers f) then Kloop
                        else Kentry
                  in
                  polls :=
                    {
                      id;
                      fn = f.Ir.name;
                      block = bi;
                      index = ii;
                      kind;
                      live =
                        Liveness.to_sorted_list
                          (Liveness.live_after live ~block:bi ~index:ii);
                    }
                    :: !polls
              | _ -> ())
            b.Ir.instrs)
        f.Ir.blocks)
    prog.Ir.funcs;
  { polls = List.sort (fun a b -> compare a.id b.id) !polls; strategy; live = lives }

(** Number of poll-points in each function, for reports. *)
let per_function t =
  List.fold_left
    (fun acc p ->
      let n = try List.assoc p.fn acc with Not_found -> 0 in
      (p.fn, n + 1) :: List.remove_assoc p.fn acc)
    [] t.polls
  |> List.sort compare
