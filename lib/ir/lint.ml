(** Flow-sensitive migratability lint.

    The {!Unsafe} scan rejects features that *cannot* migrate; this pass
    finds programs that would migrate *wrongly*.  The paper's collection
    protocol saves, at a poll-point, exactly the live variables
    ([Save_variable]) and chases every live pointer depth-first
    ([Save_pointer]).  That protocol is only meaningful when the saved
    values are meaningful:

    - a possibly-uninitialized scalar live at a poll-point would ship one
      machine's stack garbage to another ([HPM-E101]);
    - a possibly-uninitialized (wild) pointer would send [Save_pointer]
      chasing a garbage address ([HPM-E103]);
    - a pointer to freed memory would make the MSR traversal collect a
      dangling block ([HPM-E102]);
    - freeing an already-freed pointer corrupts the allocator on any
      machine ([HPM-W104]);
    - a store whose value is never read is never worth saving
      ([HPM-W105]).

    All three analyses are instances of the generic {!Dataflow} engine,
    sharing the CFG and the use/def extraction of {!Liveness}.  A
    suspension point is an {!Ir.Ipoll} or a call that may transitively
    reach one; checks fire only where a bad value is *live* at such a
    point, which is what keeps the lint quiet on correct programs (a
    variable initialized on every path to every use is never flagged,
    wherever it is declared).

    Known imprecision (documented, deliberate): there is no alias
    tracking, so freeing [q] after [p = q] marks only [q] freed — a
    false negative, never a false positive.  Arrays and structs are
    exempt from the uninitialized check because element-wise
    initialization inside a polled loop is the *normal* idiom (the array
    is partially garbage at the loop-header poll of its own fill loop,
    and restoring garbage bytes it will overwrite anyway is harmless). *)

open Hpm_lang
module Json = Hpm_obs.Json
module SS = Liveness.SS
module SM = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Shared structural helpers                                           *)
(* ------------------------------------------------------------------ *)

let rec lv_base = function
  | Ir.Lvar v -> Some v
  | Ir.Lindex (b, _, _) | Ir.Lfield (b, _, _, _) -> lv_base b
  | Ir.Lmem _ -> None

(* Variables whose address is taken somewhere inside [rv] / [lv].  An
   address-taken variable may be written through the alias, so both the
   uninitialized and the pointer-state analysis give up on it (assume
   initialized / unknown) rather than risk a false positive. *)
let rec addr_bases acc (rv : Ir.rv) =
  match rv with
  | Ir.Rconst _ | Ir.Rsizeof _ | Ir.Rfunc _ -> acc
  | Ir.Rload (lv, _) -> addr_bases_lv acc lv
  | Ir.Raddr (lv, _) -> (
      let acc = addr_bases_lv acc lv in
      match lv_base lv with Some v -> SS.add v acc | None -> acc)
  | Ir.Runop (_, a, _) -> addr_bases acc a
  | Ir.Rbinop (_, a, b, _) -> addr_bases (addr_bases acc a) b
  | Ir.Rcast (_, a) -> addr_bases acc a

and addr_bases_lv acc (lv : Ir.lv) =
  match lv with
  | Ir.Lvar _ -> acc
  | Ir.Lmem (rv, _) -> addr_bases acc rv
  | Ir.Lindex (b, i, _) -> addr_bases_lv (addr_bases acc i) b
  | Ir.Lfield (b, _, _, _) -> addr_bases_lv acc b

let instr_addr_bases (ins : Ir.instr) : SS.t =
  match ins with
  | Ir.Iassign (lv, rv) -> addr_bases (addr_bases_lv SS.empty lv) rv
  | Ir.Icopy (d, s, _) -> addr_bases_lv (addr_bases_lv SS.empty s) d
  | Ir.Icall (dst, callee, args) ->
      let acc = List.fold_left addr_bases SS.empty args in
      let acc = match callee with Ir.Cptr rv -> addr_bases acc rv | _ -> acc in
      (match dst with Some lv -> addr_bases_lv acc lv | None -> acc)
  | Ir.Imalloc (d, _, n) -> addr_bases (addr_bases_lv SS.empty d) n
  | Ir.Ifree rv -> addr_bases SS.empty rv
  | Ir.Ipoll _ -> SS.empty

(* Compiler temps ($0, $1, …) are always defined before use by
   construction; they are never reported. *)
let is_named v = String.length v > 0 && v.[0] <> '$'

(* ------------------------------------------------------------------ *)
(* Analysis 1: possibly-uninitialized variables (forward, may)         *)
(* ------------------------------------------------------------------ *)

(* Fact: the set of variables that may still hold their declaration-time
   garbage.  Locals start uninitialized; any write whose base is the
   variable — full or partial — initializes it, as does taking its
   address (the alias may fill it; assuming so avoids false positives,
   at the price of missing e.g. a pointer passed to a function that
   never writes it). *)
let inits_of_instr (ins : Ir.instr) : SS.t =
  let written =
    match ins with
    | Ir.Iassign (lv, _) | Ir.Icopy (lv, _, _) | Ir.Imalloc (lv, _, _)
    | Ir.Icall (Some lv, _, _) -> (
        match lv_base lv with Some v -> SS.singleton v | None -> SS.empty)
    | Ir.Icall (None, _, _) | Ir.Ifree _ | Ir.Ipoll _ -> SS.empty
  in
  SS.union written (instr_addr_bases ins)

module UninitFlow = Dataflow.Make (struct
  module L = struct
    type t = SS.t

    let bottom = SS.empty
    let equal = SS.equal
    let join = SS.union
  end

  let direction = Dataflow.Forward

  (* Parameters arrive initialized by the caller; locals (including
     temps) do not. *)
  let boundary (fn : Ir.func) = SS.of_list (List.map fst fn.Ir.locals)
  let transfer_instr _ ins fact = SS.diff fact (inits_of_instr ins)
  let transfer_term _ _ fact = fact
  let transfer_edge _ _ ~succ:_ fact = fact
end)

(* Read-before-init (backward, may): is there a path on which [v]'s
   *content* is read before anything initializes it?  This differs from
   {!Liveness} exactly on address-taking: [&x] keeps [x] in the save set
   (so it matters for pointer checks — [Save_pointer] chases the value
   during collection), but it does not *read* [x], and passing [&x] to a
   callee counts as initializing.  A scalar that is garbage at a poll but
   overwritten before every read migrates harmlessly, so [HPM-E101]
   requires read-before-init, not mere liveness. *)
let rec reads_rv acc (rv : Ir.rv) =
  match rv with
  | Ir.Rconst _ | Ir.Rsizeof _ | Ir.Rfunc _ -> acc
  | Ir.Rload (lv, _) -> reads_lv_read acc lv
  | Ir.Raddr (lv, _) -> reads_lv_addr acc lv
  | Ir.Runop (_, a, _) -> reads_rv acc a
  | Ir.Rbinop (_, a, b, _) -> reads_rv (reads_rv acc a) b
  | Ir.Rcast (_, a) -> reads_rv acc a

and reads_lv_read acc (lv : Ir.lv) =
  match lv with
  | Ir.Lvar v -> SS.add v acc
  | Ir.Lmem (rv, _) -> reads_rv acc rv
  | Ir.Lindex (b, i, _) -> reads_lv_read (reads_rv acc i) b
  | Ir.Lfield (b, _, _, _) -> reads_lv_read acc b

(* [&lv]: the base's content is not read; index expressions — and the
   pointer itself when taking the address of a dereference — are. *)
and reads_lv_addr acc (lv : Ir.lv) =
  match lv with
  | Ir.Lvar _ -> acc
  | Ir.Lmem (rv, _) -> reads_rv acc rv
  | Ir.Lindex (b, i, _) -> reads_lv_addr (reads_rv acc i) b
  | Ir.Lfield (b, _, _, _) -> reads_lv_addr acc b

let reads_lv_write acc (lv : Ir.lv) =
  match lv with
  | Ir.Lvar _ -> acc
  | Ir.Lmem (rv, _) -> reads_rv acc rv
  | Ir.Lindex (b, i, _) -> reads_lv_read (reads_rv acc i) b
  | Ir.Lfield (b, _, _, _) -> reads_lv_read acc b

let instr_reads (ins : Ir.instr) : SS.t =
  match ins with
  | Ir.Iassign (lv, rv) -> reads_lv_write (reads_rv SS.empty rv) lv
  | Ir.Icopy (d, s, _) -> reads_lv_write (reads_lv_read SS.empty s) d
  | Ir.Icall (dst, callee, args) ->
      let acc = List.fold_left reads_rv SS.empty args in
      let acc = match callee with Ir.Cptr rv -> reads_rv acc rv | _ -> acc in
      (match dst with Some lv -> reads_lv_write acc lv | None -> acc)
  | Ir.Imalloc (dst, _, n) -> reads_lv_write (reads_rv SS.empty n) dst
  | Ir.Ifree rv -> reads_rv SS.empty rv
  | Ir.Ipoll _ -> SS.empty

module ReadFlow = Dataflow.Make (struct
  module L = struct
    type t = SS.t

    let bottom = SS.empty
    let equal = SS.equal
    let join = SS.union
  end

  let direction = Dataflow.Backward
  let boundary _ = SS.empty

  let transfer_instr _ ins fact =
    SS.union (SS.diff fact (inits_of_instr ins)) (instr_reads ins)

  let transfer_term _ t fact = SS.union fact (Liveness.term_uses t)
  let transfer_edge _ _ ~succ:_ fact = fact
end)

(* ------------------------------------------------------------------ *)
(* Analysis 2: pointer state (forward, may)                            *)
(* ------------------------------------------------------------------ *)

(* Per pointer-typed variable, the *set* of states it may be in, as a
   bitmask.  [p_unknown] = valid-or-null, the state of anything we
   cannot see the provenance of. *)
let p_uninit = 1
let p_null = 2
let p_valid = 4
let p_freed = 8
let p_unknown = p_null lor p_valid

let rv_is_ptr = function
  | Ir.Rload (_, ty) | Ir.Raddr (_, ty) | Ir.Runop (_, _, ty)
  | Ir.Rbinop (_, _, _, ty) ->
      Ty.is_pointer ty
  | Ir.Rcast (ty, _) -> Ty.is_pointer ty
  | Ir.Rconst (Ir.Knull _) -> true
  | Ir.Rconst (Ir.Kstr _) -> true
  | Ir.Rconst _ | Ir.Rsizeof _ -> false
  | Ir.Rfunc _ -> true

let pstate_of fact v =
  match SM.find_opt v fact with Some s -> s | None -> p_unknown

(* Abstract evaluation of a pointer-valued rvalue.  Pointer arithmetic
   keeps the state of the pointer operand (offsetting a freed pointer is
   still freed); loads from memory and anything else opaque are
   [p_unknown]. *)
let rec eval_ptr fact (rv : Ir.rv) : int =
  match rv with
  | Ir.Rconst (Ir.Knull _) -> p_null
  | Ir.Rconst _ -> p_valid (* Kstr: address of a string-table global *)
  | Ir.Rfunc _ -> p_valid
  | Ir.Raddr _ -> p_valid
  | Ir.Rload (Ir.Lvar v, ty) when Ty.is_pointer ty -> pstate_of fact v
  | Ir.Rload _ -> p_unknown
  | Ir.Rcast (_, a) -> eval_ptr fact a
  | Ir.Rbinop (_, a, b, ty) when Ty.is_pointer ty -> (
      match (rv_is_ptr a, rv_is_ptr b) with
      | true, true -> eval_ptr fact a lor eval_ptr fact b
      | true, false -> eval_ptr fact a
      | false, true -> eval_ptr fact b
      | false, false -> p_unknown)
  | Ir.Rbinop _ | Ir.Runop _ | Ir.Rsizeof _ -> p_unknown

(* The named pointer variable a [free] argument stems from, looking
   through casts and pointer arithmetic.  [None] for anything loaded
   from memory — those frees are not tracked. *)
let rec free_root (rv : Ir.rv) : string option =
  match rv with
  | Ir.Rload (Ir.Lvar v, ty) when Ty.is_pointer ty -> Some v
  | Ir.Rcast (_, a) -> free_root a
  | Ir.Rbinop (_, a, b, ty) when Ty.is_pointer ty -> (
      match (if rv_is_ptr a then free_root a else None) with
      | Some v -> Some v
      | None -> if rv_is_ptr b then free_root b else None)
  | _ -> None

module PtrFlow = Dataflow.Make (struct
  module L = struct
    type t = int SM.t

    let bottom = SM.empty
    let equal = SM.equal Int.equal
    let join = SM.union (fun _ a b -> Some (a lor b))
  end

  let direction = Dataflow.Forward

  let boundary (fn : Ir.func) =
    let add init m (v, ty) = if Ty.is_pointer ty then SM.add v init m else m in
    let m = List.fold_left (add p_unknown) SM.empty fn.Ir.params in
    List.fold_left (add p_uninit) m fn.Ir.locals

  let transfer_instr _ ins fact =
    (* address-taken pointers escape: writes through the alias are
       invisible, so their state degrades to unknown *)
    let fact =
      SS.fold
        (fun v fact -> if SM.mem v fact then SM.add v p_unknown fact else fact)
        (instr_addr_bases ins) fact
    in
    match ins with
    | Ir.Imalloc (Ir.Lvar v, _, _) when SM.mem v fact -> SM.add v p_valid fact
    | Ir.Iassign (Ir.Lvar v, rv) when SM.mem v fact ->
        SM.add v (eval_ptr fact rv) fact
    | Ir.Icall (Some (Ir.Lvar v), _, _) when SM.mem v fact ->
        SM.add v p_unknown fact
    | Ir.Ifree rv -> (
        match free_root rv with
        | Some v when SM.mem v fact -> SM.add v p_freed fact
        | _ -> fact)
    | _ -> fact

  let transfer_term _ _ fact = fact
  let transfer_edge _ _ ~succ:_ fact = fact
end)

(* ------------------------------------------------------------------ *)
(* Suspension points                                                   *)
(* ------------------------------------------------------------------ *)

let has_poll (f : Ir.func) =
  Array.exists
    (fun (b : Ir.block) ->
      Array.exists (function Ir.Ipoll _ -> true | _ -> false) b.Ir.instrs)
    f.Ir.blocks

(** Functions that may suspend: those containing a poll-point, closed
    under "calls one".  An indirect call may reach any function, so it
    may suspend as soon as the program has any poll at all. *)
let may_poll_funcs (prog : Ir.prog) : SS.t =
  let any_poll = List.exists has_poll prog.Ir.funcs in
  let may =
    ref
      (SS.of_list
         (List.filter_map
            (fun (f : Ir.func) -> if has_poll f then Some f.Ir.name else None)
            prog.Ir.funcs))
  in
  let calls_may (f : Ir.func) =
    Array.exists
      (fun (b : Ir.block) ->
        Array.exists
          (function
            | Ir.Icall (_, Ir.Cfun g, _) -> SS.mem g !may
            | Ir.Icall (_, Ir.Cptr _, _) -> any_poll
            | _ -> false)
          b.Ir.instrs)
      f.Ir.blocks
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ir.func) ->
        if (not (SS.mem f.Ir.name !may)) && calls_may f then (
          may := SS.add f.Ir.name !may;
          changed := true))
      prog.Ir.funcs
  done;
  !may

let callee_may_suspend (may : SS.t) ~any_poll = function
  | Ir.Cfun g -> SS.mem g may
  | Ir.Cptr _ -> any_poll
  | Ir.Cbuiltin _ -> false

(** Source location for a diagnostic anchored at [block]/[index].
    Automatic loop-header polls land in synthesized empty blocks with no
    location of their own; borrow the first located instruction
    downstream (the loop body). *)
let loc_at (fn : Ir.func) ~block ~index : Ast.loc =
  let loc = Ir.instr_loc fn.Ir.blocks.(block) index in
  if loc <> Ast.no_loc then loc
  else
    let visited = Hashtbl.create 8 in
    let rec scan bi from =
      if Hashtbl.mem visited bi then None
      else (
        Hashtbl.add visited bi ();
        let b = fn.Ir.blocks.(bi) in
        let n = Array.length b.Ir.instrs in
        let rec go i =
          if i >= n then None
          else
            let l = Ir.instr_loc b i in
            if l <> Ast.no_loc then Some l else go (i + 1)
        in
        match go from with
        | Some l -> Some l
        | None -> List.find_map (fun s -> scan s 0) (Cfg.successors b.Ir.term))
    in
    match scan block index with Some l -> l | None -> Ast.no_loc

(* ------------------------------------------------------------------ *)
(* The checks                                                          *)
(* ------------------------------------------------------------------ *)

let check_fn (prog : Ir.prog) (polls : Pollpoint.table) (may : SS.t) ~any_poll
    (fn : Ir.func) : Diag.t list =
  let live = Pollpoint.live polls fn in
  let uninit = UninitFlow.solve fn in
  let pstate = PtrFlow.solve fn in
  let reads = ReadFlow.solve fn in
  let var_ty v = Ir.var_ty fn prog v in
  let acc = ref [] in
  let add d = acc := d :: !acc in
  (* One suspension point: [liveset] must survive migration with facts
     [fact_u]/[fact_p] in force.  A garbage non-pointer scalar is only
     harmful if some path reads it before initializing it ([fact_r]); a
     garbage or dangling *pointer* is harmful merely by being in the
     save set, because the collection traversal dereferences it.
     Uninitialized wins over dangling when a pointer is both (it was
     never anything else). *)
  let check_suspension ~loc ~where liveset fact_u fact_p fact_r =
    SS.iter
      (fun v ->
        if is_named v then
          match var_ty v with
          | Some ty when Ty.is_scalar ty ->
              if SS.mem v fact_u then (
                if Ty.is_pointer ty then
                  add
                    (Diag.make ~code:"HPM-E103" ~loc
                       "pointer '%s' may be uninitialized (wild) at %s: \
                        Save_pointer would chase a garbage address" v where)
                else if SS.mem v fact_r then
                  add
                    (Diag.make ~code:"HPM-E101" ~loc
                       "variable '%s' may be uninitialized at %s: its \
                        garbage value would be saved, restored and read" v
                       where))
              else if
                Ty.is_pointer ty && pstate_of fact_p v land p_freed <> 0
              then
                add
                  (Diag.make ~code:"HPM-E102" ~loc
                     "pointer '%s' may point to freed memory at %s: the \
                      depth-first collection would traverse a dangling \
                      block" v where)
          | _ -> () (* arrays/structs: see module comment *))
      liveset
  in
  Array.iteri
    (fun bi (b : Ir.block) ->
      Array.iteri
        (fun ii ins ->
          match ins with
          | Ir.Ipoll id ->
              let loc = loc_at fn ~block:bi ~index:ii in
              let where =
                Printf.sprintf "poll-point #%d (function %s)" id fn.Ir.name
              in
              check_suspension ~loc ~where
                (Liveness.live_after live ~block:bi ~index:ii)
                (UninitFlow.after uninit ~block:bi ~index:ii)
                (PtrFlow.after pstate ~block:bi ~index:ii)
                (ReadFlow.after reads ~block:bi ~index:ii)
          | Ir.Icall (_, callee, _) when callee_may_suspend may ~any_poll callee
            ->
              let loc = loc_at fn ~block:bi ~index:ii in
              let where =
                Printf.sprintf "suspended call to %s (function %s)"
                  (Fmt.str "%a" Ir.pp_callee callee)
                  fn.Ir.name
              in
              (* post-call facts: the callee already received &x-style
                 out-parameters (counted as initializing) and the call's
                 destination is re-defined by the return value *)
              check_suspension ~loc ~where
                (Liveness.live_suspended_call live ~block:bi ~index:ii)
                (UninitFlow.after uninit ~block:bi ~index:ii)
                (PtrFlow.after pstate ~block:bi ~index:ii)
                (ReadFlow.after reads ~block:bi ~index:ii)
          | Ir.Ifree rv -> (
              match free_root rv with
              | Some v
                when pstate_of (PtrFlow.before pstate ~block:bi ~index:ii) v
                     land p_freed
                     <> 0 ->
                  add
                    (Diag.make ~code:"HPM-W104"
                       ~loc:(loc_at fn ~block:bi ~index:ii)
                       "possible double free of '%s' (function %s)" v
                       fn.Ir.name)
              | _ -> ())
          | _ -> ())
        b.Ir.instrs)
    fn.Ir.blocks;
  (* Dead stores: a named local assigned a value no path ever reads.
     The value would never even be saved at a poll-point — the store is
     noise (often a stale accumulator or a shadowed initialization). *)
  Array.iteri
    (fun bi (b : Ir.block) ->
      Array.iteri
        (fun ii ins ->
          match ins with
          | Ir.Iassign (Ir.Lvar v, _)
            when is_named v && Ir.is_local fn v
                 && not (SS.mem v (Liveness.live_after live ~block:bi ~index:ii))
            ->
              add
                (Diag.make ~code:"HPM-W105"
                   ~loc:(loc_at fn ~block:bi ~index:ii)
                   "dead store to '%s' (function %s): the value is never \
                    read on any path" v fn.Ir.name)
          | _ -> ())
        b.Ir.instrs)
    fn.Ir.blocks;
  List.rev !acc

(** Run all flow-sensitive checks on a lowered program after poll-point
    insertion, reading each function's liveness from [polls] (with no
    polls anywhere, only the double-free and dead-store checks can
    fire).  Result is location-sorted. *)
let check_ir (prog : Ir.prog) (polls : Pollpoint.table) : Diag.t list =
  let may = may_poll_funcs prog in
  let any_poll = List.exists has_poll prog.Ir.funcs in
  Diag.sort (List.concat_map (check_fn prog polls may ~any_poll) prog.Ir.funcs)

(* ------------------------------------------------------------------ *)
(* Migration-footprint report                                          *)
(* ------------------------------------------------------------------ *)

type footprint_entry = {
  fp_poll : Pollpoint.info;
  fp_loc : Ast.loc;
  fp_vars : (string * int) list;  (** live variable, size in bytes *)
  fp_bytes : int;  (** Σ sizes: bytes [Save_variable] ships at this poll *)
}

(** Per poll-point, the bytes of live variables a migration at that poll
    would ship for [arch] (heap blocks reached by [Save_pointer] are a
    run-time quantity and are not included). *)
let footprint (prog : Ir.prog) (polls : Pollpoint.table)
    (arch : Hpm_arch.Arch.t) : footprint_entry list =
  let layout = Layout.make arch prog.Ir.tenv in
  List.map
    (fun (p : Pollpoint.info) ->
      let fn = Ir.find_func_exn prog p.Pollpoint.fn in
      let size v =
        match Ir.var_ty fn prog v with
        | Some (Ty.Func _) -> arch.Hpm_arch.Arch.ptr_size
        | Some t -> Layout.sizeof layout t
        | None -> 0
      in
      let vars = List.map (fun v -> (v, size v)) p.Pollpoint.live in
      {
        fp_poll = p;
        fp_loc = loc_at fn ~block:p.Pollpoint.block ~index:p.Pollpoint.index;
        fp_vars = vars;
        fp_bytes = List.fold_left (fun a (_, s) -> a + s) 0 vars;
      })
    polls.Pollpoint.polls

let pp_footprint_entry ppf (e : footprint_entry) =
  Fmt.pf ppf "poll #%d at %a (%s, %a): %d bytes%s%a" e.fp_poll.Pollpoint.id
    Ast.pp_loc e.fp_loc e.fp_poll.Pollpoint.fn Pollpoint.pp_kind
    e.fp_poll.Pollpoint.kind e.fp_bytes
    (if e.fp_vars = [] then "" else " = ")
    (Fmt.list ~sep:(Fmt.any " + ") (fun ppf (v, s) -> Fmt.pf ppf "%s:%d" v s))
    e.fp_vars

let footprint_json_one (e : footprint_entry) =
  (* field parity with {!pp_footprint_entry}: the JSON carries the same
     poll id and kind the text report shows *)
  Printf.sprintf
    {|{"poll":%d,"fn":%s,"kind":%s,"line":%d,"col":%d,"live":%d,"bytes":%d}|}
    e.fp_poll.Pollpoint.id
    (Json.str e.fp_poll.Pollpoint.fn)
    (Json.str (Fmt.str "%a" Pollpoint.pp_kind e.fp_poll.Pollpoint.kind))
    e.fp_loc.Ast.line e.fp_loc.Ast.col
    (List.length e.fp_vars) e.fp_bytes

(* ------------------------------------------------------------------ *)
(* Source-level driver (what [migratec lint] runs)                     *)
(* ------------------------------------------------------------------ *)

type analysis = {
  a_prog : (Ir.prog * Pollpoint.table) option;
      (** [None] when unsafe-feature errors blocked lowering *)
  a_diags : Diag.t list;  (** unsafe + flow diagnostics, location-sorted *)
}

(** Front-end pipeline for linting: parse → scope → type check → unsafe
    scan; if that produced no errors, lower, insert poll-points per
    [strategy] and run the flow analyses.  Unlike {!Diag.reject_on_errors}
    nothing is raised for lint findings — the caller renders them all.
    @raise Hpm_lang.Lexer.Error, Hpm_lang.Parser.Error on syntax errors
    @raise Hpm_lang.Typecheck.Error on type errors *)
let analyze_source ?(strategy = Pollpoint.default_strategy) (source : string) :
    analysis =
  let ast = Parser.parse_string source in
  let ast = Scopes.normalize ast in
  let ast = Typecheck.check_program ast in
  let unsafe = Unsafe.check ast in
  if Diag.errors unsafe <> [] then
    { a_prog = None; a_diags = Diag.sort unsafe }
  else
    let prog, user_polls = Compile.lower ast in
    let polls = Pollpoint.insert prog user_polls strategy in
    { a_prog = Some (prog, polls); a_diags = Diag.sort (unsafe @ check_ir prog polls) }

(** Machine-readable lint report: {!Diag.to_json} plus, optionally, the
    per-poll footprint. *)
let report_json ~file (ds : Diag.t list) (fp : footprint_entry list option) :
    string =
  let base =
    Printf.sprintf {|"file":%s,"diagnostics":[%s],"errors":%d,"warnings":%d|}
      (Json.str file)
      (String.concat "," (List.map Diag.to_json_one ds))
      (List.length (Diag.errors ds))
      (List.length (Diag.warnings ds))
  in
  match fp with
  | None -> Printf.sprintf "{%s}" base
  | Some entries ->
      Printf.sprintf {|{%s,"footprint":[%s]}|} base
        (String.concat "," (List.map footprint_json_one entries))
