(** Arch-portability abstract interpreter.

    Decides, per poll-point and per ordered architecture pair, whether
    the data a migration would collect there survives the trip — the
    "compatibility set" of ROADMAP item 4.  The verdict axes mirror the
    translation machinery's real hazards:

    - {b long width}: an LP64 [long] narrowed onto an ILP32 destination
      truncates unless its value provably fits 32 bits;
    - {b double demotion}: a [double_f32] destination ({!Hpm_arch.Arch})
      rounds every stored double to f32 precision, losing bits unless
      the value is provably f32-exact;
    - {b char signedness}: the byte migrates unchanged, but a
      possibly-negative plain [char] changes meaning when source and
      destination disagree on [char_signed];
    - {b layout}: a type whose bytes the program reinterprets through a
      pointer cast must be laid out identically (offsets, size, byte
      order) on both machines — padding moves under it otherwise.

    The value-dependent axes are discharged by a forward abstract
    interpretation over the IR on an interval x float-use lattice (a
    {!Dataflow.PROBLEM}), with branch refinement through the engine's
    per-edge transfer and threshold widening inside the interval join so
    the fixpoint terminates without an engine widening hook.  The
    layout axis comes from a syntactic cast scan plus per-poll type
    reachability.

    Abstract facts cover the {e named scalar locals} of each function
    precisely; everything else a migration carries — globals, heap and
    aggregate data reachable from live pointers, and the live frames of
    possible ancestor callers — is folded in conservatively (type-range
    intervals, [Fwide] doubles), so a [Legal] verdict is sound for the
    whole collected image, while the interval analysis buys precision
    exactly where programs keep their loop counters and accumulators.

    Findings are reported through {!Diag} as [HPM-E20x] (hard; any one
    makes the poll [Illegal]) and [HPM-W21x] (value-dependent hazard;
    [Lossy]) with per-poll provenance. *)

open Hpm_arch
open Hpm_lang
module SM = Map.Make (String)
module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

let ninf = Int64.min_int
let pinf = Int64.max_int

(** A closed interval over [int64], with [Int64.min_int]/[max_int]
    standing in for -inf/+inf.  Always non-empty ([lo <= hi]). *)
type itv = { lo : int64; hi : int64 }

let itv_top = { lo = ninf; hi = pinf }
let itv_const v = { lo = v; hi = v }
let itv_subset a b = a.lo >= b.lo && a.hi <= b.hi
let itv_disjoint a b = a.hi < b.lo || a.lo > b.hi

let pp_bound ppf v =
  if Int64.equal v ninf then Fmt.string ppf "-inf"
  else if Int64.equal v pinf then Fmt.string ppf "+inf"
  else Fmt.pf ppf "%Ld" v

let pp_itv ppf i = Fmt.pf ppf "[%a, %a]" pp_bound i.lo pp_bound i.hi

(* Saturating arithmetic: infinities absorb, finite overflow saturates
   toward the direction of the overflow. *)
let sat_add x y =
  if Int64.equal x ninf || Int64.equal y ninf then ninf
  else if Int64.equal x pinf || Int64.equal y pinf then pinf
  else
    let s = Int64.add x y in
    if Int64.compare x 0L >= 0 && Int64.compare y 0L >= 0 && Int64.compare s 0L < 0
    then pinf
    else if
      Int64.compare x 0L < 0 && Int64.compare y 0L < 0 && Int64.compare s 0L >= 0
    then ninf
    else s

let sat_neg x =
  if Int64.equal x ninf then pinf
  else if Int64.equal x pinf then ninf
  else Int64.neg x

let sat_succ x = if Int64.equal x pinf || Int64.equal x ninf then x else Int64.add x 1L
let sat_pred x = if Int64.equal x pinf || Int64.equal x ninf then x else Int64.sub x 1L

let itv_add a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let itv_neg a = { lo = sat_neg a.hi; hi = sat_neg a.lo }
let itv_sub a b = itv_add a (itv_neg b)

(* Checked multiply: None on overflow or an infinite operand. *)
let mul_chk x y =
  if Int64.equal x ninf || Int64.equal x pinf || Int64.equal y ninf || Int64.equal y pinf
  then None
  else if Int64.equal x 0L || Int64.equal y 0L then Some 0L
  else
    let p = Int64.mul x y in
    if Int64.equal (Int64.div p y) x && not (Int64.equal p Int64.min_int && Int64.equal x (-1L))
    then Some p
    else None

let itv_mul a b =
  match (mul_chk a.lo b.lo, mul_chk a.lo b.hi, mul_chk a.hi b.lo, mul_chk a.hi b.hi) with
  | Some p1, Some p2, Some p3, Some p4 ->
      let lo = min (min p1 p2) (min p3 p4) and hi = max (max p1 p2) (max p3 p4) in
      { lo; hi }
  | _ -> itv_top

(* Widening thresholds: interval joins round any moving bound outward to
   the nearest threshold, which bounds every ascending chain by the
   (finite) threshold count — the engine re-joins incoming facts every
   pass, so termination must come from the domain itself. *)
let thresholds =
  [|
    ninf; -4294967296L; -2147483648L; -16777216L; -65536L; -32768L; -4096L;
    -1024L; -256L; -128L; -100L; -64L; -16L; -10L; -8L; -4L; -2L; -1L; 0L; 1L;
    2L; 4L; 8L; 10L; 16L; 64L; 100L; 127L; 128L; 255L; 256L; 1024L; 4096L;
    10000L; 32767L; 65535L; 65536L; 1000000L; 16777215L; 16777216L;
    2147483647L; 2147483648L; 4294967295L; 4294967296L; pinf;
  |]

let round_down v =
  let r = ref ninf in
  Array.iter (fun t -> if Int64.compare t v <= 0 && Int64.compare t !r > 0 then r := t) thresholds;
  !r

let round_up v =
  let r = ref pinf in
  Array.iter (fun t -> if Int64.compare t v >= 0 && Int64.compare t !r < 0 then r := t) thresholds;
  !r

let itv_join a b =
  let lo = if Int64.equal a.lo b.lo then a.lo else round_down (min a.lo b.lo) in
  let hi = if Int64.equal a.hi b.hi then a.hi else round_up (max a.hi b.hi) in
  { lo; hi }

(** Meet; [None] when empty (contradictory refinement). *)
let itv_meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if Int64.compare lo hi > 0 then None else Some { lo; hi }

(* ------------------------------------------------------------------ *)
(* Abstract values and environments                                    *)
(* ------------------------------------------------------------------ *)

(** Float use: is a double's value provably exact under f32 rounding? *)
type fuse = Fexact | Fwide

let fuse_join a b = match (a, b) with Fexact, Fexact -> Fexact | _ -> Fwide

type aval = Aint of itv | Aflt of fuse | Aptr | Atop

let aval_join a b =
  match (a, b) with
  | Aint x, Aint y -> Aint (itv_join x y)
  | Aflt x, Aflt y -> Aflt (fuse_join x y)
  | Aptr, Aptr -> Aptr
  | _ -> Atop

let aval_equal a b =
  match (a, b) with
  | Aint x, Aint y -> Int64.equal x.lo y.lo && Int64.equal x.hi y.hi
  | Aflt x, Aflt y -> x = y
  | Aptr, Aptr | Atop, Atop -> true
  | _ -> false

(** The flow fact: a map from local scalar names to abstract values.
    A missing key means top (unknown), so [Bot] — the not-yet-reached
    fact — must be a distinct element to serve as the join unit. *)
type env = Bot | Env of aval SM.t

(* ------------------------------------------------------------------ *)
(* Source-machine configuration                                        *)
(* ------------------------------------------------------------------ *)

(** The slice of an {!Arch.t} the abstract semantics depends on.  The
    eight catalog arches collapse to a handful of configs, so fixpoints
    are solved once per config, not once per pair. *)
type config = { c_long_size : int; c_char_signed : bool; c_double_f32 : bool }

let config_of (a : Arch.t) =
  {
    c_long_size = a.Arch.long_size;
    c_char_signed = a.Arch.char_signed;
    c_double_f32 = a.Arch.double_f32;
  }

let int32_range = { lo = -2147483648L; hi = 2147483647L }
let char_signed_range = { lo = -128L; hi = 127L }
let char_unsigned_range = { lo = 0L; hi = 255L }

(** The value range of an integer type on a machine with config [cfg];
    [None] for non-integer types. *)
let range_of cfg (ty : Ty.t) : itv option =
  match ty with
  | Ty.Char -> Some (if cfg.c_char_signed then char_signed_range else char_unsigned_range)
  | Ty.Short -> Some { lo = -32768L; hi = 32767L }
  | Ty.Int -> Some int32_range
  | Ty.Long -> Some (if cfg.c_long_size = 4 then int32_range else itv_top)
  | _ -> None

(** Is [v] exactly representable as an IEEE f32? *)
let f32_exact v =
  let r = Int32.float_of_bits (Int32.bits_of_float v) in
  Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float v)

(* Integers with |v| <= 2^24 convert to f32 exactly. *)
let f24 = 16777216L

let fuse_of_double cfg (i : itv option) =
  if cfg.c_double_f32 then Fexact
  else
    match i with
    | Some i when Int64.compare i.lo (Int64.neg f24) >= 0 && Int64.compare i.hi f24 <= 0 ->
        Fexact
    | _ -> Fwide

let top_of cfg (ty : Ty.t) : aval =
  match ty with
  | Ty.Char | Ty.Short | Ty.Int | Ty.Long -> (
      match range_of cfg ty with Some r -> Aint r | None -> Atop)
  | Ty.Float -> Aflt Fexact
  | Ty.Double -> Aflt (if cfg.c_double_f32 then Fexact else Fwide)
  | Ty.Ptr _ -> Aptr
  | _ -> Atop

(** Model a store into (or wrap to) type [ty]: out-of-range intervals
    collapse to the full type range (two's-complement wrap can land
    anywhere in it), floats pick up the machine's store rounding. *)
let constrain cfg (ty : Ty.t) (v : aval) : aval =
  match (ty, v) with
  | (Ty.Char | Ty.Short | Ty.Int | Ty.Long), Aint i -> (
      match range_of cfg ty with
      | Some r -> if itv_subset i r then Aint i else Aint r
      | None -> Atop)
  | (Ty.Char | Ty.Short | Ty.Int | Ty.Long), _ -> top_of cfg ty
  | Ty.Float, _ -> Aflt Fexact
  | Ty.Double, Aflt f -> Aflt (if cfg.c_double_f32 then Fexact else f)
  | Ty.Double, Aint i -> Aflt (fuse_of_double cfg (Some i))
  | Ty.Double, _ -> Aflt (if cfg.c_double_f32 then Fexact else Fwide)
  | Ty.Ptr _, _ -> Aptr
  | _ -> Atop

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

let rec lv_base (lv : Ir.lv) =
  match lv with
  | Ir.Lvar v -> Some v
  | Ir.Lindex (lv, _, _) | Ir.Lfield (lv, _, _, _) -> lv_base lv
  | Ir.Lmem _ -> None

(* Locals whose address escapes ([&x] anywhere in the function): stores
   through pointers and calls may rewrite them behind the analysis's
   back, so such names are dropped (to top) at every such instruction. *)
let addr_taken (fn : Ir.func) : SS.t =
  let acc = ref SS.empty in
  let rec rv (r : Ir.rv) =
    match r with
    | Ir.Raddr (l, _) -> (
        match lv_base l with Some v -> acc := SS.add v !acc | None -> lv l)
    | Ir.Rconst _ | Ir.Rsizeof _ | Ir.Rfunc _ -> ()
    | Ir.Rload (l, _) -> lv l
    | Ir.Runop (_, a, _) -> rv a
    | Ir.Rbinop (_, a, b, _) -> rv a; rv b
    | Ir.Rcast (_, a) -> rv a
  and lv (l : Ir.lv) =
    match l with
    | Ir.Lvar _ -> ()
    | Ir.Lmem (r, _) -> rv r
    | Ir.Lindex (l, r, _) -> lv l; rv r
    | Ir.Lfield (l, _, _, _) -> lv l
  in
  Array.iter
    (fun (b : Ir.block) ->
      Array.iter
        (fun (i : Ir.instr) ->
          match i with
          | Ir.Iassign (l, r) -> lv l; rv r
          | Ir.Icopy (d, s, _) -> lv d; lv s
          | Ir.Icall (d, c, args) ->
              (match d with Some l -> lv l | None -> ());
              (match c with Ir.Cptr r -> rv r | _ -> ());
              List.iter rv args
          | Ir.Imalloc (d, _, n) -> lv d; rv n
          | Ir.Ifree r -> rv r
          | Ir.Ipoll _ -> ())
        b.Ir.instrs;
      match b.Ir.term with
      | Ir.Tif (c, _, _) -> rv c
      | Ir.Tret (Some c) -> rv c
      | _ -> ())
    fn.Ir.blocks;
  !acc

let is_tracked (fn : Ir.func) prog v =
  Ir.is_local fn v
  &&
  match Ir.var_ty fn prog v with
  | Some ty -> Ty.is_scalar ty
  | None -> false

let sizeof_bounds prog ty =
  try
    List.fold_left
      (fun (lo, hi) arch ->
        let s = Int64.of_int (Layout.sizeof (Layout.make arch prog.Ir.tenv) ty) in
        (min lo s, max hi s))
      (pinf, ninf) Arch.all
    |> fun (lo, hi) -> { lo; hi }
  with Invalid_argument _ -> itv_top

let rec eval cfg fn prog (m : aval SM.t) (r : Ir.rv) : aval =
  match r with
  | Ir.Rconst (Ir.Kint (ty, v)) -> constrain cfg ty (Aint (itv_const v))
  | Ir.Rconst (Ir.Kfloat (ty, v)) -> (
      match ty with
      | Ty.Float -> Aflt Fexact
      | _ -> Aflt (if cfg.c_double_f32 || f32_exact v then Fexact else Fwide))
  | Ir.Rconst (Ir.Kstr _) | Ir.Rconst (Ir.Knull _) -> Aptr
  | Ir.Rload (Ir.Lvar v, ty) when is_tracked fn prog v -> (
      match SM.find_opt v m with Some a -> a | None -> top_of cfg ty)
  | Ir.Rload (_, ty) -> top_of cfg ty
  | Ir.Raddr _ | Ir.Rfunc _ -> Aptr
  | Ir.Rsizeof ty -> Aint (sizeof_bounds prog ty)
  | Ir.Runop (Ast.Neg, a, ty) -> (
      match eval cfg fn prog m a with
      | Aint i -> constrain cfg ty (Aint (itv_neg i))
      | _ -> top_of cfg ty)
  | Ir.Runop (Ast.Not, _, _) -> Aint { lo = 0L; hi = 1L }
  | Ir.Runop (Ast.Bnot, _, ty) -> top_of cfg ty
  | Ir.Rbinop (op, a, b, ty) -> eval_binop cfg fn prog m op a b ty
  | Ir.Rcast (ty, a) -> constrain cfg ty (eval cfg fn prog m a)

and eval_binop cfg fn prog m op a b ty =
  match ty with
  | Ty.Ptr _ -> Aptr
  | Ty.Float -> Aflt Fexact
  | Ty.Double -> Aflt (if cfg.c_double_f32 then Fexact else Fwide)
  | _ -> (
      let bool_itv = Aint { lo = 0L; hi = 1L } in
      match op with
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
          bool_itv
      | _ -> (
          match (eval cfg fn prog m a, eval cfg fn prog m b) with
          | Aint x, Aint y -> (
              let nonneg i = Int64.compare i.lo 0L >= 0 in
              match op with
              | Ast.Add -> constrain cfg ty (Aint (itv_add x y))
              | Ast.Sub -> constrain cfg ty (Aint (itv_sub x y))
              | Ast.Mul -> constrain cfg ty (Aint (itv_mul x y))
              | Ast.Div ->
                  if nonneg x && Int64.compare y.lo 1L >= 0 then
                    Aint { lo = 0L; hi = x.hi }
                  else top_of cfg ty
              | Ast.Mod ->
                  if Int64.compare y.lo 1L >= 0 then
                    let bound = sat_pred y.hi in
                    if nonneg x then Aint { lo = 0L; hi = bound }
                    else Aint { lo = sat_neg bound; hi = bound }
                  else top_of cfg ty
              | Ast.Band ->
                  if nonneg x && nonneg y then Aint { lo = 0L; hi = min x.hi y.hi }
                  else top_of cfg ty
              | Ast.Bor | Ast.Bxor ->
                  (* for nonneg operands, x|y and x^y are <= x+y *)
                  if nonneg x && nonneg y then
                    constrain cfg ty (Aint { lo = 0L; hi = sat_add x.hi y.hi })
                  else top_of cfg ty
              | Ast.Shr ->
                  if nonneg x then Aint { lo = 0L; hi = x.hi } else top_of cfg ty
              | Ast.Shl -> top_of cfg ty
              | _ -> top_of cfg ty)
          | _ -> top_of cfg ty))

(** Drop every address-taken name: a store through a pointer (or a
    callee writing through one) may have rewritten any of them. *)
let invalidate_escaped (at : SS.t) m = SM.filter (fun v _ -> not (SS.mem v at)) m

let transfer cfg fn prog at (ins : Ir.instr) (m : aval SM.t) : aval SM.t =
  match ins with
  | Ir.Iassign (Ir.Lvar v, r) when is_tracked fn prog v ->
      let ty = Option.get (Ir.var_ty fn prog v) in
      SM.add v (constrain cfg ty (eval cfg fn prog m r)) m
  | Ir.Iassign (lv, _) -> (
      match lv_base lv with Some _ -> m | None -> invalidate_escaped at m)
  | Ir.Icopy (d, _, _) -> (
      match lv_base d with Some _ -> m | None -> invalidate_escaped at m)
  | Ir.Icall (dst, _, _) -> (
      let m = invalidate_escaped at m in
      match dst with
      | Some (Ir.Lvar v) when is_tracked fn prog v ->
          SM.add v (top_of cfg (Option.get (Ir.var_ty fn prog v))) m
      | Some lv -> (
          match lv_base lv with Some _ -> m | None -> invalidate_escaped at m)
      | None -> m)
  | Ir.Imalloc (d, _, _) -> (
      match d with
      | Ir.Lvar v when is_tracked fn prog v -> SM.add v Aptr m
      | lv -> ( match lv_base lv with Some _ -> m | None -> invalidate_escaped at m))
  | Ir.Ifree _ | Ir.Ipoll _ -> m

(* --- branch refinement --------------------------------------------- *)

(** Refine [v] under "[v op r] evaluated to [taken]".  [None] means the
    refinement is contradictory (the edge is unreachable). *)
let refine_cmp ~taken op (v : itv) (r : itv) : itv option =
  let le hi = itv_meet v { lo = ninf; hi } in
  let ge lo = itv_meet v { lo; hi = pinf } in
  match (op, taken) with
  | Ast.Lt, true -> le (sat_pred r.hi)
  | Ast.Lt, false -> ge r.lo
  | Ast.Le, true -> le r.hi
  | Ast.Le, false -> ge (sat_succ r.lo)
  | Ast.Gt, true -> ge (sat_succ r.lo)
  | Ast.Gt, false -> le r.hi
  | Ast.Ge, true -> ge r.lo
  | Ast.Ge, false -> le (sat_pred r.hi)
  | Ast.Eq, true | Ast.Ne, false -> itv_meet v r
  | Ast.Ne, true | Ast.Eq, false ->
      if Int64.equal r.lo r.hi then
        if Int64.equal v.lo v.hi && Int64.equal v.lo r.lo then None
        else if Int64.equal v.lo r.lo then Some { v with lo = sat_succ v.lo }
        else if Int64.equal v.hi r.hi then Some { v with hi = sat_pred v.hi }
        else Some v
      else Some v
  | _ -> Some v

let mirror = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

(** Refine [m] under "[cond] evaluated to [taken]". *)
let rec refine cfg fn prog (m : aval SM.t) (cond : Ir.rv) ~taken : aval SM.t =
  let var_itv v ty =
    match SM.find_opt v m with
    | Some (Aint i) -> Some i
    | Some _ -> None
    | None -> ( match top_of cfg ty with Aint i -> Some i | _ -> None)
  in
  let apply v ty op rhs m =
    if not (is_tracked fn prog v) then m
    else
      match var_itv v ty with
      | None -> m
      | Some vi -> (
          match eval cfg fn prog m rhs with
          | Aint r -> (
              match refine_cmp ~taken op vi r with
              | Some vi' -> SM.add v (Aint vi') m
              | None -> m (* contradictory: edge unreachable; keep sound *))
          | _ -> m)
  in
  match cond with
  | Ir.Runop (Ast.Not, inner, _) -> refine cfg fn prog m inner ~taken:(not taken)
  | Ir.Rload (Ir.Lvar v, ty) when Ty.is_integer ty ->
      (* bare [if (v)]: taken means v <> 0 — [apply] threads [taken], so
         [Ne] covers both arms *)
      apply v ty Ast.Ne (Ir.Rconst (Ir.Kint (Ty.Int, 0L))) m
  | Ir.Rbinop (op, Ir.Rload (Ir.Lvar v, ty), rhs, _)
    when Ty.is_integer ty ->
      let m = apply v ty op rhs m in
      (* both sides named: refine the right one with the mirrored op *)
      (match rhs with
      | Ir.Rload (Ir.Lvar w, wty) when Ty.is_integer wty ->
          apply w wty (mirror op) (Ir.Rload (Ir.Lvar v, ty)) m
      | _ -> m)
  | Ir.Rbinop (op, lhs, Ir.Rload (Ir.Lvar v, ty), _) when Ty.is_integer ty ->
      apply v ty (mirror op) lhs m
  | _ -> m

(* ------------------------------------------------------------------ *)
(* Fixpoint per function                                               *)
(* ------------------------------------------------------------------ *)

(** Solve the forward problem for [fn]; the returned function yields the
    program-order fact just before instruction [index] of [block]. *)
let solve_fn cfg prog (fn : Ir.func) : block:int -> index:int -> env =
  let at = addr_taken fn in
  let module P = struct
    module L = struct
      type t = env

      let bottom = Bot

      let equal a b =
        match (a, b) with
        | Bot, Bot -> true
        | Env x, Env y -> SM.equal aval_equal x y
        | _ -> false

      let join a b =
        match (a, b) with
        | Bot, x | x, Bot -> x
        | Env x, Env y ->
            (* missing keys mean top, so only shared keys survive *)
            Env
              (SM.merge
                 (fun _ l r ->
                   match (l, r) with
                   | Some a, Some b -> Some (aval_join a b)
                   | _ -> None)
                 x y)
    end

    let direction = Dataflow.Forward

    (* Parameters are unknown (missing = top), so entry is the empty map. *)
    let boundary _ = Env SM.empty

    let transfer_instr fn ins fact =
      match fact with Bot -> Bot | Env m -> Env (transfer cfg fn prog at ins m)

    let transfer_term _ _ fact = fact

    let transfer_edge fn term ~succ fact =
      match (term, fact) with
      | Ir.Tif (cond, tb, fb), Env m when tb <> fb ->
          if succ = tb then Env (refine cfg fn prog m cond ~taken:true)
          else if succ = fb then Env (refine cfg fn prog m cond ~taken:false)
          else fact
      | _ -> fact
  end in
  let module M = Dataflow.Make (P) in
  let r = M.solve fn in
  fun ~block ~index -> M.before r ~block ~index

(* ------------------------------------------------------------------ *)
(* Per-poll summaries                                                  *)
(* ------------------------------------------------------------------ *)

(** One hazardous datum visible at a poll: a display name (variable,
    or a description of conservatively-summarized data) plus its
    abstract value. *)
type ientry = { e_what : string; e_itv : itv }

type fentry = { f_what : string; f_fuse : fuse }

(** Everything a pair-independent pass can precompute about one poll
    under one source config; pair verdicts are then cheap scans. *)
type poll_sum = {
  s_poll : Pollpoint.info;
  s_loc : Ast.loc;
  s_longs : ientry list;
  s_chars : ientry list;
  s_doubles : fentry list;
  s_types : SS.t;  (** [Ty.to_string]s of every type reachable here *)
}

(* Scalar kinds reachable through a type, following pointees (the MSR
   traversal migrates everything a live pointer can reach). *)
let closure_kinds tenv (tys : Ty.t list) : Ty.scalar_kind list * SS.t =
  let kinds = ref [] and seen = ref SS.empty in
  let rec go (t : Ty.t) =
    let key = Ty.to_string t in
    if not (SS.mem key !seen) then (
      seen := SS.add key !seen;
      match Ty.scalar_kind_of_ty t with
      | Some (Ty.KPtr p) ->
          kinds := Ty.KPtr p :: !kinds;
          go p
      | Some (Ty.KFunc _) -> ()
      | Some k -> kinds := k :: !kinds
      | None -> (
          match t with
          | Ty.Array (e, _) -> go e
          | Ty.Struct name ->
              let def = Ty.find_struct_exn tenv name in
              List.iter (fun (f : Ty.field) -> go f.Ty.fld_ty) def.Ty.s_fields
          | _ -> ()))
  in
  List.iter go tys;
  (!kinds, !seen)

(* Conservative entries for data the flow analysis does not model:
   globals, aggregates, and heap reachable from a pointer. *)
let conservative_entries cfg tenv ~what (tys : Ty.t list) =
  let kinds, seen = closure_kinds tenv tys in
  let longs = ref [] and chars = ref [] and doubles = ref [] in
  List.iter
    (fun k ->
      match k with
      | Ty.KLong ->
          longs :=
            { e_what = what; e_itv = Option.get (range_of cfg Ty.Long) } :: !longs
      | Ty.KChar ->
          chars :=
            { e_what = what; e_itv = Option.get (range_of cfg Ty.Char) } :: !chars
      | Ty.KDouble ->
          doubles :=
            { f_what = what; f_fuse = (if cfg.c_double_f32 then Fexact else Fwide) }
            :: !doubles
      | _ -> ())
    kinds;
  (!longs, !chars, !doubles, seen)

(* Dedup: conservative entries repeat per live pointer; one per display
   name keeps reports readable without changing verdicts. *)
let dedup_i entries =
  List.fold_left
    (fun acc e -> if List.exists (fun x -> x.e_what = e.e_what) acc then acc else e :: acc)
    [] entries
  |> List.rev

let dedup_f entries =
  List.fold_left
    (fun acc e -> if List.exists (fun x -> x.f_what = e.f_what) acc then acc else e :: acc)
    [] entries
  |> List.rev

(* The string table: literal contents are known, so chars from strings
   get an exact interval instead of the type range. *)
let string_itv cfg (strings : string array) : itv option =
  let lo = ref pinf and hi = ref ninf in
  Array.iter
    (fun s ->
      String.iter
        (fun c ->
          let v =
            if cfg.c_char_signed && Char.code c >= 128 then
              Int64.of_int (Char.code c - 256)
            else Int64.of_int (Char.code c)
          in
          if Int64.compare v !lo < 0 then lo := v;
          if Int64.compare v !hi > 0 then hi := v)
        s)
    strings;
  if Int64.compare !lo !hi > 0 then None else Some { lo = !lo; hi = !hi }

(* --- ambient caller frames ----------------------------------------- *)

(* A poll suspends every frame on the stack, not just the polled
   function: callers are suspended at their call sites with their own
   live sets.  [ambient] over-approximates that contribution with the
   union over every call site whose callee may (transitively) reach a
   poll.  Polls in [main] — which has no callers — skip it, which is
   what makes whole-program-in-main corpus cases exactly analyzable. *)

let callees_of (prog : Ir.prog) (fn : Ir.func) : SS.t =
  let acc = ref SS.empty in
  let add_fn name = if Ir.find_func prog name <> None then acc := SS.add name !acc in
  Array.iter
    (fun (b : Ir.block) ->
      Array.iter
        (fun (i : Ir.instr) ->
          match i with
          | Ir.Icall (_, Ir.Cfun name, _) -> add_fn name
          | Ir.Icall (_, Ir.Cptr _, _) ->
              (* indirect: any address-taken function *)
              List.iter (fun (f : Ir.func) -> acc := SS.add f.Ir.name !acc) prog.Ir.funcs
          | _ -> ())
        b.Ir.instrs)
    fn.Ir.blocks;
  !acc

(** Functions that may transitively execute a poll. *)
let may_poll_set (prog : Ir.prog) (table : Pollpoint.table) : SS.t =
  let has_poll =
    List.fold_left (fun s (p : Pollpoint.info) -> SS.add p.Pollpoint.fn s) SS.empty
      table.Pollpoint.polls
  in
  let set = ref has_poll in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ir.func) ->
        if not (SS.mem f.Ir.name !set) then
          if SS.exists (fun c -> SS.mem c !set) (callees_of prog f) then (
            set := SS.add f.Ir.name !set;
            changed := true))
      prog.Ir.funcs
  done;
  !set

(** Does any function call [name]?  (Recursion counts.) *)
let has_callers (prog : Ir.prog) name =
  List.exists (fun (f : Ir.func) -> SS.mem name (callees_of prog f)) prog.Ir.funcs

(* ------------------------------------------------------------------ *)
(* Summarize                                                           *)
(* ------------------------------------------------------------------ *)

let entries_at cfg prog (fn : Ir.func) (facts : block:int -> index:int -> env)
    ~block ~index (live : string list) =
  let m = match facts ~block ~index with Env m -> m | Bot -> SM.empty in
  let longs = ref [] and chars = ref [] and doubles = ref [] and tys = ref SS.empty in
  List.iter
    (fun v ->
      match Ir.var_ty fn prog v with
      | None -> ()
      | Some ty -> (
          let local = is_tracked fn prog v in
          let fact () = if local then SM.find_opt v m else None in
          match ty with
          | Ty.Long ->
              let i =
                match fact () with
                | Some (Aint i) -> i
                | _ -> Option.get (range_of cfg Ty.Long)
              in
              longs := { e_what = v; e_itv = i } :: !longs;
              tys := SS.add (Ty.to_string ty) !tys
          | Ty.Char ->
              let i =
                match fact () with
                | Some (Aint i) -> i
                | _ -> Option.get (range_of cfg Ty.Char)
              in
              chars := { e_what = v; e_itv = i } :: !chars;
              tys := SS.add (Ty.to_string ty) !tys
          | Ty.Double ->
              let f =
                match fact () with
                | Some (Aflt f) -> f
                | _ -> if cfg.c_double_f32 then Fexact else Fwide
              in
              doubles := { f_what = v; f_fuse = f } :: !doubles;
              tys := SS.add (Ty.to_string ty) !tys
          | Ty.Short | Ty.Int | Ty.Float ->
              tys := SS.add (Ty.to_string ty) !tys
          | _ ->
              (* aggregate or pointer: everything reachable migrates *)
              let what =
                if Ty.is_pointer ty then Fmt.str "data reachable from %s" v
                else Fmt.str "contents of %s" v
              in
              let ls, cs, ds, seen =
                conservative_entries cfg prog.Ir.tenv ~what [ ty ]
              in
              longs := ls @ !longs;
              chars := cs @ !chars;
              doubles := ds @ !doubles;
              tys := SS.union seen !tys))
    live;
  (!longs, !chars, !doubles, !tys)

(** Pair-independent facts for every poll of [prog] under source config
    [cfg].  Includes globals, the string table, and ambient caller
    frames, so a pair verdict needs no further program analysis. *)
let summarize (prog : Ir.prog) (table : Pollpoint.table) (cfg : config) :
    poll_sum list =
  let facts_cache : (string, block:int -> index:int -> env) Hashtbl.t =
    Hashtbl.create 8
  in
  let facts_of (fn : Ir.func) =
    match Hashtbl.find_opt facts_cache fn.Ir.name with
    | Some f -> f
    | None ->
        let f = solve_fn cfg prog fn in
        Hashtbl.add facts_cache fn.Ir.name f;
        f
  in
  (* globals are writable by any code: conservative type-range entries *)
  let g_longs, g_chars, g_doubles, g_tys =
    List.fold_left
      (fun (ls, cs, ds, ts) (name, ty, _) ->
        match ty with
        | Ty.Short | Ty.Int | Ty.Float -> (ls, cs, ds, SS.add (Ty.to_string ty) ts)
        | _ ->
            let l, c, d, seen =
              conservative_entries cfg prog.Ir.tenv ~what:(Fmt.str "global %s" name)
                [ ty ]
            in
            (l @ ls, c @ cs, d @ ds, SS.union seen ts))
      ([], [], [], SS.empty) prog.Ir.globals
  in
  let g_chars =
    match string_itv cfg prog.Ir.strings with
    | Some i -> { e_what = "string literals"; e_itv = i } :: g_chars
    | None -> g_chars
  in
  (* ambient caller-frame contribution (see above) *)
  let may_poll = may_poll_set prog table in
  let a_longs = ref [] and a_chars = ref [] and a_doubles = ref [] and a_tys = ref SS.empty in
  List.iter
    (fun (fn : Ir.func) ->
      let live = Pollpoint.live table fn in
      Array.iteri
        (fun bi (b : Ir.block) ->
          Array.iteri
            (fun ii (ins : Ir.instr) ->
              match ins with
              | Ir.Icall (_, callee, _)
                when (match callee with
                     | Ir.Cfun name -> SS.mem name may_poll
                     | Ir.Cptr _ -> true
                     | Ir.Cbuiltin _ -> false) ->
                  let lv =
                    Liveness.to_sorted_list
                      (Liveness.live_suspended_call live ~block:bi
                         ~index:ii)
                  in
                  (* facts after the call: the callee may rewrite
                     escaped locals while this frame is suspended *)
                  let ls, cs, ds, ts =
                    entries_at cfg prog fn (facts_of fn) ~block:bi ~index:(ii + 1)
                      (List.map (fun v -> v) lv)
                  in
                  let tag what = Fmt.str "%s (suspended frame %s)" what fn.Ir.name in
                  a_longs :=
                    List.map (fun e -> { e with e_what = tag e.e_what }) ls @ !a_longs;
                  a_chars :=
                    List.map (fun e -> { e with e_what = tag e.e_what }) cs @ !a_chars;
                  a_doubles :=
                    List.map (fun e -> { e with f_what = tag e.f_what }) ds @ !a_doubles;
                  a_tys := SS.union ts !a_tys
              | _ -> ())
            b.Ir.instrs)
        fn.Ir.blocks)
    prog.Ir.funcs;
  List.map
    (fun (p : Pollpoint.info) ->
      let fn = Ir.find_func_exn prog p.Pollpoint.fn in
      let facts = facts_of fn in
      let longs, chars, doubles, tys =
        entries_at cfg prog fn facts ~block:p.Pollpoint.block ~index:p.Pollpoint.index
          p.Pollpoint.live
      in
      let ambient = has_callers prog fn.Ir.name in
      let longs = longs @ g_longs @ (if ambient then !a_longs else []) in
      let chars = chars @ g_chars @ (if ambient then !a_chars else []) in
      let doubles = doubles @ g_doubles @ (if ambient then !a_doubles else []) in
      let tys =
        SS.union tys (SS.union g_tys (if ambient then !a_tys else SS.empty))
      in
      {
        s_poll = p;
        s_loc =
          Ir.instr_loc fn.Ir.blocks.(p.Pollpoint.block) p.Pollpoint.index;
        s_longs = dedup_i longs;
        s_chars = dedup_i chars;
        s_doubles = dedup_f doubles;
        s_types = tys;
      })
    table.Pollpoint.polls

(* ------------------------------------------------------------------ *)
(* Layout exposure                                                     *)
(* ------------------------------------------------------------------ *)

let rv_static_ty (r : Ir.rv) : Ty.t option =
  match r with
  | Ir.Rconst (Ir.Kint (t, _)) | Ir.Rconst (Ir.Kfloat (t, _)) | Ir.Rconst (Ir.Knull t) ->
      Some t
  | Ir.Rconst (Ir.Kstr _) -> Some (Ty.Ptr Ty.Char)
  | Ir.Rload (_, t) | Ir.Raddr (_, t) | Ir.Runop (_, _, t) | Ir.Rbinop (_, _, _, t) ->
      Some t
  | Ir.Rcast (t, _) -> Some t
  | Ir.Rsizeof _ -> Some Ty.Long
  | Ir.Rfunc _ -> None

(* [char*]/[void*] are the codebase's sanctioned "byte lens" idiom (the
   W004 exemption): [free((void* )p)], generic containers.  A lens cast
   only reinterprets memory if a {e different} concrete type comes back
   out of the lens, so charlike endpoints are tracked as in/out sets and
   judged whole-program rather than exposed per cast. *)
let is_charlike = function Ty.Void | Ty.Char -> true | _ -> false

(** Types whose in-memory bytes the program reinterprets through a
    pointer cast: their layout — offsets, padding, size, byte order —
    becomes program-visible, so a pair disagreeing on it is Illegal
    whenever such a type is live.  Direct casts between two concrete
    pointee types expose both; types meeting at a charlike lens are
    exposed only when the lens launders between at least two distinct
    concrete types and at least one is cast {e out} of it. *)
let exposed_types (prog : Ir.prog) : Ty.t list =
  let acc = ref [] and seen = ref SS.empty in
  let lens_in = ref [] and lens_out = ref [] in
  let expose (t : Ty.t) =
    match t with
    | Ty.Void | Ty.Char -> () (* single bytes have no layout *)
    | Ty.Func _ -> () (* code, not migratable data *)
    | _ ->
        let key = Ty.to_string t in
        if not (SS.mem key !seen) then (
          seen := SS.add key !seen;
          acc := t :: !acc)
  in
  let rec rv (r : Ir.rv) =
    (match r with
    | Ir.Rcast (Ty.Ptr a, inner) -> (
        match rv_static_ty inner with
        | Some (Ty.Ptr b) when not (Ty.equal a b) -> (
            match (is_charlike a, is_charlike b) with
            | false, false ->
                expose a;
                expose b
            | true, false -> lens_in := b :: !lens_in
            | false, true -> lens_out := a :: !lens_out
            | true, true -> ())
        | _ -> ())
    | _ -> ());
    match r with
    | Ir.Rconst _ | Ir.Rsizeof _ | Ir.Rfunc _ -> ()
    | Ir.Rload (l, _) | Ir.Raddr (l, _) -> lv l
    | Ir.Runop (_, a, _) -> rv a
    | Ir.Rbinop (_, a, b, _) -> rv a; rv b
    | Ir.Rcast (_, a) -> rv a
  and lv (l : Ir.lv) =
    match l with
    | Ir.Lvar _ -> ()
    | Ir.Lmem (r, _) -> rv r
    | Ir.Lindex (l, r, _) -> lv l; rv r
    | Ir.Lfield (l, _, _, _) -> lv l
  in
  List.iter
    (fun (f : Ir.func) ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun (i : Ir.instr) ->
              match i with
              | Ir.Iassign (l, r) -> lv l; rv r
              | Ir.Icopy (d, s, _) -> lv d; lv s
              | Ir.Icall (d, c, args) ->
                  (match d with Some l -> lv l | None -> ());
                  (match c with Ir.Cptr r -> rv r | _ -> ());
                  List.iter rv args
              | Ir.Imalloc (d, _, n) -> lv d; rv n
              | Ir.Ifree r -> rv r
              | Ir.Ipoll _ -> ())
            b.Ir.instrs;
          match b.Ir.term with
          | Ir.Tif (c, _, _) -> rv c
          | Ir.Tret (Some c) -> rv c
          | _ -> ())
        f.Ir.blocks)
    prog.Ir.funcs;
  (* lens verdict: a round-trip through the lens of a single type
     (T* -> void* -> T*, or inbound-only as in free) is not a
     reinterpretation; two distinct types with one coming out is *)
  let distinct tys =
    List.sort_uniq compare (List.map Ty.to_string tys)
  in
  (if !lens_out <> [] && List.length (distinct (!lens_in @ !lens_out)) >= 2 then
     List.iter expose (!lens_in @ !lens_out));
  List.rev !acc

let layout_differs tenv (a : Arch.t) (b : Arch.t) (ty : Ty.t) =
  let la = Layout.make a tenv and lb = Layout.make b tenv in
  match Ty.scalar_kind_of_ty ty with
  | Some k -> Layout.scalar_size la k <> Layout.scalar_size lb k
  | None ->
      Layout.sizeof la ty <> Layout.sizeof lb ty
      ||
      let ea = Layout.elems la ty and eb = Layout.elems lb ty in
      let n = Layout.elem_count ea in
      n <> Layout.elem_count eb
      ||
      let differ = ref false in
      for ord = 0 to n - 1 do
        if Layout.byte_of_ordinal ea ord <> Layout.byte_of_ordinal eb ord then
          differ := true
      done;
      !differ

let has_multibyte_scalar tenv arch (ty : Ty.t) =
  let kinds, _ = closure_kinds tenv [ ty ] in
  let l = Layout.make arch tenv in
  List.exists (fun k -> Layout.scalar_size l k > 1) kinds

(* ------------------------------------------------------------------ *)
(* Pair verdicts                                                       *)
(* ------------------------------------------------------------------ *)

type verdict = Legal | Lossy | Illegal

let verdict_to_string = function
  | Legal -> "legal"
  | Lossy -> "lossy"
  | Illegal -> "illegal"

let verdict_join a b =
  match (a, b) with
  | Illegal, _ | _, Illegal -> Illegal
  | Lossy, _ | _, Lossy -> Lossy
  | Legal, Legal -> Legal

type poll_report = {
  r_poll : Pollpoint.info;
  r_verdict : verdict;
  r_diags : Diag.t list;
}

type pair_report = {
  p_src : Arch.t;
  p_dst : Arch.t;
  p_polls : poll_report list;
  p_verdict : verdict;  (** worst poll verdict; [Legal] with no polls *)
}

let verdict_of_diags ds =
  if List.exists (fun (d : Diag.t) -> d.Diag.sev = Diag.Error) ds then Illegal
  else if ds <> [] then Lossy
  else Legal

(** Verdict one poll against one ordered pair. *)
let check_poll ~(src : Arch.t) ~(dst : Arch.t) tenv (exposed : Ty.t list)
    (s : poll_sum) : poll_report =
  let loc = s.s_loc in
  let poll = s.s_poll.Pollpoint.id in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* long width *)
  if src.Arch.long_size > dst.Arch.long_size then begin
    let dst_range = int32_range in
    List.iter
      (fun e ->
        if itv_subset e.e_itv dst_range then ()
        else if itv_disjoint e.e_itv dst_range then
          emit
            (Diag.make ~code:"HPM-E201" ~loc
               "poll #%d: long %s is %a, entirely outside %s's %d-bit long"
               poll e.e_what pp_itv e.e_itv dst.Arch.name
               (8 * dst.Arch.long_size))
        else
          emit
            (Diag.make ~code:"HPM-W211" ~loc
               "poll #%d: long %s is %a and may exceed %s's %d-bit long" poll
               e.e_what pp_itv e.e_itv dst.Arch.name (8 * dst.Arch.long_size)))
      s.s_longs
  end;
  (* char signedness *)
  if src.Arch.char_signed <> dst.Arch.char_signed then
    List.iter
      (fun e ->
        if itv_subset e.e_itv { lo = 0L; hi = 127L } then ()
        else
          emit
            (Diag.make ~code:"HPM-W212" ~loc
               "poll #%d: char %s is %a and plain char is %s on %s but %s on %s"
               poll e.e_what pp_itv e.e_itv
               (if src.Arch.char_signed then "signed" else "unsigned")
               src.Arch.name
               (if dst.Arch.char_signed then "signed" else "unsigned")
               dst.Arch.name))
      s.s_chars;
  (* double demotion *)
  if dst.Arch.double_f32 && not src.Arch.double_f32 then
    List.iter
      (fun e ->
        match e.f_fuse with
        | Fexact -> ()
        | Fwide ->
            emit
              (Diag.make ~code:"HPM-E202" ~loc
                 "poll #%d: double %s is not provably f32-exact and %s stores \
                  doubles at f32 precision"
                 poll e.f_what dst.Arch.name))
      s.s_doubles;
  (* layout of byte-reinterpreted types *)
  List.iter
    (fun ty ->
      if SS.mem (Ty.to_string ty) s.s_types then
        if layout_differs tenv src dst ty then
          emit
            (Diag.make ~code:"HPM-E203" ~loc
               "poll #%d: type %s is byte-reinterpreted by a cast and is laid \
                out differently on %s and %s"
               poll (Ty.to_string ty) src.Arch.name dst.Arch.name)
        else if
          src.Arch.endian <> dst.Arch.endian && has_multibyte_scalar tenv src ty
        then
          emit
            (Diag.make ~code:"HPM-E203" ~loc
               "poll #%d: type %s is byte-reinterpreted by a cast and %s and %s \
                disagree on byte order"
               poll (Ty.to_string ty) src.Arch.name dst.Arch.name))
    exposed;
  let diags = List.rev !diags in
  { r_poll = s.s_poll; r_verdict = verdict_of_diags diags; r_diags = diags }

(* ------------------------------------------------------------------ *)
(* Whole-program entry points                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic work counters for the cost model: how many poll
    summaries the fixpoint pass produced (each one is a dataflow solve
    plus a live-set walk), how many abstract entries those summaries
    hold, and how many per-entry axis checks pair verdicts performed.
    Pure operation counts — no wall clock — so they are stable across
    machines and two runs of the same build agree exactly, which is
    what lets [BENCH_v1] gate them. *)
type stats = {
  mutable st_polls : int;    (** poll summaries computed (per config) *)
  mutable st_entries : int;  (** abstract entries in those summaries *)
  mutable st_checks : int;   (** per-entry axis checks across all pairs *)
}

(** Precomputed program analysis: summaries per source config plus the
    exposure scan, reusable across every pair of a matrix. *)
type t = {
  a_prog : Ir.prog;
  a_table : Pollpoint.table;
  a_exposed : Ty.t list;
  mutable a_sums : (config * poll_sum list) list;
  a_stats : stats;
}

let create (prog : Ir.prog) (table : Pollpoint.table) : t =
  {
    a_prog = prog;
    a_table = table;
    a_exposed = exposed_types prog;
    a_sums = [];
    a_stats = { st_polls = 0; st_entries = 0; st_checks = 0 };
  }

let stats (t : t) : stats = t.a_stats

let sum_entries (s : poll_sum) =
  List.length s.s_longs + List.length s.s_chars + List.length s.s_doubles
  + SS.cardinal s.s_types

let sums_for (t : t) (cfg : config) =
  match List.assoc_opt cfg t.a_sums with
  | Some s -> s
  | None ->
      let s = summarize t.a_prog t.a_table cfg in
      t.a_sums <- (cfg, s) :: t.a_sums;
      t.a_stats.st_polls <- t.a_stats.st_polls + List.length s;
      List.iter
        (fun sum -> t.a_stats.st_entries <- t.a_stats.st_entries + sum_entries sum)
        s;
      s

(** Verdict every poll of the program for the ordered pair [src->dst]. *)
let analyze_pair (t : t) ~(src : Arch.t) ~(dst : Arch.t) : pair_report =
  let sums = sums_for t (config_of src) in
  List.iter
    (fun s -> t.a_stats.st_checks <- t.a_stats.st_checks + sum_entries s)
    sums;
  let polls = List.map (check_poll ~src ~dst t.a_prog.Ir.tenv t.a_exposed) sums in
  let verdict =
    List.fold_left (fun v r -> verdict_join v r.r_verdict) Legal polls
  in
  { p_src = src; p_dst = dst; p_polls = polls; p_verdict = verdict }

(** All ordered pairs over [arches] (including the diagonal, which is
    always Legal: no axis differs). *)
let analyze_matrix (t : t) (arches : Arch.t list) : pair_report list =
  List.concat_map
    (fun src -> List.map (fun dst -> analyze_pair t ~src ~dst) arches)
    arches

(** Convenience: one-shot pair analysis. *)
let analyze (prog : Ir.prog) (table : Pollpoint.table) ~src ~dst =
  analyze_pair (create prog table) ~src ~dst
