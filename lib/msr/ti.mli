(** The Type Information (TI) table: one entry per type that can describe
    a memory block or scalar element, numbered deterministically from the
    program text so both endpoints of a migration agree on type ids.
    Carries each type's flattened element view, found by the structural
    type.  The per-(arch, type) translation plans ([Hpm_core.Tplan]),
    built lazily and attached to this table, are the moral equivalent of
    the paper's generated per-type saving/restoring functions.  The
    table also holds the program's other per-program constants, computed
    once: its fingerprint and each function's liveness. *)

open Hpm_lang

type entry = {
  tid : int;
  ty : Ty.t;
  key : string;                     (** canonical name, e.g. "struct node*" *)
  elem_kinds : Ty.scalar_kind list; (** flattened element kinds *)
  has_pointer : bool;               (** needs the traversing save path *)
}

(** Derived per-arch tables that later layers attach to a TI table
    ([Hpm_core.Tplan] keeps its plan table here), so they live exactly
    as long as the table. *)
type attached = ..

type t = {
  prog : Hpm_ir.Ir.prog;  (** the program the table describes *)
  tenv : Ty.tenv;
  entries : entry array;
  by_ty : (Ty.t, entry) Hashtbl.t;  (** structural: no string per lookup *)
  fingerprint : int64;
      (** stable program fingerprint: both endpoints must run the same
          migratable program.  FNV-1a of the printed IR, which is
          deterministic for a given source + pre-compiler strategy. *)
  polls : Hpm_ir.Pollpoint.table;
      (** the poll table insertion produced, with each function's liveness *)
  mutable attached : (Hpm_arch.Arch.t * attached) list;
}

(** Build the table for a lowered program, after poll-point insertion:
    scalars first (stable primitive ids), then struct definitions,
    globals, string-literal arrays, and function-local/malloc types in
    program order.  Also computes the fingerprint, once, and keeps every
    function's liveness from the poll table [polls] that insertion
    produced. *)
val build : Hpm_ir.Ir.prog -> Hpm_ir.Pollpoint.table -> t

(** The liveness of one of the program's functions ([Pollpoint.live]
    on [t.polls]).
    @raise Invalid_argument when the program has no function of that
    name. *)
val live : t -> Hpm_ir.Ir.func -> Hpm_ir.Liveness.t

val entry_count : t -> int
val find : t -> Ty.t -> entry option

(** @raise Invalid_argument when the type has no entry. *)
val find_exn : t -> Ty.t -> entry

(** @raise Invalid_argument on out-of-range ids (corrupted streams). *)
val by_tid : t -> int -> entry

(** Wire encoding of a block type as (tid, count): arrays whose element
    type is in the table travel as (element tid, length), so heap blocks
    of runtime-dependent length need no entry of their own. *)
val encode_block_ty : t -> Ty.t -> int * int

val decode_block_ty : t -> int * int -> Ty.t
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
