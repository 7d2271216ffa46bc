(** The Type Information (TI) table: one entry per type that can describe
    a memory block or scalar element, numbered deterministically from the
    program text so both endpoints of a migration agree on type ids.
    Carries each type's flattened element view.  The per-(arch, type)
    translation plans that every block walk compiles ([Hpm_core.Tplan])
    are the moral equivalent of the paper's generated per-type
    saving/restoring functions. *)

open Hpm_lang

type entry = {
  tid : int;
  ty : Ty.t;
  key : string;                     (** canonical name, e.g. "struct node*" *)
  elem_kinds : Ty.scalar_kind list; (** flattened element kinds *)
  has_pointer : bool;               (** needs the traversing save path *)
}

type t = {
  tenv : Ty.tenv;
  entries : entry array;
  by_key : (string, entry) Hashtbl.t;
}

(** Build the table for a lowered program: scalars first (stable primitive
    ids), then struct definitions, globals, string-literal arrays, and
    function-local/malloc types in program order. *)
val build : Hpm_ir.Ir.prog -> t

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
