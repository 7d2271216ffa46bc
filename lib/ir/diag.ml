(** Unified diagnostics engine for the pre-compiler's static analyses.

    Every check — the syntactic {!Unsafe} scan and the flow-sensitive
    {!Lint} analyses — reports through this module, so all of them share
    stable codes, severities, source locations, rendering (text and
    JSON), [-Werror] promotion and per-code suppression.

    Codes are stable identifiers of the form [HPM-Exxx] (error) and
    [HPM-Wxxx] (warning): the [0xx] range is the syntactic unsafe-feature
    scan, the [1xx] range the dataflow lint, and the [20x]/[21x] ranges
    the arch-pair portability analysis ({!Portability}: [E20x] hard
    incompatibilities, [W21x] value-dependent hazards).
    [docs/DIAGNOSTICS.md] catalogues each code with a minimal triggering
    example. *)

open Hpm_lang
module Json = Hpm_obs.Json

type severity = Error | Warning

type t = { code : string; sev : severity; loc : Ast.loc; msg : string }

(* ------------------------------------------------------------------ *)
(* Code registry                                                       *)
(* ------------------------------------------------------------------ *)

type info = {
  i_code : string;
  i_sev : severity;  (** default severity (before [-Werror] promotion) *)
  i_title : string;
}

let registry =
  [
    { i_code = "HPM-E001"; i_sev = Error; i_title = "untyped malloc" };
    { i_code = "HPM-E002"; i_sev = Error; i_title = "integer cast to pointer" };
    { i_code = "HPM-E003"; i_sev = Error; i_title = "pointer cast to integer" };
    { i_code = "HPM-W004"; i_sev = Warning; i_title = "cast between unrelated pointer types" };
    { i_code = "HPM-W005"; i_sev = Warning; i_title = "long value narrowed" };
    { i_code = "HPM-E101"; i_sev = Error; i_title = "possibly-uninitialized variable live at poll-point" };
    { i_code = "HPM-E102"; i_sev = Error; i_title = "possibly-dangling pointer live at poll-point" };
    { i_code = "HPM-E103"; i_sev = Error; i_title = "possibly-wild pointer live at poll-point" };
    { i_code = "HPM-W104"; i_sev = Warning; i_title = "possible double free" };
    { i_code = "HPM-W105"; i_sev = Warning; i_title = "dead store" };
    { i_code = "HPM-E201"; i_sev = Error; i_title = "long provably exceeds destination long range" };
    { i_code = "HPM-E202"; i_sev = Error; i_title = "wide double demoted to f32 on destination" };
    { i_code = "HPM-E203"; i_sev = Error; i_title = "byte-reinterpreted type laid out differently on destination" };
    { i_code = "HPM-W211"; i_sev = Warning; i_title = "long may exceed destination long range" };
    { i_code = "HPM-W212"; i_sev = Warning; i_title = "possibly-negative char crosses a char-signedness change" };
  ]

let find_info code = List.find_opt (fun i -> String.equal i.i_code code) registry

let is_known code = find_info code <> None

(** Make a diagnostic; the severity comes from the registry, so a check
    cannot accidentally disagree with the catalogue. *)
let make ~code ~loc fmt =
  let sev =
    match find_info code with
    | Some i -> i.i_sev
    | None -> invalid_arg (Printf.sprintf "Diag.make: unregistered code %s" code)
  in
  Fmt.kstr (fun msg -> { code; sev; loc; msg }) fmt

let errors ds = List.filter (fun d -> d.sev = Error) ds
let warnings ds = List.filter (fun d -> d.sev = Warning) ds

(** Occurrence order with a stable tie-break on location, so reports are
    deterministic regardless of which analysis emitted first. *)
let sort ds =
  List.stable_sort
    (fun a b ->
      match compare a.loc.Ast.line b.loc.Ast.line with
      | 0 -> compare a.loc.Ast.col b.loc.Ast.col
      | c -> c)
    ds

(* ------------------------------------------------------------------ *)
(* Configuration: -Werror and per-code suppression                     *)
(* ------------------------------------------------------------------ *)

type config = {
  werror : bool;            (** promote every warning to an error *)
  suppress : string list;   (** codes to drop entirely *)
}

let default_config = { werror = false; suppress = [] }

(** Apply [config]: drop suppressed codes, then promote warnings when
    [werror] is set.  Unknown codes in [suppress] are an error — a typo
    would otherwise silently suppress nothing. *)
let apply (c : config) ds =
  List.iter
    (fun code ->
      if not (is_known code) then
        invalid_arg (Printf.sprintf "unknown diagnostic code %s (see docs/DIAGNOSTICS.md)" code))
    c.suppress;
  let ds = List.filter (fun d -> not (List.mem d.code c.suppress)) ds in
  if c.werror then List.map (fun d -> { d with sev = Error }) ds else ds

(** Exit status the CLI should use for [ds] (after {!apply}). *)
let exit_code ds = if errors ds = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let severity_to_string = function Error -> "error" | Warning -> "warning"

let pp ppf d =
  Fmt.pf ppf "%s[%s] at %a: %s" (severity_to_string d.sev) d.code Ast.pp_loc d.loc
    d.msg

let pp_list ppf ds = List.iter (fun d -> Fmt.pf ppf "%a@." pp d) ds

let to_json_one d =
  Printf.sprintf {|{"code":%s,"severity":%s,"line":%d,"col":%d,"message":%s}|}
    (Json.str d.code)
    (Json.str (severity_to_string d.sev))
    d.loc.Ast.line d.loc.Ast.col (Json.str d.msg)

(** The machine-readable report consumed by CI:
    [{"file":..., "diagnostics":[...], "errors":n, "warnings":n}]. *)
let to_json ~file ds =
  Printf.sprintf {|{"file":%s,"diagnostics":[%s],"errors":%d,"warnings":%d}|}
    (Json.str file)
    (String.concat "," (List.map to_json_one ds))
    (List.length (errors ds))
    (List.length (warnings ds))

(** Raised by the pipeline when a program fails a mandatory check. *)
exception Rejected of t list

let () =
  Printexc.register_printer (function
    | Rejected ds ->
        Some
          (Fmt.str "Diag.Rejected:@.%a" (Fmt.list ~sep:(Fmt.any "@.") pp) ds)
    | _ -> None)

let reject_on_errors ds = match errors ds with [] -> ds | errs -> raise (Rejected errs)
