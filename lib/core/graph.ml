(** The Memory Space Representation graph, G = (V, E).

    A snapshot of a suspended process's memory as the paper's §3 logical
    model: vertices are memory blocks, edges run from each non-null
    pointer element to the block (and element) it references.  The
    migration machinery itself never materializes this graph — collection
    is a fused depth-first traversal — but tests, the Fig. 1 example and
    [migratec graph] inspect it, and [to_dot] renders it for humans.
    Pointers resolve through {!Collect.resolve}, and {!reachable} is the
    roots-and-reachability pass {!Verify}'s orphan check shares. *)

open Hpm_lang
open Hpm_machine

type vertex = {
  v_bid : int;              (** runtime block id *)
  v_ident : Mem.ident;
  v_ty : Ty.t;
  v_size : int;
  v_seg : Mem.seg;
}

type edge = {
  e_src : int;              (** source block id *)
  e_src_ord : int;          (** ordinal of the pointer element in the source *)
  e_dst : int;              (** destination block id *)
  e_dst_ord : int;
      (** ordinal of the referenced element (count = one past the end;
          -1 marks a misaligned interior address) *)
}

type t = { vertices : vertex list; edges : edge list }

let vertex_count g = List.length g.vertices
let edge_count g = List.length g.edges

let vertex_of_block (b : Mem.block) =
  { v_bid = b.Mem.bid; v_ident = b.Mem.ident; v_ty = b.Mem.ty; v_size = b.Mem.size; v_seg = b.Mem.seg }

(** Build the MSR graph of the whole live memory of [interp]'s process:
    every live block is a vertex; every non-null data-pointer element
    that lands in a live block (or one past its end) yields an edge.
    Wild and dangling values contribute no edge and a misaligned
    interior address gets ordinal -1 (collection would fault on both;
    the graph view is used for inspection and is deliberately
    tolerant). *)
let snapshot (ti : Hpm_msr.Ti.t) (interp : Interp.t) : t =
  let mem = interp.Interp.mem in
  let plans = Tplan.table ti mem.Mem.layout and find = Mem.find_block mem in
  let blocks = Mem.live_blocks mem in
  let edges = ref [] in
  List.iter
    (fun (b : Mem.block) ->
      Tplan.iter (Tplan.plan plans b.Mem.ty) ~prims:(fun _ _ -> ()) ~ptr:(fun ord off kind ->
          let edge (dst : Mem.block) e_dst_ord =
            edges := { e_src = b.Mem.bid; e_src_ord = ord; e_dst = dst.Mem.bid; e_dst_ord } :: !edges
          in
          match kind with
          | Ty.KFunc _ -> ()
          | _ -> (
              match Mem.load_scalar mem b off kind with
              | Mem.Vptr addr -> (
                  match Collect.resolve plans ~find interp.Interp.prog addr with
                  | Collect.Rblock (dst, dord) -> edge dst dord
                  | Collect.Rmisaligned (dst, _) -> edge dst (-1)
                  | Collect.Rnull | Collect.Rfunc _ | Collect.Rwild _ -> ())
              | _ -> ())))
    blocks;
  { vertices = List.map vertex_of_block blocks; edges = List.rev !edges }

(** The block ids reachable along [edges] from the roots of [interp]:
    globals, string literals, and every local of every live frame. *)
let reachable (interp : Interp.t) (edges : edge list) : (int, unit) Hashtbl.t =
  let adj = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.add adj e.e_src e.e_dst) edges;
  let mark = Hashtbl.create 64 in
  let rec dfs v =
    if not (Hashtbl.mem mark v) then (
      Hashtbl.replace mark v ();
      List.iter dfs (Hashtbl.find_all adj v))
  in
  let root _ (b : Mem.block) = dfs b.Mem.bid in
  Hashtbl.iter root interp.Interp.globals;
  Array.iter (root ()) interp.Interp.string_blocks;
  List.iter (fun (fr : Interp.frame) -> Hashtbl.iter root fr.Interp.locals) interp.Interp.stack;
  mark

(** Restrict to the component reachable from roots: the sub-graph a
    migration actually has to move. *)
let reachable_from_roots (interp : Interp.t) (g : t) : t =
  let mark = reachable interp g.edges in
  {
    vertices = List.filter (fun v -> Hashtbl.mem mark v.v_bid) g.vertices;
    edges = List.filter (fun e -> Hashtbl.mem mark e.e_src) g.edges;
  }

(** Drop compiler temporaries ([$]-prefixed locals) and their edges: the
    paper's Figure 1 draws source-level variables only. *)
let user_only (g : t) : t =
  let is_temp v =
    match v.v_ident with
    | Mem.Ilocal (_, name) -> String.length name > 0 && name.[0] = '$'
    | _ -> false
  in
  let dropped = Hashtbl.create 8 in
  List.iter (fun v -> if is_temp v then Hashtbl.replace dropped v.v_bid ()) g.vertices;
  {
    vertices = List.filter (fun v -> not (Hashtbl.mem dropped v.v_bid)) g.vertices;
    edges =
      List.filter
        (fun e -> not (Hashtbl.mem dropped e.e_src || Hashtbl.mem dropped e.e_dst))
        g.edges;
  }

let pp_vertex ppf v =
  Fmt.pf ppf "v%d(%s: %s, %dB, %s)" v.v_bid
    (Fmt.str "%a" Mem.pp_ident v.v_ident)
    (Ty.to_string v.v_ty) v.v_size (Mem.seg_to_string v.v_seg)

let pp ppf g =
  Fmt.pf ppf "MSR graph: %d vertices, %d edges@." (vertex_count g) (edge_count g);
  List.iter (fun v -> Fmt.pf ppf "  %a@." pp_vertex v) g.vertices;
  List.iter
    (fun e -> Fmt.pf ppf "  v%d[%d] -> v%d[%d]@." e.e_src e.e_src_ord e.e_dst e.e_dst_ord)
    g.edges

(** Graphviz rendering, grouping vertices by segment like the paper's
    Figure 1. *)
let to_dot g : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph msr {\n  rankdir=LR;\n  node [shape=box];\n";
  let seg_cluster seg label =
    let vs = List.filter (fun v -> v.v_seg = seg) g.vertices in
    if vs <> [] then (
      Buffer.add_string buf
        (Printf.sprintf "  subgraph cluster_%s {\n    label=\"%s\";\n" label label);
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "    v%d [label=\"v%d %s\\n%s\"];\n" v.v_bid v.v_bid
               (String.concat ""
                  (String.split_on_char '"' (Fmt.str "%a" Mem.pp_ident v.v_ident)))
               (Ty.to_string v.v_ty)))
        vs;
      Buffer.add_string buf "  }\n")
  in
  seg_cluster Mem.Global "global";
  seg_cluster Mem.Stack "stack";
  seg_cluster Mem.Heap "heap";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  v%d -> v%d [label=\"%d:%d\"];\n" e.e_src e.e_dst e.e_src_ord
           e.e_dst_ord))
    g.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
