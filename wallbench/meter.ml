(* Clocks, heap settling, order statistics, per-layer sample tables and
   the result record shared by every workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Finish the current major GC cycle outside the timed region, so an op
   never pays for garbage left behind by earlier ops or by the
   interpreter. *)
let settle () = Gc.major ()

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  Returns the value and its 1-based rank. *)
let nearest_rank p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "nearest_rank: no samples";
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
  ((sorted xs).(rank - 1), rank)

let median xs = fst (nearest_rank 50.0 xs)

(* The p90 is reported only when at least ten samples lie beyond it;
   with fewer, the tail is too thin for the figure to mean anything. *)
let min_tail = 10

let p90 xs =
  let v, rank = nearest_rank 90.0 xs in
  if Array.length xs - rank >= min_tail then Some v else None

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* Self time of a span: its duration minus its children's.  Children
   here are always sequential calls on the one benchmark thread, so
   their durations never overlap and the sum is their union. *)
let self_time total children = total -. List.fold_left ( +. ) 0.0 children

(* ------------------------------------------------------------------ *)
(* Per-layer sample tables (traced passes only)                        *)
(* ------------------------------------------------------------------ *)

type samples = (string, float list ref) Hashtbl.t

let new_samples () : samples = Hashtbl.create 32

let add (s : samples) name v =
  match Hashtbl.find_opt s name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace s name (ref [ v ])

let get (s : samples) name =
  match Hashtbl.find_opt s name with
  | Some l -> Array.of_list (List.rev !l)
  | None -> [||]

let total s name = sum (get s name)
let med s name = match get s name with [||] -> 0.0 | a -> median a

(* [num /. den], or 0 when the layer did no work of that kind. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  op_s : float array;  (** wall seconds of each op, in op order *)
  run_s : float;
      (** timed wall seconds: the ops plus the program's execution
          between them; heap settling and output checks excluded *)
  failed : int;
  bytes_per_op : float;  (** the workload's byte count per op *)
  layers : (string * float) list;  (** per-layer metrics; traced passes only *)
}

(* A pass driven one op at a time, so that two passes can run
   interleaved and see the same machine state. *)
type cursor = { ops : int; step : int -> unit; finish : unit -> pass }

let drive c =
  for i = 1 to c.ops do
    c.step i
  done;
  c.finish ()

let drive_pair a b =
  for i = 1 to a.ops do
    a.step i;
    b.step i
  done;
  (a.finish (), b.finish ())

(* Accumulates the timed segments of a pass into [run_s]. *)
type run_clock = { mutable acc : float }

let run_clock () = { acc = 0.0 }

let timed rc f =
  let r, dt = time f in
  rc.acc <- rc.acc +. dt;
  (r, dt)

let gc_collections () = (Gc.quick_stat ()).Gc.major_collections

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
