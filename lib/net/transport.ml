(** Resilient chunked transfer over {!Netsim} — the reliability layer the
    paper's §2/§4.1 transport assumes but never spells out.

    The migration stream is split into fixed-size chunks, each framed
    with a sequence number, the chunk count, the payload length, and a
    CRC-32 of the payload.  The receiver verifies every frame on receipt;
    a frame that is short, misnumbered, or fails its CRC is NAKed and the
    sender retransmits after an exponential backoff, up to
    [max_retries] attempts per chunk.  When a chunk exhausts its retries
    the transfer aborts: the destination discards everything and the
    *source* still holds the suspended process, so migration degrades to
    "keep running where you are" instead of losing the process.

    Both endpoints live in this process, so the protocol is driven as a
    single loop; all timing is simulated and accounted through
    {!Netsim.tx_time} plus the explicit backoff waits.  Control messages
    (ACK/NAK) travel on a perfect reverse channel — a deliberate
    simplification, documented in docs/FORMAT.md. *)

open Hpm_xdr
module Obs = Hpm_obs.Obs

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), pure OCaml              *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8 (Intel's "slicing-by-N" scheme): [crc_tables] holds
   eight 256-entry tables back to back.  Table 0 is the classic bytewise
   table; entry n of table k is the CRC state after feeding byte n
   followed by k zero bytes, so one step folds eight input bytes with
   eight independent lookups. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* little-endian 32-bit word at [i], unsigned; no bounds check *)
let word_le s i =
  let w = get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFFFFFF

(** CRC-32 of [len] bytes of [s] starting at [pos], as an unsigned int in
    [0, 2^32).  Matches the standard IEEE checksum (zlib's [crc32]).  The
    window is checked once; the loops then read without bounds checks.
    @raise Invalid_argument when the window is not inside [s] *)
let crc32 ?(pos = 0) ?len (s : string) : int =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Transport.crc32";
  let t = crc_tables in
  let tb k i = Array.unsafe_get t ((k * 256) + i) in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let a = !c lxor word_le s !i and b = word_le s (!i + 4) in
    c :=
      tb 7 (a land 0xff)
      lxor tb 6 ((a lsr 8) land 0xff)
      lxor tb 5 ((a lsr 16) land 0xff)
      lxor tb 4 (a lsr 24)
      lxor tb 3 (b land 0xff)
      lxor tb 2 ((b lsr 8) land 0xff)
      lxor tb 1 ((b lsr 16) land 0xff)
      lxor tb 0 (b lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := tb 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* frame := magic "HPCK" | seq i32 | total i32 | len i32 | crc i32 | payload *)
let frame_magic = "HPCK"
let header_bytes = 4 + (4 * 4)

(* ACK/NAK control messages: status byte + seq i32 + crc i32 (of those
   five bytes), 9 bytes on the reverse channel. *)
let control_bytes = 9

(* The frame of [len] bytes of [data] from [pos]: the CRC is computed
   over that slice in place, which is copied once, into the frame. *)
let frame_of ~seq ~total data ~pos ~len : string =
  let b = Buffer.create (header_bytes + len) in
  Buffer.add_string b frame_magic;
  Xdr.put_int_as_i32 b seq;
  Xdr.put_int_as_i32 b total;
  Xdr.put_int_as_i32 b len;
  Xdr.put_int_as_i32 b (crc32 ~pos ~len data);
  Buffer.add_substring b data pos len;
  Buffer.contents b

let encode_frame ~seq ~total (payload : string) : string =
  frame_of ~seq ~total payload ~pos:0 ~len:(String.length payload)

(* Validate a delivered frame against the chunk the receiver expects,
   checking the CRC over the payload in place.  Returns the payload
   length (the payload is [wire] from [header_bytes] on), or a reason
   for the NAK. *)
let check_frame ~expect_seq ~expect_total (wire : string) : (int, string) result =
  if String.length wire < header_bytes then
    Error (Printf.sprintf "short frame: %d bytes" (String.length wire))
  else if String.sub wire 0 4 <> frame_magic then Error "bad frame magic"
  else
    let r = Xdr.reader_of_string wire in
    Xdr.skip r 4;
    let seq = Xdr.get_int_of_i32 r in
    let total = Xdr.get_int_of_i32 r in
    let len = Xdr.get_int_of_i32 r in
    (* the i32 read sign-extends; the CRC is unsigned 32-bit *)
    let crc = Xdr.get_int_of_i32 r land 0xFFFFFFFF in
    if seq <> expect_seq then Error (Printf.sprintf "sequence %d, expected %d" seq expect_seq)
    else if total <> expect_total then
      Error (Printf.sprintf "chunk count %d, expected %d" total expect_total)
    else if len <> String.length wire - header_bytes then
      Error
        (Printf.sprintf "length %d but %d payload bytes arrived" len
           (String.length wire - header_bytes))
    else
      let actual = crc32 ~pos:header_bytes ~len wire in
      if actual <> crc then Error (Printf.sprintf "CRC mismatch (got %08x, want %08x)" actual crc)
      else Ok len

(** Validate a delivered frame against the chunk the receiver expects.
    Returns the payload, or a reason for the NAK. *)
let decode_frame ~expect_seq ~expect_total (wire : string) : (string, string) result =
  Result.map (String.sub wire header_bytes) (check_frame ~expect_seq ~expect_total wire)

(* ------------------------------------------------------------------ *)
(* Heartbeats                                                          *)
(* ------------------------------------------------------------------ *)

(* Liveness frames for long-lived peers (replication subscribers).  Data
   frames only prove a peer alive while a transfer is in flight; between
   deltas a silently dead standby would otherwise go unnoticed until the
   next send.  A heartbeat is a fixed 16-byte frame:

     magic "HPHB" | seq i32 | epoch i32 | crc32 i32

   where the CRC covers the seq and epoch words (bytes 4..11), so a
   corrupted or truncated heartbeat is detected exactly like a corrupted
   data frame.  See docs/FORMAT.md. *)

let heartbeat_magic = "HPHB"
let heartbeat_bytes = 16

let encode_heartbeat ~seq ~epoch : string =
  if seq < 0 then invalid_arg "Transport.encode_heartbeat: negative seq";
  if epoch < 0 then invalid_arg "Transport.encode_heartbeat: negative epoch";
  let b = Buffer.create heartbeat_bytes in
  Buffer.add_string b heartbeat_magic;
  Xdr.put_int_as_i32 b seq;
  Xdr.put_int_as_i32 b epoch;
  let body = Buffer.contents b in
  Xdr.put_int_as_i32 b (crc32 ~pos:4 ~len:8 body);
  Buffer.contents b

(** Validate a delivered heartbeat; returns [(seq, epoch)] or the reason
    the frame is dead on arrival. *)
let decode_heartbeat (wire : string) : (int * int, string) result =
  if String.length wire <> heartbeat_bytes then
    Error (Printf.sprintf "heartbeat is %d bytes, expected %d" (String.length wire)
             heartbeat_bytes)
  else if String.sub wire 0 4 <> heartbeat_magic then Error "bad heartbeat magic"
  else
    let r = Xdr.reader_of_string wire in
    Xdr.skip r 4;
    let seq = Xdr.get_int_of_i32 r in
    let epoch = Xdr.get_int_of_i32 r in
    let crc = Xdr.get_int_of_i32 r land 0xFFFFFFFF in
    let actual = crc32 ~pos:4 ~len:8 wire in
    if actual <> crc then
      Error (Printf.sprintf "heartbeat CRC mismatch (got %08x, want %08x)" actual crc)
    else if seq < 0 || epoch < 0 then Error "negative heartbeat fields"
    else Ok (seq, epoch)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

type config = {
  chunk_size : int;        (** payload bytes per chunk *)
  max_retries : int;       (** retransmissions allowed per chunk *)
  backoff_base_s : float;  (** first retry waits this; doubles per attempt,
                               capped at {!backoff_cap_factor} x base *)
}

let default_config = { chunk_size = 4096; max_retries = 8; backoff_base_s = 1e-3 }

(* Ceiling on the exponential backoff.  Without it the wait doubles
   unconditionally, so a user-supplied --max-retries in the hundreds
   drives 2^k past the float range and t_backoff_s to infinity. *)
let backoff_cap_factor = 1024.0

let backoff_wait config k =
  config.backoff_base_s *. Float.min backoff_cap_factor (2.0 ** float_of_int k)

(** Transfer accounting — the transport-layer sibling of
    {!Hpm_core.Cstats}. *)
type stats = {
  mutable t_chunks : int;        (** data chunks in the stream *)
  mutable t_sent : int;          (** frame transmissions, retries included *)
  mutable t_retries : int;       (** retransmissions (NAK-triggered) *)
  mutable t_resent_bytes : int;  (** wire bytes of retransmitted frames *)
  mutable t_payload_bytes : int; (** stream bytes delivered *)
  mutable t_wire_bytes : int;    (** frames + control messages, all attempts *)
  mutable t_backoff_s : float;   (** simulated time spent backing off *)
  mutable t_time_s : float;      (** total simulated transfer time *)
}

let stats_zero () =
  {
    t_chunks = 0;
    t_sent = 0;
    t_retries = 0;
    t_resent_bytes = 0;
    t_payload_bytes = 0;
    t_wire_bytes = 0;
    t_backoff_s = 0.0;
    t_time_s = 0.0;
  }

type outcome =
  | Delivered of string * stats
  | Aborted of { failed_seq : int; attempts : int; reason : string; stats : stats }

let pp_stats ppf s =
  Fmt.pf ppf
    "transport: %d chunks, %d sent (%d retries, %d B resent), %d B payload / %d B wire, %.4f s (%.4f s backoff)"
    s.t_chunks s.t_sent s.t_retries s.t_resent_bytes s.t_payload_bytes s.t_wire_bytes
    s.t_time_s s.t_backoff_s

(* Publish the final accounting into the observability registry (no-op
   without an installed sink). *)
let publish_stats (st : stats) =
  if Obs.metrics_on () then begin
    let inc name v = Obs.inc name [] ~by:(float_of_int v) in
    inc "hpm_transport_chunks_total" st.t_chunks;
    inc "hpm_transport_sends_total" st.t_sent;
    inc "hpm_transport_retries_total" st.t_retries;
    inc "hpm_transport_resent_bytes_total" st.t_resent_bytes;
    inc "hpm_transport_payload_bytes_total" st.t_payload_bytes;
    inc "hpm_transport_wire_bytes_total" st.t_wire_bytes;
    Obs.inc "hpm_transport_backoff_seconds_total" [] ~by:st.t_backoff_s;
    Obs.inc "hpm_transport_time_seconds_total" [] ~by:st.t_time_s
  end

(** [transfer ?config ?ts0 channel data] runs the chunked protocol and
    either delivers a byte-verified copy of [data] or aborts after a
    chunk exhausts its retries.  Deterministic given the channel's fault
    schedule.  [ts0] is the simulated start time used for trace events
    (chunk retries/aborts); defaults to the ambient {!Obs.now}. *)
let transfer ?(config = default_config) ?ts0 (ch : Netsim.t) (data : string) : outcome =
  if config.chunk_size <= 0 then invalid_arg "Transport.transfer: chunk_size must be positive";
  if config.max_retries < 0 then invalid_arg "Transport.transfer: max_retries must be >= 0";
  let ts0 = match ts0 with Some t -> t | None -> Obs.now () in
  let n = String.length data in
  let total = max 1 ((n + config.chunk_size - 1) / config.chunk_size) in
  let st = stats_zero () in
  st.t_chunks <- total;
  let out = Buffer.create n in
  let control () =
    (* ACK or NAK on the perfect reverse channel *)
    st.t_wire_bytes <- st.t_wire_bytes + control_bytes;
    st.t_time_s <- st.t_time_s +. Netsim.tx_time ch control_bytes
  in
  let rec chunk seq =
    if seq >= total then (
      publish_stats st;
      Delivered (Buffer.contents out, st))
    else
      let off = seq * config.chunk_size in
      let frame = frame_of ~seq ~total data ~pos:off ~len:(min config.chunk_size (n - off)) in
      let rec attempt k =
        let delivered, tx = Netsim.send ch frame in
        st.t_sent <- st.t_sent + 1;
        st.t_wire_bytes <- st.t_wire_bytes + String.length frame;
        st.t_time_s <- st.t_time_s +. tx;
        if k > 0 then (
          st.t_retries <- st.t_retries + 1;
          st.t_resent_bytes <- st.t_resent_bytes + String.length frame);
        match check_frame ~expect_seq:seq ~expect_total:total delivered with
        | Ok len ->
            control ();
            (* the *verified* bytes enter the stream, not the original:
               byte-identity of the delivered stream is a protocol
               guarantee, not an artifact of sharing memory *)
            Buffer.add_substring out delivered header_bytes len;
            st.t_payload_bytes <- st.t_payload_bytes + len;
            chunk (seq + 1)
        | Error reason ->
            control ();
            if k >= config.max_retries then (
              if Obs.tracing () then
                Obs.instant ~ts:(ts0 +. st.t_time_s) ~cat:"transport"
                  ~args:
                    [
                      ("seq", Obs.Trace.I seq);
                      ("attempts", Obs.Trace.I (k + 1));
                      ("reason", Obs.Trace.S reason);
                    ]
                  "chunk-abort";
              publish_stats st;
              Aborted { failed_seq = seq; attempts = k + 1; reason; stats = st })
            else (
              let wait = backoff_wait config k in
              st.t_backoff_s <- st.t_backoff_s +. wait;
              st.t_time_s <- st.t_time_s +. wait;
              if Obs.tracing () then
                Obs.instant ~ts:(ts0 +. st.t_time_s) ~cat:"transport"
                  ~args:
                    [
                      ("seq", Obs.Trace.I seq);
                      ("attempt", Obs.Trace.I (k + 1));
                      ("reason", Obs.Trace.S reason);
                      ("wait_s", Obs.Trace.F wait);
                    ]
                  "chunk-retry";
              attempt (k + 1))
      in
      attempt 0
  in
  chunk 0
