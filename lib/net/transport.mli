(** Resilient chunked transfer over {!Netsim}.

    Splits a migration stream into framed chunks (sequence number, chunk
    count, length, CRC-32), verifies each on receipt, NAK-retries bad
    chunks with exponential backoff, and aborts after [max_retries] so
    the source can resume the suspended process locally.  All timing is
    simulated ({!Netsim.tx_time} + backoff) and the whole run is
    deterministic given the channel's seeded fault schedule.

    Frame layout (see docs/FORMAT.md):
    {v magic "HPCK" | seq i32 | total i32 | len i32 | crc32 i32 | payload v} *)

(** CRC-32 (IEEE 802.3 polynomial, zlib-compatible) of [len] bytes of the
    string starting at [pos]; whole string by default.  Unsigned, in
    [0, 2^32).  A slicing-by-8 table kernel: the window is checked once,
    then read without per-byte bounds checks.
    @raise Invalid_argument when the window is not inside the string *)
val crc32 : ?pos:int -> ?len:int -> string -> int

(** Per-frame overhead in wire bytes (magic + seq/total/len/crc). *)
val header_bytes : int

(** ACK/NAK control-message size on the reverse channel. *)
val control_bytes : int

val encode_frame : seq:int -> total:int -> string -> string

(** Validate a delivered frame against the expected position; [Error]
    carries the NAK reason. *)
val decode_frame : expect_seq:int -> expect_total:int -> string -> (string, string) result

(** {1 Heartbeats}

    Liveness frames for long-lived peers (replication subscribers): data
    frames only prove a peer alive while a transfer is in flight.  Layout
    (docs/FORMAT.md):
    {v magic "HPHB" | seq i32 | epoch i32 | crc32 i32 v}
    with the CRC covering the seq and epoch words (bytes 4..11). *)

(** Total size of a heartbeat frame on the wire (16). *)
val heartbeat_bytes : int

(** @raise Invalid_argument on a negative [seq] or [epoch]. *)
val encode_heartbeat : seq:int -> epoch:int -> string

(** Validate a delivered heartbeat; [Ok (seq, epoch)] or the reason the
    frame is dead on arrival (bad size, magic, or CRC). *)
val decode_heartbeat : string -> (int * int, string) result

type config = {
  chunk_size : int;        (** payload bytes per chunk *)
  max_retries : int;       (** retransmissions allowed per chunk *)
  backoff_base_s : float;  (** first retry waits this; doubles per attempt,
                               capped at {!backoff_cap_factor} x base *)
}

(** 4 KiB chunks, 8 retries, 1 ms initial backoff. *)
val default_config : config

(** Ceiling on the exponential backoff, as a multiple of
    [backoff_base_s] (1024): keeps [t_backoff_s] finite under large
    [max_retries]. *)
val backoff_cap_factor : float

(** [backoff_wait config k] is the simulated wait after failed attempt
    [k]: [backoff_base_s *. min backoff_cap_factor (2. ** k)]. *)
val backoff_wait : config -> int -> float

(** Transfer accounting — the transport-layer sibling of
    [Hpm_core.Cstats]. *)
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

type outcome =
  | Delivered of string * stats
      (** the delivered bytes are re-read from verified frames and are
          byte-identical to the input *)
  | Aborted of { failed_seq : int; attempts : int; reason : string; stats : stats }
      (** a chunk exhausted its retries; nothing was handed to the
          destination *)

val pp_stats : Format.formatter -> stats -> unit

(** Run the protocol.  [ts0] is the simulated start time used for the
    observability layer's chunk-retry/abort trace events (defaults to
    the ambient [Hpm_obs.Obs.now]); final stats are also published to
    the metrics registry when one is installed.
    @raise Invalid_argument on a non-positive [chunk_size] or negative
    [max_retries]. *)
val transfer : ?config:config -> ?ts0:float -> Netsim.t -> string -> outcome
