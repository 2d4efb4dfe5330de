(** The daemon's wire protocol: a length-prefixed framing of the REVL
    event codec.

    Every frame is [u32 length | u8 kind | payload] (big-endian, length
    counting the kind byte).  A streaming session is

    {v
    client:  Hello ───────────────► server: Welcome {resume_step}
             Events* (encode_batch)         (or Reject {code})
             Fin ─────────────────►         Result {Run_metrics JSON}
    v}

    where [resume_step] tells a reconnecting client how many events of
    its recording the restored session has already consumed — it resends
    from there, which re-aligns the replay cursor the snapshot format
    does not carry.  A control session sends [Ctrl] commands and reads
    [Data] replies on a fresh connection.

    Every malformed byte sequence raises {!Protocol_error} — a typed
    failure the server answers with a [Reject], never a crash; the
    fuzzer's [--frames] axis drives garbage through {!Dechunker} to pin
    that. *)

exception Protocol_error of string

val max_frame : int
(** Upper bound on [length]: a corrupt prefix cannot make either side
    buffer gigabytes. *)

val max_string : int
(** Upper bound on identity strings (tenant, bench, policy, ...). *)

type hello = {
  h_tenant : string;  (** Session identity stem; non-empty. *)
  h_bench : string;
  h_policy : string;
  h_seed : int64;
  h_max_steps : int;
}

type reject_code =
  | Bad_frame  (** Malformed or out-of-sequence frame. *)
  | Unknown_bench
  | Unknown_policy
  | Tenants_saturated  (** Admission: tenant slot limit reached. *)
  | Budget_saturated  (** Admission: shared cache budget saturated. *)
  | Busy_tenant  (** The tenant is already attached to a live connection. *)
  | Corrupt_events  (** An Events batch failed checksum/validation. *)

val reject_code_to_string : reject_code -> string

type msg =
  | Hello of hello
  | Events of bytes
      (** A still-encoded {!Regionsel_persist.Event_log.encode_batch}
          body: the REVL bit packing plus its own CRC32, so corrupt
          event data is caught exactly like a corrupt recording file. *)
  | Fin  (** No more events; finish the tenant and send [Result]. *)
  | Ctrl of string
      (** Control command: [ping], [status], [prom], [jsonl], [jsonl N],
          [shutdown]. *)
  | Welcome of { resume_step : int; session : string }
  | Reject of { code : reject_code; detail : string }
  | Result of string  (** [Run_metrics.to_json] of the finished tenant. *)
  | Data of string  (** A [Ctrl] command's reply body. *)

val encode : msg -> bytes
(** The full frame, length prefix included.
    @raise Invalid_argument on an over-long string or frame. *)

val decode_frame : bytes -> pos:int -> len:int -> msg
(** Decode one frame body ([kind | payload], the length prefix already
    stripped).  @raise Protocol_error on any malformation. *)

(** Incremental frame assembly for the server's event loop: bytes arrive
    in whatever chunks the socket delivers, frames come out only when
    complete — a peer stalling mid-frame stalls only its own dechunker,
    never the loop.  Frames are consumed by offset, and buffered bytes
    move only when more are fed. *)
module Dechunker : sig
  type t

  (** A complete frame.  An [Events_at] body is [len] bytes at [pos] of
      [buf], the dechunker's own buffer: valid only until the next
      {!feed} or {!fill}, which may move or overwrite it, so a caller
      decodes it at once and keeps no reference to it. *)
  type frame = Msg of msg | Events_at of { buf : bytes; pos : int; len : int }

  val create : unit -> t

  val feed : t -> bytes -> pos:int -> len:int -> unit
  (** Append a copy of raw bytes. *)

  val fill : t -> max:int -> (bytes -> int -> int -> int) -> int
  (** [fill t ~max read] makes room for [max] bytes past the buffered
      ones and calls [read buf pos max] once to land bytes there straight
      from their source (the server passes [Unix.read fd]), returning
      what [read] returns: the bytes landed, [0] at end of stream.  An
      exception from [read] passes through with nothing landed.
      @raise Invalid_argument on a negative [max], or a count outside
      [[0, max]]. *)

  val next_frame : t -> frame option
  (** Consume the next complete frame, or [None] if more bytes are
      needed.  An Events body is yielded in place, with no copy.
      @raise Protocol_error on garbage (bad length prefix, malformed
      body) — the connection is beyond recovery. *)

  val next : t -> msg option
  (** {!next_frame} with an Events body copied out of the buffer: for
      callers that keep the body. *)

  val pending : t -> int
  (** Buffered bytes not yet consumed as frames. *)
end

(** {1 Blocking transport} — the client driver and tests; the server
    uses {!Dechunker} over non-blocking reads instead. *)

val write_msg : Unix.file_descr -> msg -> unit
val read_msg : Unix.file_descr -> msg option
(** [None] on clean end-of-stream before a frame starts.
    @raise Protocol_error on garbage or mid-frame end-of-stream. *)
