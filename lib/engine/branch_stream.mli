(** Abstract branch-event streams.

    The paper's substitution argument (Section 2.3) is that every selection
    algorithm consumes only the executed branch stream — [(block, taken?,
    target)] plus static layout — so the selection/cache engine should not
    care where that stream comes from.  This module is the seam: a stream
    is a source of branch events delivered through the caller's reusable
    {!Interp.step} record (the same allocation-free discipline as the step
    loop), with two producers — the live interpreter ({!of_interp}) and a
    recorded-event replayer ({!of_events}) — and the simulator as the one
    consumer.

    The parity contract: a run consuming {!of_events} over a recording of
    itself is bit-identical — metrics, telemetry, PRNG-driven fault
    schedules — to the live run, across every policy and workload.  The
    on-disk codec for recordings lives in [Regionsel_persist.Event_log]
    (the persist layer owns framing and checksums). *)

type events
(** A compact in-memory recording: packed int arrays, ~2 words per event. *)

type t
(** A stream: pulls the next branch event into a caller-owned step record.
    Allocation-free per event. *)

val recorder : ?capacity:int -> unit -> events
(** A fresh, empty recording to pass as [Simulator.create ~record], with
    room for [capacity] events (default 1024) before it grows. *)

val append : events -> Interp.step -> unit
(** Append the event a filled step record describes.  Amortized O(1). *)

val append_event : events -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** Append one event by parts.
    @raise Invalid_argument on a negative block id. *)

(** {2 All-or-nothing appends}

    A batch is written into slots past the current length, which no reader
    ({!length}, {!iter}, {!of_events}, ...) sees, and becomes part of the
    recording only at {!commit}.  A batch abandoned before its commit
    leaves the recording exactly as it was. *)

val reserve : events -> int -> unit
(** [reserve ev n] makes room for [n] slots past the current length
    without changing it. *)

val set_pending : events -> int -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** [set_pending ev i ...] writes slot [length ev + i] of the reserved room.
    @raise Invalid_argument on a negative block id or a slot past the
    recording's capacity. *)

val commit : events -> int -> unit
(** [commit ev n] appends the [n] pending slots to the recording.
    @raise Invalid_argument if fewer than [n] slots were reserved. *)

val length : events -> int

val get_block_id : events -> int -> int
val get_taken : events -> int -> bool
val get_next : events -> int -> Regionsel_isa.Addr.t

val iter :
  (block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit) -> events -> unit

val equal : events -> events -> bool

val of_interp : Interp.t -> t
(** The live producer: each pull executes one block of the program. *)

val of_events : events -> t
(** The replay producer: each pull delivers the next recorded event; after
    the last one the stream reports a halt, exactly like an interpreter
    whose program finished. *)

val next_into : t -> Interp.step -> bool
(** Pull one event into the record; [false] when the stream has ended. *)
