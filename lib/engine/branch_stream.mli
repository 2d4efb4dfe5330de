(** Abstract branch-event streams.

    The paper's substitution argument (Section 2.3) is that every selection
    algorithm consumes only the executed branch stream — [(block, taken?,
    target)] plus static layout — so the selection/cache engine should not
    care where that stream comes from.  This module is the seam: a stream
    is a source of branch events delivered through the caller's reusable
    {!Interp.step} record (the same allocation-free discipline as the step
    loop), with two producers — the live interpreter, which the simulator
    steps directly, and a recorded-event replayer ({!of_events}) — and the
    simulator as the one consumer.

    The parity contract: a run consuming {!of_events} over a recording of
    itself is bit-identical — metrics, telemetry, PRNG-driven fault
    schedules — to the live run, across every policy and workload.  The
    on-disk codec for recordings lives in [Regionsel_persist.Event_log]
    (the persist layer owns framing and checksums; the packed fields it
    frames are defined at the end of this module). *)

type events
(** A compact in-memory recording.  Its one form is the codec's: one
    packed field per event ({!section-packed}), in a zero-filled buffer
    that grows as it fills.  {!bind} gives a recording that form, and
    every recording the system keeps has it: the simulator's ({!bind} at
    [Simulator.create ~record]), a decoded file's, and the daemon's
    ingest buffers.  A bound recording takes every write: appends, all-or-
    nothing batches ({!append_packed}), {!release} and {!recycle}.

    A {!recorder} that nothing has bound yet holds one word per event and
    takes only appends by hand ({!append}, {!append_event}); it replays,
    packs and compares like a bound one.  It stays as the reference form
    the tests compare the packed one with, and for callers that fill a
    recorder by hand; a batch ({!append_packed}) into an empty one binds
    it first.

    Positions are absolute: event [i] is the [i]th event ever appended
    since the recording was created or last {!recycle}d, whatever storage
    was reclaimed since.  A recording that is never {!release}d nor
    recycled holds every event it was given. *)

type t
(** A stream: pulls the next branch event into a caller-owned step record.
    Allocation-free per event. *)

val recorder : ?capacity:int -> unit -> events
(** A fresh, empty, unbound recording, with room for [capacity] events
    (default 1024) before it grows.  Passed as [Simulator.create
    ~record], it is bound to the run's program ({!bind}). *)

val append : events -> Interp.step -> unit
(** Append the event a filled step record describes.  Amortized O(1). *)

val append_event : events -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** Append one event by parts.  A bound recording takes only its
    program's events: a block id below its block count and a successor
    that is a block start or {!Regionsel_isa.Addr.none}.  An unbound one
    takes what its one-word slot holds: a block id in [[0, 2^31)] and a
    successor in [[0, 2^30 - 2]] or {!Regionsel_isa.Addr.none}.
    @raise Invalid_argument on a block id or successor outside those
    ranges, leaving the recording unchanged. *)

val length : events -> int
(** Events appended so far, released ones included. *)

(** {2 Release and recycling}

    A long-lived ingest buffer (the daemon's) need not keep what its
    replay reader has consumed, nor be reallocated per session.

    - {!release} gives up a prefix of positions.  Their bytes are
      reclaimed by the next append that would otherwise grow the buffer:
      the retained events slide down instead, and the buffer grows (to
      twice its capacity, or to the room needed if that is more) only if
      that is not enough.  So its capacity stays below twice the most it
      ever had to hold at once, plus 8 events.  Positions stay absolute:
      {!length} and the cursor of a stream are unchanged by a release.
    - {!recycle} empties the recording for reuse, keeping its buffer, which
      {!bind} may then give to another program.

    Both invalidate readers that would need what they took away.  A
    stream from {!of_events} raises [Invalid_argument] when it pulls at a
    released position, and on every pull after a recycle or a binding of
    its recording (it never delivers the recording's next contents).  The
    getters see only retained positions. *)

val release : events -> int -> unit
(** [release ev upto] gives up every position below [upto]; a value at or
    below the current {!released} is a no-op.  Release only what the
    single replay reader has consumed, or what no reader will ever pull.
    @raise Invalid_argument if [upto > length ev], or on an unbound
    recording. *)

val released : events -> int
(** The first position still readable: [0] until the first {!release}.
    Test oracle: the daemon tracks its own release point. *)

val recycle : events -> unit
(** Empty the recording ([length] and {!released} back to [0]) for a new
    session, keeping its buffer and zeroing what it used.  Every stream
    created before the recycle raises [Invalid_argument] on its next pull.
    @raise Invalid_argument on an unbound recording. *)

val capacity : events -> int
(** Events the recording's storage holds, retained and free, before it
    grows: one word each unbound, one field each bound, in a buffer with
    8 bytes of padding. *)

val storage_bytes : events -> int
(** The bytes that storage takes: the recording's memory, its record
    and layout aside. *)

val get_block_id : events -> int -> int
val get_taken : events -> int -> bool
val get_next : events -> int -> Regionsel_isa.Addr.t
(** The parts of event [i].  Test oracle: the engine reads recordings
    only through {!of_events} and the codec.
    @raise Invalid_argument unless [released ev <= i < length ev]. *)

val equal : events -> events -> bool
(** Same length, same released prefix and the same retained events,
    whatever the forms. *)

val of_events : events -> t
(** The replay producer: each pull delivers the next recorded event,
    starting at position 0; after the last one the stream reports a
    halt, exactly like an interpreter whose program finished.  Events
    appended later are delivered by later pulls.
    @raise Invalid_argument on a pull at a released position, or after
    the recording was recycled or bound. *)

val next_into : t -> Interp.step -> bool
(** Pull one event into the record; [false] when the stream has ended. *)

(** {1:packed Packed recordings}

    The codec's form of a recording, owned here: [Regionsel_persist.Event_log]
    frames, pins and checksums these payloads but never touches a field.
    One event is one [kb + 1 + kn]-bit field, most significant bit first
    and packed back to back: [kb] bits of block id, the taken bit, then
    [kn] bits of successor code, 0 for a halt and otherwise the
    successor's block id plus one.  [kb] and [kn] are the fewest bits that
    hold every block id and every code of the program. *)

type layout
(** A program's field widths, and its successor codes' addresses, which
    the readers of a bound recording use.  That table is built on first
    use and kept with the layout, so a caller that decodes many batches of
    one program (a daemon session) keeps its layout. *)

val layout : Regionsel_isa.Program.t -> layout
(** @raise Invalid_argument for a program of more than 2^27 blocks, whose
    fields would be wider than 56 bits; its [Program.block_id] table alone
    would take gigabytes. *)

val layout_program : layout -> Regionsel_isa.Program.t
(** The program a layout was built from. *)

val field_bits : layout -> int
(** The bits one event takes: [kb + 1 + kn]. *)

val bind : events -> layout -> unit
(** [bind ev l] gives an empty recording (fresh, or {!recycle}d, whatever
    program it was bound to) [l]'s fields: from then on it holds each
    appended event of [l]'s program as its field, in a buffer that costs
    [field_bits l] bits per event, and {!pack} under a layout of the same
    program copies its bits.  An unbound recording's word capacity sizes
    the buffer; a bound one keeps its buffer.  A stream opened on [ev]
    before the binding raises on its next pull.  A no-op on a non-empty
    recording. *)

val pack : layout -> events -> pos:int -> len:int -> Bytes.t -> at:int -> int
(** [pack l ev ~pos ~len out ~at] writes events [pos .. pos+len-1] as
    fields from byte [at] of [out], zero-padded to a whole byte, and
    returns the byte past them.  A recording bound to [l]'s program, or to
    one with the same block starts, is copied bit for bit, 32 bits at a
    time, with no allocation; any other is re-encoded event by event.
    @raise Invalid_argument on a range outside the retained events, an
    event whose block id is outside the program or whose successor is not
    a block start, or an [out] too short. *)

val append_packed : layout -> Bytes.t -> at:int -> n:int -> events -> (unit, string) result
(** [append_packed l b ~at ~n into] appends the [n] fields from byte [at]
    of [b] to [into], all or nothing.  Every field is checked first, in
    one pass that keeps the largest block id and successor code: a field
    outside the program is [Error reason] (a block id fault is named
    whenever any field has one), and [into] is as it was.  Then the
    payload is copied as bits.  An empty unbound [into] is first bound to
    [l].  The fields may lie anywhere in [b], and the bytes after them (a
    checksum, the next frame) are read but never decoded.
    @raise Invalid_argument if the fields overrun [b], [into] is a
    non-empty unbound recording, or [into] is bound to another program. *)
