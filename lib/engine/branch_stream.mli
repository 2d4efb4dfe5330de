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
(** A compact in-memory recording, in one of two backings that every
    reader treats alike:
    - word slots, one int per event: what {!recorder} makes, and what
      batch writes and unbound appends produce;
    - packed: one codec field per event ({!section-packed}), in one of
      two kinds.  A {e bound} recording ({!bind}; every recording the
      simulator makes) is append-only: {!append} and {!append_event} add
      fields to a buffer that doubles as it fills.  A {e decoded}
      recording ({!of_packed}) is read-only: {!append} and {!append_event}
      raise too.  Every other write ({!reserve}, {!set_pending},
      {!commit}, {!release}, {!recycle}, {!append_packed}) raises
      [Invalid_argument] on either kind, and leaves the recording
      unchanged.

    Positions are absolute: event [i] is the [i]th event ever appended
    since the recording was created or last {!recycle}d, whatever storage
    was reclaimed since.  A recording that is never {!release}d nor
    recycled holds every event it was given. *)

type t
(** A stream: pulls the next branch event into a caller-owned step record.
    Allocation-free per event. *)

val recorder : ?capacity:int -> unit -> events
(** A fresh, empty recording on word slots, with room for [capacity]
    events (default 1024) before it grows.  Passed as [Simulator.create
    ~record], it is bound to the run's program ({!bind}). *)

val append : events -> Interp.step -> unit
(** Append the event a filled step record describes.  Amortized O(1). *)

val append_event : events -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** Append one event by parts.  On word slots an event must fit its
    one-word slot: a block id in [[0, 2^31)] and a successor address in
    [[0, 2^30 - 2]] or {!Regionsel_isa.Addr.none}.  A program would need
    about 8 GiB of address table ([Program.block_id]) to reach either
    limit.  A bound recording takes only its program's events: a block
    id below its block count and a successor that is a block start or
    {!Regionsel_isa.Addr.none}.
    @raise Invalid_argument on a block id or successor outside those
    ranges, or on a decoded recording, leaving the recording unchanged. *)

(** {2 All-or-nothing appends}

    A batch is written into slots past the current length, which no reader
    ({!length}, {!iter}, {!of_events}, ...) sees, and becomes part of the
    recording only at {!commit}.  A batch abandoned before its commit
    leaves the recording exactly as it was. *)

val reserve : events -> int -> unit
(** [reserve ev n] makes room for [n] slots past the current length
    without changing it.  Released storage is reused first: the retained
    events slide to the front of the array, and the array grows (to twice
    their capacity, or to the room needed if that is more) only if that
    is not enough.  So a recording's capacity stays below twice the most
    it ever had to hold at once: its retained events plus one
    reservation.
    @raise Invalid_argument on a negative count or a packed recording. *)

val set_pending : events -> int -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** [set_pending ev i ...] writes slot [length ev + i] of the reserved room.
    @raise Invalid_argument on a block id or successor outside the ranges
    of {!append_event}, a slot past the recording's capacity, or a packed
    recording. *)

val commit : events -> int -> unit
(** [commit ev n] appends the [n] pending slots to the recording.
    @raise Invalid_argument if fewer than [n] slots were reserved, or on
    a packed recording. *)

val length : events -> int
(** Events appended so far, released ones included. *)

(** {2 Release and recycling}

    A long-lived ingest buffer (the daemon's) need not keep what its
    replay reader has consumed, nor be reallocated per session.

    - {!release} gives up a prefix of positions.  Their storage is
      reclaimed by the next {!reserve} that would otherwise grow.
      Positions stay absolute: {!length} and the cursor of a stream are
      unchanged by a release.
    - {!recycle} empties the recording for reuse, keeping its storage.

    Both invalidate readers that would need what they took away.  A
    stream from {!of_events} raises [Invalid_argument] when it pulls at a
    released position, and on every pull after a recycle of its
    recording (it never delivers the recording's next contents).  The
    getters and {!iter} see only retained positions. *)

val release : events -> int -> unit
(** [release ev upto] gives up every position below [upto]; a value at or
    below the current {!released} is a no-op.  Release only what the
    single replay reader has consumed, or what no reader will ever pull.
    @raise Invalid_argument if [upto > length ev], or on a packed
    recording. *)

val released : events -> int
(** The first position still readable: [0] until the first {!release}.
    Test oracle: the daemon tracks its own release point. *)

val recycle : events -> unit
(** Empty the recording ([length] and {!released} back to [0]) for a new
    session, keeping its capacity.  Every stream created before the
    recycle raises [Invalid_argument] on its next pull.
    @raise Invalid_argument on a packed recording. *)

val capacity : events -> int
(** Events the recording's storage holds, retained and free, before it
    grows: the recording's memory in events.  Word slots take one word
    each; a bound recording's buffer holds [capacity] fields and 8 bytes
    of padding.  [0] for a decoded recording, which takes no appends. *)

val get_block_id : events -> int -> int
val get_taken : events -> int -> bool
val get_next : events -> int -> Regionsel_isa.Addr.t
(** The parts of event [i].  Test oracle: the engine reads recordings
    only through {!of_events} and the codec.
    @raise Invalid_argument unless [released ev <= i < length ev]. *)

val equal : events -> events -> bool
(** Same length, same released prefix and the same retained events,
    whatever the backings. *)

val of_events : events -> t
(** The replay producer: each pull delivers the next recorded event,
    starting at position 0; after the last one the stream reports a
    halt, exactly like an interpreter whose program finished.  Events
    appended later are delivered by later pulls.  A packed recording is
    read in place.
    @raise Invalid_argument on a pull at a released position, or after
    the recording was recycled or bound. *)

val next_into : t -> Interp.step -> bool
(** Pull one event into the record; [false] when the stream has ended. *)

(** {1:packed Packed recordings}

    The codec's form of a recording, owned here beside the word slots it
    must agree with: [Regionsel_persist.Event_log] frames, pins and
    checksums these payloads but never touches a field.  One event is one
    [kb + 1 + kn]-bit field, most significant bit first and packed back
    to back: [kb] bits of block id, the taken bit, then [kn] bits of
    successor code, 0 for a halt and otherwise the successor's block id
    plus one.  [kb] and [kn] are the fewest bits that hold every block id
    and every code of the program. *)

type layout
(** A program's field widths, and its successor codes' addresses as the
    tables the decoders read.  The tables are built by the first decode
    under the layout and kept with it, so a caller that decodes many
    batches of one program (a daemon session) keeps its layout. *)

val layout : Regionsel_isa.Program.t -> layout

val layout_program : layout -> Regionsel_isa.Program.t
(** The program a layout was built from. *)

val field_bits : layout -> int
(** The bits one event takes: [kb + 1 + kn]. *)

val bind : events -> layout -> unit
(** [bind ev l] makes an empty word-slot recording a bound one: from then
    on it holds each appended event of [l]'s program as its field, in a
    zero-filled buffer sized from its word capacity that doubles as it
    fills, so it costs [field_bits l] bits per event, not a word, and
    {!pack} under a layout of the same program copies its bits.  A
    stream opened on [ev] before the binding raises on its next pull.
    A no-op on a non-empty or packed recording, for fields wider than 56
    bits, and for a program with a block start a word slot cannot hold:
    those keep word slots. *)

val pack : layout -> events -> pos:int -> len:int -> Bytes.t -> at:int -> int
(** [pack l ev ~pos ~len out ~at] writes events [pos .. pos+len-1] as
    fields from byte [at] of [out], zero-padded to a whole byte, and
    returns the byte past them.  Word slots are read once each, in place;
    a packed recording bound to [l]'s program, or whose successor
    addresses are [l]'s block starts, is copied bit for bit, 32 bits at
    a time, with no allocation.
    @raise Invalid_argument on a range outside the retained events, an
    event whose block id is outside the program or whose successor is not
    a block start, or an [out] too short. *)

val of_packed : layout -> Bytes.t -> at:int -> n:int -> (events, string) result
(** [of_packed l b ~at ~n] is the packed recording of the [n] fields from
    byte [at] of [b].  It copies them, so later changes to [b] do not
    reach it, then checks every field in one read-only pass: a block id
    or successor code outside the program is [Error reason], and no
    recording is returned; a batch with both kinds of fault is named by
    its block id.  A returned recording is read-only and reads each field
    in place (one load, two shifts and a table read per replayed event).
    A program of more than 2^27 blocks, whose fields are wider than 56
    bits, gets word slots instead.
    @raise Invalid_argument if the fields overrun [b], or a block starts
    at an address a word slot cannot hold ({!append_event}). *)

val append_packed : layout -> Bytes.t -> at:int -> n:int -> events -> (unit, string) result
(** [append_packed l b ~at ~n into] appends the [n] fields from byte [at]
    of [b] to [into] as word slots, all or nothing: on [Error reason] (a
    field outside the program; a block id fault is named whenever any
    field has one) [into] is as it was.  The fields may lie anywhere in
    [b], and the bytes after them (a checksum, the next frame) are read
    but never decoded.
    @raise Invalid_argument if the fields overrun [b], or [into] is a
    packed recording. *)
