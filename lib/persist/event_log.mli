(** On-disk branch-event recordings: the persistent producer half of
    {!Regionsel_engine.Branch_stream}.

    A recording written by [regionsel_sim record] (or any run with
    [Simulator.run ~record]) replays through {!read_file} +
    [Simulator.run ~replay] bit-identically to the original live run,
    given the same params, policy and budget — the identity header pins
    the two stream-determining inputs (program shape and seed) so a
    recording cannot silently replay against the wrong run.

    The format follows the snapshot discipline ({!Persist}): CRC'd header,
    CRC'd bit-packed payload ([~kb+kn+1] bits per event under the
    program's block count).  The payload's fields are
    {!Regionsel_engine.Branch_stream}'s packed fields; this module owns
    the framing, the identity header and the checksums.  Unlike snapshots
    there is no degraded mode — a recording that cannot be replayed
    exactly is useless, so {e every} validation failure raises
    {!Persist.Hard_corruption}, at decode and never later. *)

val write_file :
  path:string ->
  program:Regionsel_isa.Program.t ->
  seed:int64 ->
  Regionsel_engine.Branch_stream.events ->
  int
(** Encode and write atomically (tmp + fsync + rename), returning the
    file's size in bytes.
    @raise Invalid_argument if an event does not fit the program (block id
    out of range, successor not a block start), or the payload's bit count
    does not fit the header's u32 field.
    @raise Unix.Unix_error when the file cannot be written. *)

val read_file :
  path:string ->
  program:Regionsel_isa.Program.t ->
  seed:int64 ->
  Regionsel_engine.Branch_stream.events
(** Read, validate and decode a recording, as {!decode}.
    @raise Sys_error when the file cannot be read.
    @raise Persist.Hard_corruption on any validation failure: bad magic or
    version, checksum mismatch, truncation, out-of-range ids, or an
    identity mismatch (different program shape or seed). *)

val event_bits : Regionsel_isa.Program.t -> int
(** The bits one event takes in a payload (file or batch) for this
    program: block id, taken bit and successor code. *)

(** {1 In-memory codec} — the file body, for tests and corruption drills. *)

val encode :
  program:Regionsel_isa.Program.t ->
  seed:int64 ->
  Regionsel_engine.Branch_stream.events ->
  bytes
(** The file's bytes.  A recording bound to [program] (as every
    recording the simulator makes, and every decoded one) already holds
    the payload's fields and is copied 32 bits at a time; any other is
    re-encoded event by event, as {!write_file} and {!encode_batch} do. *)

val decode :
  bytes ->
  program:Regionsel_isa.Program.t ->
  seed:int64 ->
  Regionsel_engine.Branch_stream.events
(** Check the header, the identity, both checksums and then every field's
    block id and successor code, and return a recording bound to
    [program] that holds a copy of the payload: one
    {!Regionsel_engine.Branch_stream.append_packed} onto an empty
    recording.  Replaying it reads each field in place; later changes to
    the input bytes do not reach it.
    @raise Persist.Hard_corruption on any validation failure, as
    {!read_file}. *)

(** {1 Wire batches} — the daemon's Events-frame body: a slice of a
    recording in the same bit packing and checksum discipline as the
    file, but without the identity header (on the wire, identity was
    pinned by the session handshake). *)

val encode_batch :
  program:Regionsel_isa.Program.t ->
  Regionsel_engine.Branch_stream.events ->
  pos:int ->
  len:int ->
  bytes
(** Encode events [pos .. pos+len-1].
    @raise Invalid_argument on a range outside the recording or its
    released prefix, an event that does not fit the program, or a batch
    whose count or bit count does not fit a u32. *)

val decode_batch :
  ?layout:Regionsel_engine.Branch_stream.layout ->
  ?pos:int ->
  ?len:int ->
  bytes ->
  program:Regionsel_isa.Program.t ->
  into:Regionsel_engine.Branch_stream.events ->
  int
(** Validate and append the batch body at [pos] (default 0) of [bytes],
    [len] bytes long (default: the rest of [bytes]), onto [into] (a live
    replay source may be consuming it), returning the number of events
    appended.  The body may sit inside a larger buffer: the bytes around
    it are never decoded, and nothing of [bytes] is kept after the call.
    [layout], when given, must be [Branch_stream.layout program], kept by
    a caller that decodes many batches of one program; without it one is
    built per call.  The append is all-or-nothing: the events become part
    of [into] only once every one has validated.  An empty unbound [into]
    (a fresh [Branch_stream.recorder ()]) is bound to [program] first.
    @raise Persist.Hard_corruption on any validation failure, leaving
    [into] unchanged.
    @raise Invalid_argument if [pos] and [len] leave [bytes], [layout] is
    another program's, [into] is a non-empty unbound recording, or [into]
    is bound to another program. *)
