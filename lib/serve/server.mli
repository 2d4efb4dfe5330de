(** The streaming region-selection daemon: a Unix-domain-socket front end
    over {!Regionsel_engine.Multi_stream.Engine}.

    One process, one event loop.  Streaming connections (Hello, Events*,
    Fin — see {!Proto}) each attach one tenant; between socket activity
    the loop runs batch-barrier rounds, each tenant's advance bounded by
    the events its connection has ingested so far.  Control connections
    serve live exports (Prometheus snapshot, JSONL tail) from per-tenant
    metrics recorders sampled at every barrier.  A tenant's recorder
    lives until its Result is sent; its windows then move into one
    daemon-wide ring of retired tenants' windows, and every export
    renders that ring first, oldest first, then the live recorders in
    first-seen order.  A detached session has not finished: it keeps its
    recorder and resumes through it.

    Admission control answers Hello with a typed Reject when tenant slots
    or the shared cache budget saturate.  Backpressure bounds each
    connection's ingest backlog to [ingest_max] unconsumed events by
    removing the socket from the read set — the client's writes block in
    the kernel — resuming at half the bound.  A tenant whose simulation
    is exhausted (step budget spent or program halted) is never paused:
    its backlog cannot drain, so each remaining batch is validated and
    dropped to reach the Fin behind them.

    Ingest buffers are pooled.  A Hello takes a recycled buffer from a
    pool of at most [max_tenants] spares; each Events frame releases the
    events the simulation has consumed before decoding, and the buffer
    compacts over them instead of growing; the session's end returns it.
    Reads are sized to the headroom below [ingest_max] (at least 4 KiB),
    so one buffer never needs more than [ingest_max] plus 4 KiB of
    events plus one Events frame, and never grows to twice that.  [status] reports
    [ingest live <n> pooled <n> slots <total capacity>].
    Outgoing frames are queued per connection and flushed through the
    loop's writability set, so a peer that stops draining its replies
    stalls only itself (and is dropped once its unsent queue passes a
    bound).

    Sessions survive disconnects and daemon restarts: warm state is
    snapshotted through {!Regionsel_persist.Persist.save_file} on
    disconnect and on SIGTERM/SIGINT, keyed by
    {!Regionsel_persist.Persist.session_file} identity, and restored when
    the same (tenant, bench, policy, seed) says Hello again; Welcome
    carries [resume_step] and the client resends events from there, which
    makes a resumed run bit-identical to an uninterrupted one.  A
    {!Regionsel_check.Check.Check_violation} — e.g. from the post-restore
    cache audit — dumps the flight recorder to [state_dir/flight.jsonl]
    and re-raises (the binary maps it to exit code 3). *)

type config = {
  socket_path : string;
  state_dir : string;  (** Session snapshots + flight dumps live here. *)
  budget_bytes : int option;  (** Shared code-cache budget across tenants. *)
  quota_floor : int;  (** Admission floor for per-tenant fair shares. *)
  max_tenants : int;  (** Also the most spare ingest buffers kept. *)
  batch_steps : int;
  ingest_max : int;  (** Per-tenant unconsumed-event bound (backpressure). *)
  n_domains : int option;
  metrics_keep : int;
      (** Windows retained per live tenant recorder, and in total (not per
          tenant) by the ring of finished tenants' windows, which evicts
          its oldest windows first. *)
  verbose : bool;
}

val default_config : socket_path:string -> state_dir:string -> config

val wants_read : backlog:int -> high:int -> paused:bool -> bool
(** The backpressure hysteresis, exposed pure for testing: pause reads at
    [high] unconsumed events, resume only once drained to [high / 2] —
    a tenant hovering at the bound does not flap in and out of the read
    set. *)

val serve : config -> unit
(** Bind, listen and run until a SIGTERM/SIGINT or a [shutdown] control
    command; on the way out every attached tenant is snapshotted and the
    socket is unlinked.  Replaces the process's SIGTERM/SIGINT/SIGPIPE
    handlers for the duration.
    @raise Invalid_argument on a non-positive [batch_steps]/[ingest_max].
    @raise Regionsel_check.Check.Check_violation after dumping the flight
    recorder, if a sanitizer invariant fails. *)
