(** Daemon sessions driven from outside the daemon.

    {!Daemon} runs [Regionsel_serve.Server.serve] in a child process
    started by re-executing the benchmark binary, so the daemon's memory
    high-water mark is its own and no thread or domain of the benchmark is
    ever forked.  {!stream} is a step-for-step copy of
    [Regionsel_serve.Client.stream_events] — Hello, 4096-event batches
    from the server's [resume_step], Fin, Result — with each phase timed
    and traced. *)

val vm_hwm_mb : string -> float
(** The [VmHWM] line of a [/proc/PID/status] file, in MiB (0 if absent). *)

module Daemon : sig
  type t

  val serve : socket_path:string -> state_dir:string -> ingest_max:int -> unit
  (** The daemon child's body: [Server.serve] with the default config,
      one domain and the given ingest bound.  Returns on shutdown. *)

  val start :
    exe:string -> socket_path:string -> state_dir:string -> ingest_max:int -> t
  (** Start [exe --serve SOCKET STATE_DIR INGEST_MAX] and wait until the
      socket answers a ping.  @raise Failure if it never does. *)

  val socket_path : t -> string
  val state_dir : t -> string

  val peak_rss_mb : t -> float
  (** The daemon's [VmHWM] so far, in MiB. *)

  val stop : t -> unit
  (** Ask for a shutdown and wait for the process to exit; kill it if it
      does not exit within a few seconds. *)
end

type timing = {
  mutable welcome_ns : int list;  (** Hello sent to Welcome received, per Hello. *)
  mutable result_ns : int;  (** Fin sent to Result received. *)
  mutable encode_ns : int;  (** Client-side [Event_log.encode_batch]. *)
  mutable write_ns : int;  (** Inside [Proto.write_msg] for Events frames. *)
  mutable frames : int;
  mutable bytes : int;
  mutable resumes : int;  (** Welcomes with a non-zero [resume_step]. *)
}

val timing : unit -> timing

type outcome = Finished of string | Truncated of int

val stream :
  ?truncate_at:int ->
  tracer:Trace.t ->
  parent:int ->
  timing:timing ->
  socket_path:string ->
  tenant:string ->
  bench:string ->
  policy:string ->
  seed:int64 ->
  max_steps:int ->
  program:Regionsel_isa.Program.t ->
  Regionsel_engine.Branch_stream.events ->
  outcome
(** One connection of a session, as [Client.stream_events] makes it.
    @raise Regionsel_serve.Client.Rejected on a typed reject.
    @raise Regionsel_serve.Proto.Protocol_error on an unexpected reply. *)

val wait_detached :
  tracer:Trace.t ->
  parent:int ->
  state_dir:string ->
  tenant:string ->
  bench:string ->
  policy:string ->
  seed:int64 ->
  unit
(** Block until the daemon has snapshotted a dropped session (its
    session file exists), so the reconnect finds the tenant detached
    instead of busy.  @raise Failure after 10 s. *)
