(** In-memory span recorder for the pipeline benchmark.

    Spans are recorded by the benchmark itself, around each call it makes
    into a layer's public entry point; nothing inside the libraries is
    instrumented.  Each span has a name (the layer's module name plus the
    call, e.g. ["simulator.run"]), a start and end on the monotonic clock,
    the span that caused it, and the operation (one cell or one session)
    it belongs to.  Operation root spans also carry counts: events,
    frames and bytes.

    Spans stay in memory and are written once, at exit, as Chrome trace
    JSON.  A disabled recorder runs the wrapped function and records
    nothing. *)

val now_ns : unit -> int
(** The monotonic clock, in nanoseconds. *)

type t

val create : enabled:bool -> t
val enabled : t -> bool

val no_span : int
(** The id a disabled recorder hands out, and the parent of root spans. *)

val span : t -> ?parent:int -> ?op:int -> string -> (int -> 'a) -> 'a
(** [span t ~parent ~op name f] runs [f id] inside a new span and returns
    its result; the span ends when [f] returns or raises.  Without [op]
    the span belongs to its parent's operation.  Safe to call from
    several threads. *)

val count : t -> int -> events:int -> frames:int -> bytes:int -> unit
(** Add counts to a span (normally an operation's root span). *)

type total = {
  name : string;
  calls : int;
  total_ns : int;
  self_ns : int;  (** Duration minus the time its child spans cover. *)
}

val totals : t -> total list
(** Per-name totals over every finished span, largest self time first. *)

val write_chrome : t -> path:string -> unit
(** Chrome trace-event JSON ([chrome://tracing], Perfetto): one complete
    event per span, with its id, parent, operation and counts as args. *)
