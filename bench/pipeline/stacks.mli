(** Layer costs by subtraction: the same recordings are pushed through
    progressively thicker stacks of layers, each timed from outside
    through public entry points, and a layer's cost is the difference
    between its stack and the one beneath it.

    1. [Branch_stream.of_events] drain (and the same drain appending into
       a fresh recording);
    2. [Interp.step_into] over the same number of live events;
    3. [Simulator.run ~replay] under a never-install policy;
    4. the same run under each real policy, plus
       [Run_metrics.of_result]/[to_json] on its result;
    5. a one-tenant [Multi_stream.Engine] over the same replay (NET),
       bare and with a [Metrics.sample] barrier hook;
    6. [Event_log.encode_batch] into 4096-event frames, a
       [Proto.Dechunker] pass over the framed bytes and
       [Event_log.decode_batch] of the frame bodies (plus the file codec,
       [Event_log.encode]/[decode]);
    7. [Persist.encode]/[decode_into] of a NET run stopped at a seeded
       truncation step.

    Every stack is repeated; each reported figure is the median over the
    repetitions of the per-repetition value, with times scaled to the
    reference machine of {!Calibrate}. *)

type input = {
  spec : Regionsel_workload.Spec.t;
  seed : int64;
  events : Regionsel_engine.Branch_stream.events;
  trunc : int;  (** Step at which stack 7 snapshots. *)
}

type result = {
  metrics : (string * float) list;  (** Per-layer figures, by metric name. *)
  serving_ns_per_event : float;
      (** What one streamed event costs the daemon's engine and wire
          layers in process: the mean over all seven policies of stack 4,
          plus the [Multi_stream] and barrier-sampling overheads, plus
          batch decode and dechunking.  The server's residual is session
          time beyond this. *)
}

val run : reps:int -> input list -> result
