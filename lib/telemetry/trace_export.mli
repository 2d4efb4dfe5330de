(** Post-run timeline export for a finished {!Telemetry.t}.

    Two formats:

    - {!write_chrome} emits Chrome [trace_event] JSON (the
      ["traceEvents"] object format), loadable in [chrome://tracing] and
      {{:https://ui.perfetto.dev}Perfetto}.  Each region lifetime span
      becomes a complete (["ph":"X"]) event — [ts] is the install step,
      [dur] the residency in steps — packed onto the smallest set of
      tracks such that overlapping spans never share one; faults,
      bailouts and blacklist events become instant (["ph":"i"]) events.
    - {!write_jsonl} emits one JSON object per surviving ring event
      (oldest first), followed by a final summary record with the span
      count, drop count and the four histograms.

    Call {!Telemetry.finish} before exporting so regions still live at the
    end of the run are closed into spans. *)

val write_chrome : ?name:string -> Telemetry.t -> path:string -> unit
(** [name] labels the Perfetto process track (default ["regionsel"]). *)

val write_jsonl : Telemetry.t -> path:string -> unit
