(** Shared core of trace combination (the paper's Figure 13).

    Both combined policies observe [T_prof] traces from a profiled entry,
    store them compactly, and then combine them into one multi-path region:
    decode each stored trace against the program, merge them into a CFG,
    mark blocks occurring in at least [T_min] traces, extend the marking
    along rejoining paths, prune the rest, and turn internal exits into
    edges. *)

open Regionsel_isa
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context

val build_region :
  Context.t -> entry:Addr.t -> observations:Compact_trace.t list -> Region.spec option
(** [build_region ctx ~entry ~observations] runs the combination pipeline.
    Returns [None] when no region can be formed (no observations).
    @raise Invalid_argument if an observation fails to decode or starts at
    a different entry. *)
