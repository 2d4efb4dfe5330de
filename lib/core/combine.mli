(** The combination step both combined policies share (the paper's
    Figure 13).

    Each observed trace is stored compactly under its entry.  After
    [T_prof] observations the entry's traces are combined into one
    multi-path region: decode each stored trace against the program,
    merge them into a CFG, mark blocks occurring in at least [T_min]
    traces, extend the marking along rejoining paths, prune the rest, and
    turn internal exits into edges. *)

open Regionsel_isa
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context

type t
(** The combination step of one policy instance: its observation store,
    and a CFG sized to the program once and reused by every
    combination. *)

val create : Context.t -> Observation_store.t -> t

val observe : t -> entry:Addr.t -> Region.path -> Region.spec option
(** [observe t ~entry path] records [path], an observed trace from
    [entry], in the store.  Once the store holds [Params.combine_t_prof]
    traces for [entry], it takes them, releases [entry]'s counter and
    returns the combined region; otherwise [None].
    @raise Invalid_argument if a stored trace fails to decode or starts at
    a different entry. *)
