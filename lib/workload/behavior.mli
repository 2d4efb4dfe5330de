(** Stochastic branch-behaviour models for synthetic workloads.

    Every conditional branch site in a workload carries a [spec] describing
    how its outcomes unfold over time; every indirect branch site carries an
    [indirect_spec] describing its target distribution.  Specs are pure
    descriptions; {!make_state} instantiates them with a private PRNG stream
    so outcomes are deterministic per seed and independent across sites.
    A state is created once per site and from then on only mutated in
    place, by its decisions and by {!load_state}, so whatever captured it
    (an interpreter op specialised to its kind) keeps seeing the live
    state.

    These models are the knobs that let the twelve synthetic SPECint2000
    stand-ins reproduce the control-flow character the paper attributes to
    each benchmark: biased vs unbiased branches, fixed trip counts, and
    phase changes (Sherwood et al., cited in Section 4.3.1). *)

open Regionsel_isa

type spec =
  | Always_taken
  | Never_taken
  | Bernoulli of float  (** Taken with the given probability, i.i.d. *)
  | Loop of int
      (** [Loop n] is taken [n - 1] times then not-taken once, repeating:
          the back edge of a loop with trip count [n]. Requires [n >= 1]. *)
  | Pattern of bool array  (** Fixed repeating outcome sequence. *)
  | Phased of (int * spec) list
      (** [(k, s)] phases: behave as [s] for [k] decisions, then move to the
          next phase, cycling. Models program phase behaviour. *)

type indirect_spec =
  | Weighted_targets of (Addr.t * float) array
      (** Sample each target with probability proportional to its weight. *)
  | Round_robin of Addr.t array  (** Cycle through targets in order. *)

type bernoulli
(** A Bernoulli site's threshold and private PRNG stream. *)

type loop
(** A loop site's trip count and cursor. *)

type pattern
(** A pattern site's outcomes and cursor. *)

type phased
(** A phased site's phase states and cursors. *)

type state = private
  | S_const of bool
  | S_bernoulli of bernoulli
  | S_loop of loop
  | S_pattern of pattern
  | S_phased of phased
(** Instantiated conditional-branch behaviour (mutable).  The variant is
    exposed read-only so the interpreter can specialise a branch's op to
    its state's kind once, at the branch's first execution: a constant
    becomes a plain jump or fall, and a Bernoulli or loop site runs
    {!bernoulli_decide} or {!loop_decide} on the captured record.  Those
    two functions are the kinds' only definitions, and {!decide} calls
    them too, so a specialised op and the generic one decide alike. *)

type indirect_state
(** Instantiated indirect-branch behaviour (mutable). *)

val make_state : spec -> Regionsel_prng.Splitmix.t -> state
val decide : state -> bool
val bernoulli_decide : bernoulli -> bool
val loop_decide : loop -> bool

val make_indirect : indirect_spec -> Regionsel_prng.Splitmix.t -> indirect_state
(** A weighted site's prefix sums are built here, once
    ({!Regionsel_prng.Splitmix.prefix_sums}), so a draw allocates nothing. *)

val choose : indirect_state -> Addr.t

(** Checkpoint support: serialize a state's mutable position (PRNG limbs
    and cursors) as a flat int stream, and restore it into a state freshly
    instantiated from the same spec.  Loading validates cursors against
    the spec's structure and raises [Failure] on a mismatch. *)

val save_state : state -> (int -> unit) -> unit
val load_state : state -> (unit -> int) -> unit
val save_indirect : indirect_state -> (int -> unit) -> unit
val load_indirect : indirect_state -> (unit -> int) -> unit

val pp_spec : Format.formatter -> spec -> unit
