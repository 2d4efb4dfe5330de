(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator (branch outcomes, indirect
    targets, workload synthesis) flows through this module so that every run
    is reproducible from a fixed seed.  The generator is SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast, splittable generator
    with good statistical quality for simulation purposes. *)

type t
(** A mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy g] is an independent generator that will produce the same future
    stream as [g]. *)

val state : t -> int * int
(** [state g] is the full generator state as [(hi, lo)] 32-bit limbs.
    Handing the pair to {!set_state} reproduces [g]'s exact remaining
    stream — the checkpoint/restore hook. *)

val set_state : t -> hi:int -> lo:int -> unit
(** Overwrite the generator state with saved limbs.  Raises
    [Invalid_argument] if either limb lies outside [[0, 2^32)]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s remaining stream.  Used to give every
    branch site its own stream so that adding a branch to a workload does not
    perturb the outcomes of unrelated branches. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** [bits30 g] is a uniform integer in [[0, 2^30)]. *)

val int : t -> int -> int
(** [int g bound] is uniform in [[0, bound)]. Requires [bound > 0]. *)

val bits53 : t -> int
(** [bits53 g] is a uniform integer in [[0, 2^53)]: the integer [float]
    is built from, exposed so callers can compare against a precomputed
    integer threshold without boxing a float per draw. *)

val float : t -> float
(** [float g] is uniform in [[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p]. *)

val prefix_sums : float array -> float array
(** [prefix_sums weights] is the array of running sums [w0], [w0 + w1],
    ..., added left to right: the form {!categorical} draws from.  Build
    it once per distribution. *)

val categorical : t -> prefix:float array -> int
(** [categorical g ~prefix] samples an index with probability proportional
    to its weight, where [prefix] is {!prefix_sums} of the weights: it
    draws [x = float g *. total], for [total] the last sum, and returns
    the first index whose sum exceeds [x] (the last index if none does).
    Requires a non-empty array with positive total weight.
    Allocation-free. *)
