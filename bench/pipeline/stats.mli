(** Sample statistics for the pipeline benchmark.

    Percentiles use the nearest-rank definition: the [p]th percentile of
    [n] sorted samples is the sample at rank [ceil (p / 100 * n)] (1-based,
    clamped to [1 .. n]).  A tail percentile is only worth reporting when
    enough samples lie beyond it to make it more than the single slowest
    sample, so {!tail} refuses to produce one when fewer than
    {!min_beyond} samples sit past its rank. *)

val min_beyond : int
(** 10: the fewest samples that must lie beyond a reported tail
    percentile. *)

val rank : n:int -> p:float -> int
(** The 1-based nearest rank of percentile [p] (in [0 .. 100]) among [n]
    samples.  @raise Invalid_argument when [n < 1] or [p] is out of
    range. *)

val beyond : n:int -> p:float -> int
(** Samples strictly past the nearest rank: [n - rank ~n ~p]. *)

val percentile : float array -> p:float -> float option
(** Nearest-rank percentile of unsorted samples; [None] when empty. *)

type summary = { n : int; median : float; q1 : float; q3 : float }
(** Median and quartiles are nearest-rank percentiles 50, 25 and 75. *)

val summarize : float array -> summary option
(** [None] on an empty array. *)

val tail : float array -> p:float -> float option
(** The [p]th percentile when at least {!min_beyond} samples lie beyond
    it, [None] otherwise (and on an empty array). *)

type ratio = { num : float; base : float; value : float }
(** A ratio carried with the two quantities it was computed from. *)

val ratio : num:float -> base:float -> ratio
(** [value = num /. base]; a zero base gives [value = 0.0] rather than an
    infinity or a NaN, and the base is kept so a reader can tell. *)
