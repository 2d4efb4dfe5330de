(** Machine-speed calibration.

    On a shared host, speed moves with the neighbours' load: the same
    run can take 40% longer a minute later.
    To keep timings comparable across runs, the benchmark times a fixed
    kernel at quiet points (after each cell or session, when nothing else
    of the benchmark runs) and scales every end-to-end timing to a
    machine on which the kernel takes exactly {!reference_ns}.

    The kernel is frozen benchmark code shaped like the engine's hot path
    (hash-table lookups, counter updates, short-lived allocation,
    data-dependent branches), so it slows with the host as the engine
    does, and no change to the libraries can make it faster or slower. *)

val reference_ns : int
(** 1 ms: the kernel time of the reference machine. *)

val sample : wide:bool -> int
(** Time the kernel once, in nanoseconds.  With [wide] the kernel runs
    on this domain and on a second one at the same time and the mean is
    returned: a daemon workload's work is spread over both CPUs.  Not
    reentrant: one sample at a time. *)

val speed : int list -> float
(** The median sample over {!reference_ns}: how much slower than the
    reference machine the host ran (1.0 when there are no samples).
    Divide a time, or multiply a rate, by it to scale it to the
    reference machine. *)
