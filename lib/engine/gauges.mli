(** Shared gauges a policy exposes to the measurement machinery.

    Trace combination stores compact observed traces while profiling an
    entry (Section 4.2.1); Figure 18 reports the {e maximum} memory those
    stored traces occupy at any point of the run.  A policy keeps the
    current byte total up to date here and the gauge records the high-water
    mark. *)

type t

val create : unit -> t

val add_observed_bytes : t -> int -> unit
(** Add (or, with a negative argument, subtract) stored observed-trace
    bytes. *)

val observed_bytes : t -> int
(** Currently stored observed-trace bytes. *)

val observed_bytes_high_water : t -> int

val set_blacklisted : t -> int -> unit
(** Record the current number of blacklisted entries (the simulator updates
    this after every fault delivery); the gauge keeps the high-water mark. *)

val blacklisted : t -> int

val blacklisted_high_water : t -> int

val set_links : t -> int -> unit
(** Record the current number of live inter-region links (the simulator
    updates this when links are patched in and after fault deliveries);
    the gauge keeps the high-water mark. *)

val links : t -> int

val links_high_water : t -> int

val save : t -> (int -> unit) -> unit
(** Checkpoint support: emit every gauge (current values and high-water
    marks) as a flat int stream. *)

val load : t -> (unit -> int) -> unit
(** Overwrite every gauge from a {!save} stream.  Nothing is written
    unless the whole stream reads. *)
