(** The recyclable profiling-counter pool.

    Both NET and LEI associate execution counters with a small subset of
    branch targets and recycle a counter once its trace has been selected
    (Sections 2.1 and 3.2.4).  The pool tracks how many counters are live at
    once; the high-water mark is the paper's Figure 10 metric ("maximum
    number of counters in use at any point"). *)

open Regionsel_isa

type t

val create : Program.t -> t
(** An empty pool over the program's blocks: one counter slot per block,
    indexed by {!Program.block_id}. *)

val incr : t -> Addr.t -> int
(** [incr t a] allocates a counter for [a] if none is live and increments
    it, returning the new count.
    @raise Invalid_argument if [a] is not a block start of the program. *)

val peek : t -> Addr.t -> int
(** Current count for [a]; 0 if no counter is live (or [a] is not a block
    start). *)

val release : t -> Addr.t -> unit
(** Recycle the counter for [a] (no-op if none is live). *)

val live : t -> int
(** Number of counters currently allocated. *)

val high_water : t -> int
(** Maximum of {!live} over the pool's lifetime. *)

val total_allocations : t -> int
(** Number of allocations performed, counting re-allocations after release. *)

val live_entries : t -> (Addr.t * int) list
(** Currently live counters with their counts, in ascending address
    order. *)

val reset : t -> unit
(** Forget every live counter (a simulated optimizer crash loses them) while
    keeping the lifetime statistics ({!high_water}, {!total_allocations}),
    which are run metrics rather than recoverable state. *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: emit the live counters and the pool's lifetime
    statistics as a flat int stream. *)

val load : t -> (unit -> int) -> unit
(** Replace the pool's contents from a {!save} stream.  Raises [Failure]
    on a structurally invalid stream (including an address that is not a
    block start, a duplicate address or a count below 1); nothing is
    written unless the whole stream parses. *)
