(** Open-addressing hash table from non-negative int keys to non-negative
    int values: the simulator's per-step probe structure.  A probe is a
    multiply, a shift and a linear scan — no C calls, no indirect calls,
    no allocation.  There is no deletion, and iteration order is
    arbitrary: only use it where that order is never observable. *)

type t

val create : int -> t
(** [create n] sizes the table for about [n] bindings (it grows as
    needed). *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when absent (values are
    non-negative by contract). *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** Bind key to value, inserting or overwriting.
    @raise Invalid_argument on a negative key. *)

val bump : t -> int -> unit
(** Add 1 to the key's count, inserting it at 1 — a single probe.
    @raise Invalid_argument on a negative key. *)

val add_fresh : t -> int -> int -> bool
(** [add_fresh t key n] adds [n] to the key's count, inserting it at [n];
    [true] iff the key was newly inserted.  One probe.
    @raise Invalid_argument on a negative key. *)

val length : t -> int

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> int -> unit) -> t -> unit

val sorted_pairs : t -> (int * int) list
(** All bindings sorted by key — the canonical enumeration snapshot
    codecs must use, so the serialized bytes are a function of the
    table's content and not of its probe-layout history. *)
