(** Sets of dense ids, as bitsets.

    The ids are a program's block ids ({!Program.block_id}): contiguous in
    [0 .. n - 1] and increasing with start address.  A set is sized to the
    program once and answers membership with one byte read, no hashing.
    Iteration is in ascending id order, which is ascending address order,
    so a checkpoint writer that walks a set emits the same sequence as one
    that sorts the addresses. *)

type t

val create : int -> t
(** [create n] is the empty set over ids [0 .. n - 1].  Requires
    [n >= 0]. *)

val mem : t -> int -> bool
(** [false] for any id outside [0 .. capacity - 1], [-1] included, so a
    {!Program.block_id} miss reads as absent. *)

val add : t -> int -> unit
(** @raise Invalid_argument if the id is outside [0 .. capacity - 1]. *)

val remove : t -> int -> unit
(** A no-op for an absent or out-of-range id. *)

val cardinal : t -> int
(** O(1): the count is maintained by {!add} and {!remove}. *)

val iter : (int -> unit) -> t -> unit
(** In ascending id order. *)
