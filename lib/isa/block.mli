(** Basic blocks of the virtual ISA.

    A block is a maximal straight-line run of instructions: [size - 1]
    ordinary instructions followed by one terminator.  Instructions are
    unit-sized, so the block occupies addresses [start .. start + size - 1]
    and the terminator sits at [last]. *)

type t = private { start : Addr.t; size : int; term : Terminator.t }

val make : start:Addr.t -> size:int -> term:Terminator.t -> t
(** Requires [size >= 1]. *)

val last : t -> Addr.t
(** Address of the terminator instruction. *)

val fall_addr : t -> Addr.t
(** Address immediately after the block: the not-taken / return-to target. *)

val static_succ : t -> taken:bool -> Addr.t
(** The block the terminator names as the successor in direction [taken]:
    the target of a [Jump], [Call] or taken [Cond], or the fall-through of
    a [Fallthrough] or not-taken [Cond].  [Addr.none] when the target is
    only known at run time (returns, indirect transfers) or the direction
    does not exist. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
