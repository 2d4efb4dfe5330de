(** Code addresses in the virtual ISA.

    An address identifies one instruction.  Instructions are unit-sized, so
    the instruction after address [a] lives at [a + 1]; byte sizes only enter
    the picture in the memory-cost model of {!Regionsel_metrics}.  The
    ordering of addresses is what makes a branch "backward" ([target <=
    source]), which is the load-bearing notion for both NET and LEI. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val none : t
(** A sentinel that is not a valid address (valid addresses are [>= 0]).
    Hot paths use it in place of an [option] to stay allocation-free. *)

val is_none : t -> bool
(** [is_none a] iff [a] is the {!none} sentinel (any negative value). *)

val is_backward : src:t -> tgt:t -> bool
(** [is_backward ~src ~tgt] is [tgt <= src]: the transfer moves control to a
    lower (or equal) address, the paper's criterion for a branch that may
    close a loop. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, e.g. [0x104]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
