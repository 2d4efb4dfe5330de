(** The benchmark suite: the twelve SPECint2000 stand-ins (Section 2.3). *)

val all : Spec.t list
(** In the paper's figure order: gzip, vpr, gcc, mcf, crafty, parser, eon,
    perlbmk, gap, vortex, bzip2, twolf. *)

val grid : 'a list -> (Spec.t * 'a) list
(** Every benchmark paired with every element, benchmark-major in {!all}'s
    order: [grid policies] is the (benchmark x policy) matrix. *)

val find : string -> Spec.t option
val names : string list
