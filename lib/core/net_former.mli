(** Next-executing-tail trace recording (Section 2.1).

    When a profiled target reaches its threshold, NET "selects a trace by
    interpreting and copying the path that is executed next".  A former is
    fed every subsequently interpreted block and decides when the trace
    ends: at a taken backward branch, at a taken branch targeting the start
    of an existing trace (or of this trace — a completed cycle), or at the
    size limit.  Both the plain NET policy and combined NET (which records
    observed traces without installing them) drive their recordings through
    this module, and they and BOA share its start-point test. *)

open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context

type t

type outcome =
  | Continue
  | Done of Region.path

val start : Program.t -> entry:Addr.t -> t
(** An empty recording of the program's blocks, to begin at [entry]. *)

val entry : t -> Addr.t

val feed : t -> ctx:Context.t -> block:Block.t -> taken:bool -> next:Addr.t -> outcome
(** Extend the recording with one interpreted block, which continues at
    [next] ([Addr.none] if the program halted there or the continuation is
    unknown).  The first fed block must start at the former's entry, and
    every fed block must be a block of the program.  After [Done] the
    former must not be fed again.  [Continue] allocates nothing beyond an
    occasional doubling of the recording. *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: the recording in progress, blocks as start
    addresses, most recent first. *)

val load : program:Program.t -> (unit -> int) -> t
(** Rebuild a former from a {!save} stream, re-resolving blocks in the
    program.  Raises [Failure] on a malformed stream. *)

val is_start_point :
  Context.t -> block:Block.t -> taken:bool -> next:Addr.t -> installing:Policy.action -> bool
(** NET's start-point test (Section 2.1): the interpreted [block]'s branch
    is taken, to a real target [next] that is not cached, is not the entry
    of a region [installing] is about to install on this same event, and
    is backward.  Allocates nothing. *)
