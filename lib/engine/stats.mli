(** Raw dynamic counts accumulated over one simulated run. *)

type t = {
  mutable steps : int;  (** Blocks executed (interpreted + cached). *)
  mutable interpreted_insts : int;
  mutable cached_insts : int;
  mutable taken_branches : int;
  mutable region_transitions : int;
      (** Exits from one cached region directly into another (the linked-stub
          jumps the paper counts as separation). *)
  mutable dispatches : int;  (** Interpreter-to-cache entries. *)
  mutable cache_exits_to_interp : int;
  mutable installs : int;  (** Regions selected. *)
  mutable links : int;
      (** Distinct region-to-region links created (exit stubs patched to
          jump directly to another region) — the memory the paper's
          footnote 9 expects its algorithms to reduce. *)
  mutable link_hits : int;
      (** Region transitions taken through a patched link slot rather than
          the dispatch array. *)
  mutable node_steps : int;
      (** Cached steps executed through the compiled region automaton. *)
  mutable install_rejects : int;
      (** Install attempts the cache rejected (duplicate, blacklisted or
          translation-failed) or the bailout cooldown suppressed. *)
  mutable faults_injected : int;  (** Fault events delivered to this run. *)
  mutable async_exits : int;
      (** Spurious asynchronous exits that actually kicked execution out of
          region mode. *)
  mutable bailouts : int;  (** Watchdog flush-and-interpret bailouts. *)
  mutable recovery_steps : int;
      (** Steps spent inside a bailout cooldown (pure interpretation). *)
}

val create : unit -> t

(** One counter: its record field name and accessors. *)
type field = { name : string; get : t -> int; set : t -> int -> unit }

val fields : field array
(** Every counter, in declaration order — which is also the {!save}
    order, so reordering it breaks existing snapshots.  Whole-record
    operations iterate this table. *)

val snapshot : t -> t
(** A copy of the current counter values, so windowed readers (the
    bailout watchdog, telemetry samplers) work off a frozen image instead
    of live mutable fields that may advance under them. *)

val diff : earlier:t -> later:t -> t
(** Field-wise [later - earlier], clamped at zero: the activity inside
    one window.  A window that straddles a counter reload (snapshot
    restore to an older image) reads as empty activity, never as a
    negative rate. *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: emit every counter, in {!fields} order. *)

val load : t -> (unit -> int) -> unit
(** Overwrite every counter from a {!save} stream.  All values are read
    before any is stored; a short stream (the reader's exception) or a
    negative counter ([Failure]) leaves [t] untouched. *)

val total_insts : t -> int

val hit_rate : t -> float
(** Fraction of executed instructions executed from the code cache. *)
