(** Growable bit buffers: the substrate of the Figure 14 compact trace
    encoding and of snapshot sections.

    Bits are written most-significant-first within each byte, so the
    serialized form is deterministic and the reader consumes bits in write
    order.  A field of up to {!max_bits} bits moves in one call with one
    capacity or bounds check, whatever its alignment. *)

val max_bits : int
(** The widest field {!Writer.add_bits} and {!Reader.read_bits} move in one
    call: 56. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty writer whose buffer starts at [capacity] bytes (default 16)
      and doubles on demand. *)

  val add_bits : t -> int -> int -> unit
  (** [add_bits t v k] appends the [k] low bits of [v], most significant
      first.
      @raise Invalid_argument unless [0 <= k <= max_bits] and
      [0 <= v < 2^k]. *)

  val add_bit : t -> bool -> unit

  val add_bits2 : t -> int -> unit
  (** Append a 2-bit code (value in [[0, 3]]). *)

  val add_uint32 : t -> int -> unit
  (** Append a 32-bit big-endian unsigned value (value in [[0, 2^32)]). *)

  val length_bits : t -> int

  val byte_length : t -> int
  (** Bytes needed to store the bits written so far: the memory-cost of the
      encoding (Figure 18). *)

  val contents : t -> bytes
  (** The written bits, final partial byte zero-padded.  When they fill the
      buffer exactly — as in a writer created with the exact [capacity] it
      needed — the buffer itself is handed over without a copy, so the
      writer must not be written to afterwards. *)
end

module Reader : sig
  type t

  val create : ?pos:int -> bytes -> n_bits:int -> t
  (** A reader over the [n_bits] bits starting at byte [pos] (default 0)
      of the buffer, which is read in place.
      @raise Invalid_argument if those bits are not inside the buffer. *)

  val read_bits : t -> int -> int
  (** [read_bits t k] consumes the next [k] bits as an unsigned value.
      @raise Invalid_argument unless [0 <= k <= max_bits]. *)

  val read_bit : t -> bool
  val read_bits2 : t -> int
  val read_uint32 : t -> int

  val remaining_bits : t -> int

  exception Out_of_bits
  (** Raised when reading past [n_bits]; the reader does not move. *)
end
