(** Bit-packed vectors over GF(2).

    A [Bitvec.t] is a fixed-length vector of bits stored 64 per word.
    All indices are 0-based.  Operations raise [Invalid_argument] on
    out-of-range indices or length mismatches. *)

type t

(** [create n] is the all-zero vector of length [n]. *)
val create : int -> t

(** [length v] is the number of bits in [v]. *)
val length : t -> int

(** [get v i] is bit [i] of [v]. *)
val get : t -> int -> bool

(** [set v i b] sets bit [i] of [v] to [b], in place. *)
val set : t -> int -> bool -> unit

(** [flip v i] toggles bit [i] of [v], in place. *)
val flip : t -> int -> unit

(** [copy v] is a fresh vector equal to [v]. *)
val copy : t -> t

(** [xor_into ~src dst] replaces [dst] with [dst XOR src], in place.
    The two vectors must have the same length. *)
val xor_into : src:t -> t -> unit

(** [blit ~src dst] copies [src] over [dst], in place (same length). *)
val blit : src:t -> t -> unit

(** [clear v] zeroes every bit, in place. *)
val clear : t -> unit

(** [xor a b] is the elementwise XOR of [a] and [b] as a fresh vector. *)
val xor : t -> t -> t

(** [and_ a b] is the elementwise AND of [a] and [b] as a fresh vector. *)
val and_ : t -> t -> t

(** [dot a b] is the GF(2) inner product (parity of the AND). *)
val dot : t -> t -> bool

(** [weight v] is the Hamming weight (number of set bits). *)
val weight : t -> int

(** [parity v] is [true] iff [v] has odd weight. *)
val parity : t -> bool

(** [is_zero v] is [true] iff no bit of [v] is set. *)
val is_zero : t -> bool

(** [equal a b] is structural bit equality (lengths must match, else
    the result is [false]). *)
val equal : t -> t -> bool

(** [compare a b] is a total order compatible with [equal]. *)
val compare : t -> t -> int

(** [of_bool_list bs] packs a list of bits. *)
val of_bool_list : bool list -> t

(** [to_bool_list v] unpacks to a list of bits. *)
val to_bool_list : t -> bool list

(** [unpack_into v bits] overwrites [bits] (of length [length v]) with
    the bits of [v]; allocates nothing. *)
val unpack_into : t -> bool array -> unit

(** [of_int_list xs] packs a list of 0/1 integers.  Raises
    [Invalid_argument] on values other than 0 or 1. *)
val of_int_list : int list -> t

(** [to_int_list v] unpacks to a list of 0/1 integers. *)
val to_int_list : t -> int list

(** [of_string s] parses a string of ['0']/['1'] characters. *)
val of_string : string -> t

(** [to_string v] renders as a string of ['0']/['1'] characters,
    lowest index first. *)
val to_string : t -> string

(** [of_int ~width x] is the little-endian binary expansion of [x]
    padded/truncated to [width] bits (bit [i] is [(x lsr i) land 1]).
    [width] must be at most 62. *)
val of_int : width:int -> int -> t

(** [to_int v] reassembles the little-endian integer; the length of
    [v] must be at most 62. *)
val to_int : t -> int

(** [iteri f v] applies [f i b] to every bit. *)
val iteri : (int -> bool -> unit) -> t -> unit

(** [support v] lists the indices of set bits in increasing order. *)
val support : t -> int list

(** [append a b] is the concatenation of [a] and [b]. *)
val append : t -> t -> t

(** [sub v ~pos ~len] extracts [len] bits starting at [pos]. *)
val sub : t -> pos:int -> len:int -> t

(** [randomize ~p rng v] sets each bit of [v] independently to 1 with
    probability [p], using [rng], in place. *)
val randomize : p:float -> Random.State.t -> t -> unit

(** [num_words v] — number of 64-bit words backing [v] (storage is
    padded to a whole number of words; padding bits are always 0). *)
val num_words : t -> int

(** [get_word v j] — the j-th 64-bit word, little-endian bit order
    (bit [64·j + k] of the vector is bit [k] of the word). *)
val get_word : t -> int -> int64

(** [set_word v j w] — overwrite the j-th 64-bit word (inverse of
    {!get_word}).  Bits of [w] beyond the vector length are masked
    off, preserving the all-zero-padding invariant. *)
val set_word : t -> int -> int64 -> unit

(** [pp] formats a vector as its 0/1 string. *)
val pp : Format.formatter -> t -> unit
