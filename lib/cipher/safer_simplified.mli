(** The paper's simplified SAFER K-64 (section 3.1).

    The real cipher is ~100x slower than the rest of the stack, which would
    hide any ILP effect, so the authors reduced it to one operation of each
    type it contains: a mixed ADD/XOR key layer on each byte, a mixed
    logarithm/exponential table substitution on each byte, and a final
    2-PHT on each pair of bytes.  It reaches ~50 Mbit/s on a
    SPARCstation 10 — fast enough that memory behaviour, not ALU work,
    dominates.

    The characteristics that drive the paper's cache analysis are kept:
    the algorithm is byte-oriented, reads a key byte-vector and two 256-byte
    tables for every data byte, and its decryption needs more intermediate
    variables than encryption (modelled as a partial register spill to a
    scratch area in simulated memory). *)

type key

(** [expand_key k] takes the 8-byte user key.  Besides the key bytes it
    builds two 2 KiB tables that fold each byte position's key step into
    its table substitution, one per direction, for the batch kernels. *)
val expand_key : string -> key

(** Pure in-place transforms on 8 bytes at the given offset.  They run the
    same core as the charged cipher, which reads the key bytes and the two
    tables separately, so they are the reference the batch kernels are
    tested against. *)
val encrypt_block : key -> Bytes.t -> int -> unit

val decrypt_block : key -> Bytes.t -> int -> unit

val encrypt_string : key -> string -> string
val decrypt_string : key -> string -> string

(** [encrypt_blocks key b ~off ~count] transforms [count] consecutive
    8-byte blocks in place with one folded-table lookup per byte and the
    PHT butterflies, straight-line and allocation-free.  Raises
    [Invalid_argument] if the run is out of bounds. *)
val encrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

(** [charged sim ~key ()] allocates the key vector, the two tables and the
    decryption scratch area in simulated memory and returns the charged
    cipher.  [spill_bytes] (default 4) is how many intermediate bytes the
    decryption kernel spills per block.  Raises [Invalid_argument] unless
    [0 <= spill_bytes <= 8], before allocating anything. *)
val charged :
  Ilp_memsim.Sim.t -> ?spill_bytes:int -> key:string -> unit -> Block_cipher.t
