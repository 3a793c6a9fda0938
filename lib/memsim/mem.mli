(** Simulated main memory: a flat byte-addressed space whose typed
    accessors move real bytes {e and} charge the owning {!Machine}.

    All multi-byte accessors use network byte order (big-endian), matching
    the XDR and TCP encodings built on top.  The [peek_*]/[poke_*] variants
    touch the bytes without charging the machine — they model agents other
    than the measured CPU (test setup, the simulated network adapter). *)

type t

(** [create machine ~size] allocates a [size]-byte address space
    \[0, size). *)
val create : Machine.t -> size:int -> t

val machine : t -> Machine.t
val size : t -> int

(** {1 Charged accessors (the measured CPU)} *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit

(** [blit t ~src ~dst ~len ~unit_len] copies [len] bytes as a forward
    CPU copy loop working in [unit_len]-byte accesses (1, 2, 4 or 8): each
    unit is one charged read plus one charged write plus one ALU op (see
    {!Machine.copy}).  A trailing fragment shorter than [unit_len] is
    copied byte-wise.  Ranges may overlap with [dst <= src]; the copy is
    then the forward copy's result, the bytes of [src] as they were.
    Raises [Invalid_argument] if [unit_len] is not 1, 2, 4 or 8, if either
    range leaves the address space, or if [dst] lies inside
    \[src + 1, src + len), where a forward copy would replicate bytes.
    A [len] of zero or less copies nothing. *)
val blit : t -> src:int -> dst:int -> len:int -> unit_len:int -> unit

(** {1 Uncharged accessors (everyone else)} *)

val peek_u8 : t -> int -> int
val poke_u8 : t -> int -> int -> unit
val peek_u16 : t -> int -> int
val poke_u16 : t -> int -> int -> unit
val peek_u32 : t -> int -> int
val poke_u32 : t -> int -> int -> unit
val peek_bytes : t -> pos:int -> len:int -> Bytes.t
val poke_bytes : t -> pos:int -> Bytes.t -> unit
val poke_string : t -> pos:int -> string -> unit

(** The backing store itself — the zero-copy uncharged accessor.  Native
    (un-simulated) kernels operate on simulated memory through this
    without per-message staging copies; address arithmetic is the
    caller's.  Like the [peek]/[poke] family, going through it charges
    nothing. *)
val raw : t -> Bytes.t
