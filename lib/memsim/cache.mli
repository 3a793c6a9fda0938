(** Set-associative cache model with true-LRU replacement.

    Models a single cache level as tag state only — data contents live in
    {!Mem}; the cache decides hit/miss and eviction.  Both the SuperSPARC
    caches (16 KB 4-way data, 20 KB 5-way instruction) and the Alpha 21064
    caches (8 KB direct-mapped) are instances. *)

type write_policy = Write_back | Write_through

type config = {
  size : int;            (** total capacity in bytes *)
  line : int;            (** line size in bytes, a power of two *)
  assoc : int;           (** ways per set; [size / (line * assoc)] sets *)
  write_policy : write_policy;
  write_allocate : bool; (** allocate a line on a write miss *)
}

(** [direct_mapped ~size ~line] is a convenience write-back, write-allocate
    direct-mapped configuration. *)
val direct_mapped : size:int -> line:int -> config

val set_associative : size:int -> line:int -> assoc:int -> config

type t

(** Raises [Invalid_argument] if the geometry is inconsistent: [line] not
    a power of two, [assoc] below 1, or [size] not divisible by
    [line * assoc].  The set count need not be a power of two. *)
val create : config -> t

val config : t -> config

(** Access outcome, packed into an immediate so the per-line hot path
    allocates nothing.  Query it with {!hit}, {!writeback}, {!filled}
    and {!way}. *)
type outcome = int

val hit : outcome -> bool

(** A dirty line was evicted and must be written to the next level. *)
val writeback : outcome -> bool

(** The access allocated a line (miss with allocate), so the next level
    must be read to fill it. *)
val filled : outcome -> bool

(** The way the access touched, as an index for {!retouch} and
    {!rehit}.  Meaningful only when the access hit or filled; a
    store-around miss touches no way. *)
val way : outcome -> int

(** [access t ~addr ~write] touches the single line containing [addr].
    The caller is responsible for splitting accesses that straddle lines. *)
val access : t -> addr:int -> write:bool -> outcome

(** [retouch t ~first ~second ~times] leaves the LRU state exactly as
    [times] repetitions of a hit on way [first] followed by a hit on way
    [second] would ([second] may equal [first]; a negative [second] means
    the repetitions touch [first] alone).  Both ways must be resident.
    Dirtiness is not changed: a repeated write hit finds its line already
    dirty. *)
val retouch : t -> first:int -> second:int -> times:int -> unit

(** [tag t ~addr] is the tag the line holding [addr] is stored under. *)
val tag : t -> addr:int -> int

(** [rehit t ~tags ~ways j] replays read hits on remembered ways.  Line
    [k] of the run has tag [tags.(k)] and was last seen in way [ways.(k)]
    (an index from {!way}, of the set that line maps to; negative for
    "not known").  From [k = j] on, while way [ways.(k)] is valid and
    holds [tags.(k)], it updates the LRU state exactly as a read hit on
    that line ({!access} with [~write:false]) would and goes on to
    [k + 1].  Returns the first [k] whose way does not hold its line, or
    [Array.length tags].  A tag sits in at most one valid way of a set,
    so a way that holds it is the one {!access} would find. *)
val rehit : t -> tags:int array -> ways:int array -> int -> int

(** [present t ~addr] reports whether the line holding [addr] is resident,
    without updating LRU state. *)
val present : t -> addr:int -> bool

(** Invalidate every line (loses dirtiness; used between experiments). *)
val flush : t -> unit

val line_size : t -> int
