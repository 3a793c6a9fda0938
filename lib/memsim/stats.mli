(** Access and miss counters for the simulated memory hierarchy.

    The paper's evaluation (its figures 13 and 14) reports memory accesses
    and cache misses broken down by access kind (read / write) and by access
    size (1, 2, 4 or 8 bytes): the size breakdown is what exposes the
    byte-wise behaviour of the simplified SAFER K-64 cipher.  This module is
    the ledger those figures are produced from. *)

type kind =
  | Read   (** data load *)
  | Write  (** data store *)
  | Ifetch (** instruction fetch *)

type t

val create : unit -> t

(** [record_access t kind ~size] counts one access of [size] bytes
    (1, 2, 4 or 8). *)
val record_access : t -> kind -> size:int -> unit

(** [record_miss t kind ~size ~level] counts one miss at cache [level]
    (1 = first-level, 2 = second-level) attributed to an access of
    [size] bytes. *)
val record_miss : t -> kind -> size:int -> level:int -> unit

(** [add_accesses t kind ~size n] / [add_misses t kind ~size ~level n]
    count [n] accesses / misses at once, exactly as [n] calls of
    {!record_access} / {!record_miss} would. *)
val add_accesses : t -> kind -> size:int -> int -> unit

val add_misses : t -> kind -> size:int -> level:int -> int -> unit

(** [accesses t kind] is the total number of accesses of that kind;
    [accesses_of_size t kind ~size] restricts to one access size. *)
val accesses : t -> kind -> int

val accesses_of_size : t -> kind -> size:int -> int

(** Misses at a given cache level, summed over sizes or per size. *)
val misses : t -> kind -> level:int -> int

val misses_of_size : t -> kind -> size:int -> level:int -> int

(** [bytes t kind] is the number of bytes moved by all accesses of [kind]. *)
val bytes : t -> kind -> int

(** [miss_ratio t kind ~level] is misses / accesses (0 when no accesses). *)
val miss_ratio : t -> kind -> level:int -> float

(** Combined first-level data-cache miss ratio over reads and writes, as
    reported in the paper's section 4.2. *)
val data_miss_ratio : t -> float

val reset : t -> unit

(** [accumulate ~into t] adds [t]'s counters into [into]. *)
val accumulate : into:t -> t -> unit

val copy : t -> t

(** [diff a b] is the counter-wise difference [a - b]; with [b] a snapshot
    taken before a code region and [a] one taken after, this attributes the
    region's accesses. *)
val diff : t -> t -> t

(** [scale t f] returns a fresh ledger with every counter multiplied by [f]
    and rounded; used to normalise a scaled-down run to the paper's
    10.7 Mbyte transfer volume. *)
val scale : t -> float -> t

val pp : Format.formatter -> t -> unit
