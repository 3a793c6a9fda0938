(** A simulated machine: cache hierarchy, cycle counter and access ledger.

    This is the clock every experiment is measured against.  Data accesses
    move through the first-level data cache, the optional second-level
    cache, and main memory; instruction fetches move through the
    instruction cache; register/ALU work is charged with {!compute}.
    Packet processing time in microseconds is [cycles / clock].

    Cycle charging: a first-level hit costs the configured L1 latency
    (usually 0 — the load pipeline is folded into the instruction's compute
    charge); a miss costs the L2 hit or main-memory latency for the line
    fill, plus a writeback charge when a dirty line is evicted.
    Write-through caches never hold dirty lines; their write traffic is
    assumed absorbed by a write buffer. *)

type t

val create : Config.t -> t
val config : t -> Config.t

(** [read t ~addr ~size] / [write t ~addr ~size] charge one data access of
    [size] bytes (1, 2, 4 or 8) at [addr], splitting across cache lines if
    the access straddles one. *)
val read : t -> addr:int -> size:int -> unit

val write : t -> addr:int -> size:int -> unit

(** [copy t ~src ~dst ~len ~unit_len] charges a CPU copy loop: for each
    [unit_len]-byte unit in turn (1, 2, 4 or 8), one {!read} at [src],
    one {!write} at [dst] and one {!compute} op; a trailing fragment
    shorter than [unit_len] goes byte by byte.  The cycles, the ledger
    and the cache state come out bit for bit as that loop leaves them,
    but a run of units that stays within one source and one destination
    line is simulated once and replayed.  Moves no data (see
    {!Mem.blit}) and allocates nothing. *)
val copy : t -> src:int -> dst:int -> len:int -> unit_len:int -> unit

(** [exec t region] fetches a code region through the instruction cache.
    Only misses cost cycles; the execution cost itself is charged by the
    caller via {!compute}. *)
val exec : t -> Code.region -> unit

(** [compute t ops] charges [ops] abstract ALU operations
    ([ops * compute_scale] cycles). *)
val compute : t -> int -> unit

(** [charge_cycles t c] charges raw cycles (fixed control costs). *)
val charge_cycles : t -> float -> unit

(** [charge_micros t us] charges a latency expressed in microseconds
    (per-packet operating-system costs). *)
val charge_micros : t -> float -> unit

val cycles : t -> float
val micros : t -> float

(** Cycles spent stalled on the memory system (cache fills, write-buffer
    drains) — the quantity the paper's [atom] simulations call "memory
    system time". *)
val stall_cycles : t -> float

val stall_micros : t -> float

(** The instruction-fetch share of {!stall_cycles} (the paper observed
    24-28% on the Alphas under ILP). *)
val ifetch_stall_cycles : t -> float

val stats : t -> Stats.t

(** Zero the cycle counter and the ledger, keeping cache contents (used to
    exclude warm-up from a measurement). *)
val reset_counters : t -> unit

(** Invalidate all caches. *)
val flush_caches : t -> unit
