(** Typed metrics registry: counters, gauges and log2-bucketed histograms.

    One process-wide registry ([default]) is the store for every count the
    stack keeps.  A component whose counts belong to an object ([Link],
    [Tcp.Socket], [Rpc.Server], [Rpc.Client], [Pool], [Crashplan])
    registers a {!family} of counters once at module initialisation and
    gives each object a {!ledger}: one {!bump} raises the object's count
    and the process-wide counter together, so the per-object stats
    accessors and [snapshot]/[render] can never disagree.  Counts with no
    owning object bump a counter directly with {!inc}.

    Instruments are monotonic for the life of the process (counters and
    histograms only ever grow).  Callers that want per-run figures take a
    snapshot before and after and [diff]. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. [inc] never allocates. *)

type gauge
(** Point-in-time integer level; [set]/[add] overwrite or adjust it. *)

type histogram
(** Fixed log2 buckets: bucket 0 holds values [<= 0]; bucket [i >= 1]
    holds values in [[2^(i-1), 2^i - 1]].  [observe] never allocates. *)

val create : unit -> t
val default : t
(** The process-wide registry used by all stack components. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram
(** Find-or-create by name.  Raises [Invalid_argument] if the name is
    already registered as a different instrument kind. *)

val inc : counter -> int -> unit
val counter_value : counter -> int
val set : gauge -> int -> unit
val add_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val observe : histogram -> int -> unit

(* ---- per-object ledgers ---- *)

type family
(** A fixed, ordered set of counters of one registry that per-object
    ledgers are bound to. *)

type slot
(** One counter's position in its family. *)

type ledger
(** One object's counts, one per slot of its family. *)

val family : t -> family
(** An empty family of counters in the given registry. *)

val slot : family -> string -> slot
(** [slot f name] appends the registry counter [name] (find-or-create) to
    [f].  Raises [Invalid_argument] if [name] is already registered as a
    different instrument kind, or if a ledger of [f] already exists. *)

val ledger : family -> ledger
(** A fresh ledger, every count zero.  Seals the family. *)

val bump : ledger -> slot -> int -> unit
(** [bump l s n] adds [n] to the ledger's count and to the family's
    registry counter at [s].  Never allocates. *)

val count : ledger -> slot -> int
(** The ledger's own count at a slot. *)

val n_buckets : int
val bucket_of : int -> int
(** Bucket index a value falls into. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] range of a bucket. *)

(* ---- snapshots ---- *)

type hist = { count : int; sum : int; buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist

type snapshot = (string * value) list
(** Registration order; stable across snapshots of the same registry. *)

val snapshot : t -> snapshot
val find : snapshot -> string -> value option
val percentile : hist -> float -> int
(** [percentile h q] estimates the [q]-quantile ([0.0 <= q <= 1.0]) of
    the observations recorded in [h]: the bucket holding the q-th
    ranked observation is located and the estimate interpolated
    linearly across its [(lo, hi)] span.  Returns [0] for an empty
    histogram.  Raises [Invalid_argument] if [q] is out of range. *)

val counter_diff : snapshot -> snapshot -> string -> int
(** [counter_diff later earlier name]: delta of a counter between two
    snapshots; a name absent from a snapshot counts as 0. *)

val merge : snapshot -> snapshot -> snapshot
(** Counters and histograms add; for gauges the second snapshot wins.
    Names keep the first snapshot's order, new names append. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counters and histograms subtract, gauges keep
    the later value.  Names ordered as in [later]. *)

val render : snapshot -> string
(** Stable plain-text rendering, one instrument per line (histograms add
    an indented bucket line when non-empty). *)

val to_json : snapshot -> string
(** Hand-rolled JSON object keyed by instrument name. *)
