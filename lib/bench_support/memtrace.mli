(** Memory-traffic benchmark: the {!Ilp_fastpath.Memtraffic} ledger and
    the GC minor-heap counter, per message, for the engine's single-copy
    host data path.

    This is the paper's thesis applied to the host implementation itself:
    protocol cost is dominated by memory traffic, so the benchmark counts
    bytes moved rather than (only) time.  Each point runs one engine in a
    fresh simulated world, sends and receives the same message [msgs]
    times, and averages:

    - the ledger's host bytes copied (per direction) and freshly
      allocated per message.  On the {e native} backend the ledger
      instruments the whole data path (wire kernels, ring staging, TSDU
      hand-off); on the {e simulated} backend only the delivery copy out
      of simulated memory is a host copy;
    - GC minor words per message, which stay flat across message sizes
      when nothing on the path allocates per byte.

    Results serialise to the BENCH_mem.json trajectory consumed by
    EXPERIMENTS.md §MEM and checked by the CI perf-smoke job. *)

type lane = {
  copied_tx : float;  (** ledger: host bytes copied per message on send *)
  copied_rx : float;  (** ledger: host bytes copied per message on receive *)
  allocated : float;  (** ledger: freshly allocated host bytes per message *)
  alloc_blocks : float;  (** ledger: fresh allocations per message *)
  minor_words : float;  (** GC minor-heap words per message *)
  pool_balanced : bool;
      (** acquired = released at lane exit (engine destroyed) *)
}

type point = {
  len : int;  (** payload bytes *)
  wire_len : int;  (** encrypted on-the-wire bytes *)
  mode : Ilp_core.Engine.mode;
  native : bool;
  msgs : int;  (** messages averaged over *)
  lane : lane;
}

type result = {
  points : point list;
  disabled_trace_minor_words : float;
      (** minor-heap words allocated per disabled-path instrumentation
          call (span + instant + begin_packet + counter + histogram);
          gated near zero by {!check} *)
}

type config = {
  sizes : int list;  (** payload sizes; multiples of 8, at least 64 *)
  native_msgs : int;
  sim_msgs : int;  (** fewer: every simulated byte is charged *)
}

(** 1 KiB / 8 KiB / 64 KiB, 64 native and 4 simulated messages. *)
val default_config : config

(** 1 KiB / 64 KiB with fewer messages — the CI smoke variant. *)
val quick_config : config

(** Run the matrix: sizes x (separate, ilp) x (sim, native), one lane
    each.  Raises [Invalid_argument] on a bad config, [Failure] if any
    lane rejects its own message. *)
val run : ?config:config -> unit -> result

(** The acceptance gates, exact on the deterministic ledger.  Every lane:
    no fresh host allocation ([allocated] and [alloc_blocks] zero) and a
    balanced pool (a leaked rx placement buffer fails here).  Receive
    copies the wire bytes exactly once ([copied_rx = wire_len]); send
    copies them once on a native ILP lane, twice on a native separate
    lane and never on a simulated lane.  Each lane's minor words per
    message at the largest size are at most those at the smallest size.
    Disabled-path tracing is allocation-free.  [Error] lists each
    violated gate, naming the lane as [len/mode/backend]. *)
val check : result -> (unit, string list) Stdlib.result

(** Serialise to the BENCH_mem.json schema (hand-rolled writer).
    Includes an ["obs"] key carrying an {!Ilp_obs.Metrics} snapshot. *)
val to_json : result -> string

val write_json : result -> path:string -> unit

(** Aligned console table of the points (via {!Report}). *)
val print_table : result -> unit
