(** The [ilpbench stream] driver: goodput of the streaming TCP data path
    — MSS segmentation, pipelined sliding window and congestion control —
    across an impaired simulated link, versus a stop-and-wait baseline.

    One {!transfer} moves [total_bytes] of incompressible payload as a
    sequence of [tsdu_payload]-byte TSDUs through
    [Ilp_tcp.Socket.send_stream]: the engine's
    {!Ilp_core.Engine.prepare_stream_segments} produces each MSS-sized
    segment with one fused marshal+encrypt+checksum pass straight into
    the retransmission ring, the link delays (and optionally drops)
    datagrams, and the receiver reassembles, decrypts and verifies every
    byte.  Elapsed time is {e simulated} time, so goodput depends on the
    configured RTT and loss — not on this host.

    [Stop_and_wait] is the degenerate window: the receiver advertises
    exactly one MSS, so precisely one segment is ever in flight — the
    latency-bound baseline a pipelined window must beat.

    {!run} sweeps a mode x RTT x loss grid and {!check} gates the result
    (the CI stream-smoke job): pipelined goodput at least 4x stop-and-wait
    on the clean 10 ms-RTT cell, every cell byte-exact.  With
    [~sack_compare:true] the sweep adds a pipelined NewReno (SACK-off)
    baseline and {!check} additionally gates SACK loss recovery: at
    least [min_sack_ratio] (default 2x) the NewReno goodput on the
    10 ms / 5%-loss cell with strictly fewer RTO fallbacks, and a
    byte-identical wire on the clean cell (SACK must cost nothing when
    nothing is lost).  Results serialise to BENCH_stream.json. *)

type mode = Pipelined | Stop_and_wait

val mode_name : mode -> string

type config = {
  total_bytes : int;  (** application payload to move *)
  tsdu_payload : int;  (** payload bytes per TSDU (many MSS each) *)
  mss : int;  (** TCP maximum segment size (multiple of 8) *)
  rtt_us : float;  (** simulated round-trip time *)
  loss_rate : float;  (** independent datagram loss probability *)
  seed : int;
  machine : Ilp_memsim.Config.t;
  mode : mode;
  sack : bool;  (** SACK loss recovery on the data connection *)
  native : bool;
      (** native fast-path kernels (the default for benchmarking; the
          simulated backend charges every byte through the memory
          simulator and is only practical for small tests) *)
  deadline_us : float;  (** simulated-time budget for the transfer *)
}

(** 2 MiB in 32 KiB TSDUs, MSS 1448, clean 10 ms RTT, pipelined,
    native, on the SS10/30 model. *)
val default_config : config

type outcome = {
  ok : bool;  (** every TSDU delivered in order, byte-exact *)
  error : string option;
  payload_bytes : int;  (** bytes verified at the receiver *)
  tsdus : int;  (** TSDUs delivered *)
  elapsed_us : float;  (** simulated time, handshake excluded *)
  goodput_mbps : float;  (** payload_bytes * 8 / elapsed_us *)
  segments : int;
  retransmissions : int;
  fast_retransmits : int;
  rto_fallbacks : int;
      (** retransmission timeouts — the recovery of last resort SACK is
          meant to avoid *)
  peak_in_flight : int;
      (** most payload bytes simultaneously unacknowledged: > one MSS
          only under a pipelined window *)
  ring_wraps : int;
      (** send-ring wrap-arounds — a multi-megabyte transfer must cycle
          the ring *)
  final_cwnd : int;  (** congestion window when the transfer finished *)
  wire_digest : int;
      (** rolling digest over every datagram offered to the wire (both
          directions, send order): equal digests mean byte-identical
          wires *)
  pool_leaks : int;
      (** buffers still outstanding from the engines' pool after
          teardown — 0 unless a placement buffer leaked; not serialised *)
}

(** Run one transfer.  Raises [Invalid_argument] on a malformed config
    (non-positive sizes, MSS not a multiple of 8, ...). *)
val transfer : config -> outcome

type point = {
  p_mode : mode;
  p_sack : bool;
  p_rtt_us : float;
  p_loss : float;
  p_out : outcome;
}

type result = {
  cfg : config;  (** grid base; each point overrides mode/sack/rtt/loss *)
  points : point list;
  gate_ratio : float;
      (** pipelined / stop-and-wait goodput on the clean 10 ms cell
          (0 when the grid lacks that cell) *)
  sack_ratio : float;
      (** pipelined SACK / NewReno goodput on the 10 ms, 5%-loss cell
          (0 unless the run carried both variants) *)
}

(** Sweep the grid: both modes x RTT {2, 10 ms} x loss {0, 1%, 5%, 10%}.
    [quick] shrinks the transfer and the grid for CI.  [sack_compare]
    adds a pipelined sweep with SACK inverted (a NewReno baseline under
    the default config), enabling the SACK gates in {!check}. *)
val run : ?quick:bool -> ?sack_compare:bool -> ?config:config -> unit -> result

(** The stream gates: every cell byte-exact with a balanced pool,
    stop-and-wait strictly serial (peak_in_flight = 1), pipelined cells
    actually pipelined, and [gate_ratio >= min_ratio] (default 4.0).
    When the run carried both SACK variants (see {!run}): [sack_ratio >=
    min_sack_ratio] (default 2.0), strictly fewer RTO fallbacks with SACK
    on the lossy gate cell, and equal [wire_digest] on the clean cell. *)
val check :
  ?min_ratio:float -> ?min_sack_ratio:float -> result ->
  (unit, string list) Stdlib.result

val to_json : result -> string
val write_json : result -> path:string -> unit
val print_table : result -> unit
