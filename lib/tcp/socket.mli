(** The user-level TCP endpoint.

    This reproduces the architecture of the paper's section 3.1: a TCP that
    runs in user space on top of a kernel datagram service, with fixed-size
    headers, one application message per segment (ALF: one TSDU = one
    TPDU), a ring retransmission buffer in simulated memory, cumulative
    acknowledgements, Jacobson RTO with Karn's rule, and flow control from
    the advertised window.

    {2 Where the ILP loop plugs in}

    {b Send}: {!send_message} reserves contiguous ring space and calls the
    caller's [fill] function with its address.  A non-ILP stack fills it
    with a plain charged copy after marshalling and encrypting elsewhere; a
    fused stack marshals, encrypts and checksums while writing.  If [fill]
    returns the payload's checksum accumulator, [tcp_output] uses it;
    otherwise it performs its own charged checksum pass over the ring —
    exactly the difference between figure 3's two columns.

    {b Receive}: after the charged system copy of an in-order segment into
    the receive staging area, the configured {!rx_processing} runs: either
    TCP checksums the segment itself and then hands the payload to a
    separate manipulation pass, or an integrated handler does everything in
    one loop and returns the payload sum for TCP to verify (the paper's
    three-stage processing: the segment is accepted or rejected in the
    final stage). *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Time_wait

val state_to_string : state -> string

type config = {
  mss : int;  (** maximum payload bytes per segment *)
  send_buffer : int;  (** retransmission ring size in bytes *)
  recv_window : int;  (** advertised window *)
  rto_initial_us : float;
  rto_min_us : float;  (** the RTO ceiling is fixed at 4 s *)
  ack_delay_us : float;
      (** 0 (the default, as in the paper's TCP) acknowledges every data
          segment immediately; > 0 enables RFC 1122-style delayed acks
          with this holding time *)
  congestion_control : bool;
      (** RFC 5681-style slow start / congestion avoidance / fast
          recovery on the sender (on by default; the paper's loopback
          experiments are never congestion-limited, but a production
          stack needs it).  Fast retransmit on the third duplicate ack
          runs either way. *)
  sack : bool;
      (** selective acknowledgements (RFC 2018/3517), on by default: the
          receiver reports its out-of-order stash as SACK blocks on pure
          acks, and the sender keeps a per-segment scoreboard to
          retransmit every inferred hole per RTT during recovery.  With
          nothing out of order no options are emitted, so a clean-link
          run is wire-identical with this on or off.  Data segments
          never carry options (the paper's fixed-header ILP
          precondition); a data segment arriving with options is dropped
          as [Bad_header]. *)
  ooo_slots : int;
      (** out-of-order stash capacity in segments.  0 (the default)
          auto-sizes to cover a full receive window of MSS segments plus
          reordering slack, [max 8 (recv_window/mss + 4)]; an explicit
          positive value is honoured unchanged.  In-window segments
          beyond the stash are dropped (and recovered by
          retransmission), so an undersized stash degrades a multi-loss
          flight into serial per-RTT recovery — the failure mode the
          auto default exists to prevent *)
  stall_deadline_us : float;
      (** a peer window stalled (too small for the pending message) for
          this long aborts the connection with {!Peer_stalled}; until
          then the persist timer probes it every 5 ms, doubling per probe
          up to 320 ms *)
  max_tsdu : int;
      (** largest reassembled TSDU the raw receive path accepts (sizes
          the [Rx_raw] reassembly area; clamped up to [mss]).  The
          engine-backed paths bound reassembly by their own
          [max_message] instead. *)
}

val default_config : config

type rx_processing =
  | Rx_raw
      (** checksum pass by TCP, payload delivered as-is (control path and
          tests) *)
  | Rx_separate of
      (Ilp_memsim.Mem.t ->
      src:int ->
      dst_off:int ->
      len:int ->
      (unit, string) result)
      (** checksum pass by TCP, then the handler's own passes over the
          staging area (non-ILP); [dst_off] is this segment's byte offset
          within the TSDU being reassembled (0 for a single-segment
          message); [Error] rejects the segment, which is dropped and
          counted, never delivered *)
  | Rx_integrated of
      (Ilp_memsim.Mem.t ->
      src:int ->
      dst_off:int ->
      len:int ->
      (Ilp_checksum.Internet.acc, string) result)
      (** one fused pass returning the payload checksum (ILP); [dst_off]
          as for [Rx_separate]; [Error] (a length the loop cannot
          process) rejects the segment before any checksum verdict *)

type send_error = Not_established | Message_too_big | Buffer_full | Window_full

(** Why a received datagram was dropped rather than delivered:
    - [Bad_ip]: IP validation failed (bad version/IHL, header checksum,
      length mismatch from wire truncation or padding, wrong protocol);
    - [Bad_header]: too short to carry a 20-byte TCP header;
    - [Bad_length]: segment longer than this connection's maximum, or a
      payload length the configured receive processing rejected;
    - [Bad_checksum]: the end-to-end TCP checksum verdict failed;
    - [Out_of_window]: an in-window out-of-order segment arrived with no
      stash slot free. *)
type drop_reason = Bad_ip | Bad_header | Bad_length | Bad_checksum | Out_of_window

val drop_reasons : drop_reason list
val drop_reason_to_string : drop_reason -> string

(** Why the connection was torn down by the stack rather than by a clean
    close: data, handshake or FIN retransmissions hit 8 retries, the
    peer's advertised window stayed too small for the pending message
    past [stall_deadline_us] ([Peer_stalled]), the peer acknowledged
    sequence space beyond anything this endpoint ever sent — an
    optimistic-ack attack trying to drive the sender faster than the
    real round-trip ([Misbehaving_peer]) — or the peer (typically a
    crashed-and-restarted host that no longer knows the connection)
    answered with an acceptable RST ([Connection_reset]).
    [Connection_reset] is deliberately distinct from [Retry_exhausted]:
    a reset is positive evidence the peer is up but forgot the
    connection, while retry exhaustion is silence. *)
type abort_reason =
  | Retry_exhausted
  | Handshake_failed
  | Close_timeout
  | Peer_stalled
  | Misbehaving_peer
  | Connection_reset

val abort_reason_to_string : abort_reason -> string

(** Verdict of a keepalive probe cycle (see {!start_keepalive}):
    [Peer_alive] — an outstanding probe was answered; [Peer_reset] — a
    probe was answered with RST (half-open connection: the peer
    restarted), the connection aborts with {!Connection_reset};
    [Peer_silent] — the probe budget was exhausted without an answer,
    the connection aborts with {!Retry_exhausted}. *)
type keepalive_verdict = Peer_alive | Peer_reset | Peer_silent

val keepalive_verdict_to_string : keepalive_verdict -> string

type t

(** [create sim clock config ~local_port ~wire_out] builds an endpoint.
    [wire_out] injects a datagram into the network (usually
    [Link.send]). *)
val create :
  Ilp_memsim.Sim.t ->
  Ilp_netsim.Simclock.t ->
  config ->
  local_port:int ->
  wire_out:(Ilp_netsim.Datagram.t -> unit) ->
  t

(** Feed a datagram from the network (bind this via {!Demux.bind}). *)
val handle_datagram : t -> Ilp_netsim.Datagram.t -> unit

val connect : t -> remote_port:int -> unit
val listen : t -> unit

(** Half-close after all queued data is acknowledged. *)
val close : t -> unit

(** Tear the socket down as a crashing host does: no FIN, no abort
    callback — every queue, ring reservation and timer is dropped
    immediately ([Simclock.pending_count ~owner:(timer_owner t)] is 0
    afterwards).  The socket answers later segments with RST (it is a
    dead connection, not a cleanly closed one) and cannot be reused. *)
val destroy : t -> unit

(** True after {!destroy}. *)
val destroyed : t -> bool

(** The {!Ilp_netsim.Simclock} owner id tagging every timer this socket
    schedules — assert [Simclock.pending_count ~owner = 0] after
    {!destroy} or an abort to prove timer hygiene. *)
val timer_owner : t -> int

(** [start_keepalive t ?interval_us ?probes ~on_result ()] monitors an
    established connection for a half-open peer: every [interval_us]
    (default 50ms) of further silence sends one probe (an
    already-acknowledged garbage byte, the persist probe's wire shape).
    Any inbound segment answers an outstanding probe with [Peer_alive]
    (and the monitor keeps running); an acceptable RST reports
    [Peer_reset] and aborts {!Connection_reset}; [probes] (default 3)
    unanswered probes report [Peer_silent] and abort {!Retry_exhausted}.
    Terminal verdicts fire [on_result] before the abort callback. *)
val start_keepalive :
  t ->
  ?interval_us:float ->
  ?probes:int ->
  on_result:(keepalive_verdict -> unit) ->
  unit ->
  unit

val stop_keepalive : t -> unit

(** [reset_for dgram] is the RST a crashed host's address answers [dgram]
    with while the host is down and no socket exists at all: [None] for
    malformed input and for resets (never reset a reset), otherwise the
    RFC 793 reset echoing the segment's acknowledgement (or, for a SYN,
    acknowledging it with [SEQ=0]).  Used by the netsim crash plan's
    reset responder; sockets answer for themselves via their own receive
    path. *)
val reset_for : Ilp_netsim.Datagram.t -> Ilp_netsim.Datagram.t option

val state : t -> state
val local_port : t -> int

(** See module preamble.  [fill mem ~dst] must write exactly [len] bytes at
    [dst] and may return the payload checksum accumulator. *)
val send_message :
  t ->
  len:int ->
  fill:(Ilp_memsim.Mem.t -> dst:int -> Ilp_checksum.Internet.acc option) ->
  (unit, send_error) result

(** [send_stream t ?seg_unit ~len ~fill] queues a [len]-byte TSDU for
    pipelined streaming: the socket cuts it into MSS-sized segments,
    keeps as many in flight as the sliding window allows, and calls
    [fill mem ~dst ~off ~len] once per segment to produce bytes
    [off, off+len) of the TSDU directly in the retransmission ring (one
    fused ILP pass per segment when [fill] returns the payload checksum
    accumulator).  Segment lengths are multiples of [seg_unit] (default
    1; a cipher-block-aligned engine passes its block size), and [len]
    must be a positive multiple of [seg_unit] no larger than what a
    segment can describe.  The final segment carries PSH; the receiver
    reassembles in order and delivers the whole TSDU to [on_message].
    Up to 8 TSDUs queue behind one another
    ([Buffer_full] beyond that); [send_message] also reports
    [Buffer_full] while a stream is pending, so single-message and
    streamed traffic never interleave within a connection. *)
val send_stream :
  t ->
  ?seg_unit:int ->
  len:int ->
  fill:
    (Ilp_memsim.Mem.t -> dst:int -> off:int -> len:int ->
    Ilp_checksum.Internet.acc option) ->
  (unit, send_error) result

(** TSDUs accepted by {!send_stream} and not yet fully transmitted. *)
val pending_streams : t -> int

(** Send-ring wrap count (see {!Ring.wraps}) — witnesses that a
    streaming transfer cycled the retransmission buffer. *)
val ring_wraps : t -> int

val set_rx_processing : t -> rx_processing -> unit

(** [set_rx_framing t on] enables the v2 ("Reverso") framed receive: the
    peer prefixes every streamed TSDU with a cleartext {!Framing} prelude
    carrying the TSDU's engine wire length, which this receiver parses
    (and covers with the segment checksum) to learn each segment's final
    placement offset before decryption.  With the extent known,
    out-of-order segments are verified on arrival and landed at their
    final [dst_off] through the engine handler — no stash blit, no drain
    re-copy.  Requires an engine-backed {!rx_processing} ([Rx_raw]
    sockets ignore the flag).  Both endpoints must agree: a framed
    sender's bytes are not parseable by an unframed receiver and vice
    versa — the RPC layer negotiates this per connection. *)
val set_rx_framing : t -> bool -> unit

val rx_framing : t -> bool

(** [set_on_message t f] — [f ~src ~len] fires once per TSDU.  For a
    single-segment message (PSH with nothing reassembling), [src] is the
    payload address in the receive staging area, exactly as before
    streaming existed.  For a streamed TSDU it fires on the PSH segment
    with the complete reassembled message: under [Rx_raw] [src] is the
    socket's own reassembly buffer; under the engine-backed handlers the
    handler has already placed each segment at its [dst_off] and [src]
    is the reassembly base those offsets are relative to. *)
val set_on_message : t -> (src:int -> len:int -> unit) -> unit

(** [set_on_abort t f] — [f reason] fires once when retry exhaustion tears
    the connection down ({!failure} is set before the callback runs). *)
val set_on_abort : t -> (abort_reason -> unit) -> unit

(** Why the stack aborted this connection, if it did.  [None] after a
    clean lifecycle; set at the moment the state becomes [Closed] through
    retry exhaustion. *)
val failure : t -> abort_reason option

(** The per-reason drop ledger (every reason, in {!drop_reasons} order). *)
val drops : t -> (drop_reason * int) list

val drop_count : t -> drop_reason -> int
val drops_total : t -> int

(** Bytes sent but not yet acknowledged. *)
val bytes_in_flight : t -> int

(** Free contiguous-capable space in the send ring. *)
val send_space : t -> int

(** Current congestion window in bytes. *)
val congestion_window : t -> int

(** The window most recently advertised by the peer. *)
val peer_window : t -> int

(** The window this endpoint currently advertises. *)
val advertised_window : t -> int

(** Usable send window right now: [min peer_window cwnd - bytes_in_flight],
    clamped to >= 0 (a peer may legally shrink its window below what is
    already in flight). *)
val send_window_space : t -> int

(** [set_advertised_window t w] throttles what this endpoint advertises
    (clamped to [0, recv_window]).  Models a slow or stopped reader: a
    window of 0 makes a conforming sender hold data and run its persist
    timer. *)
val set_advertised_window : t -> int -> unit

type stats = {
  segments_sent : int;
  segments_received : int;
  bytes_sent : int;  (** payload bytes, first transmissions *)
  bytes_delivered : int;
  retransmissions : int;
  checksum_failures : int;
  out_of_order : int;
  ooo_placed : int;
      (** out-of-order segments verified and landed at their final TSDU
          offset by the v2 framed receive (subset of [out_of_order]) —
          each one skipped the stash blit and the drain re-copy *)
  duplicates : int;
  acks_sent : int;
  ip_errors : int;  (** datagrams dropped by the kernel's IP validation *)
  fast_retransmits : int;  (** recoveries triggered by duplicate acks *)
  persist_probes : int;  (** zero-window probes sent by the persist timer *)
  peak_in_flight : int;
      (** most payload bytes simultaneously unacknowledged — more than
          one MSS witnesses a pipelined window *)
  rto_fallbacks : int;
      (** retransmission-timer firings with data outstanding — recovery
          episodes fast retransmit / SACK could not finish *)
  sack_blocks_rx : int;
      (** valid SACK blocks accepted into the scoreboard *)
  sack_blocks_tx : int;  (** SACK blocks this receiver put on acks *)
  sack_invalid : int;
      (** SACK blocks rejected: empty/inverted range, beyond [snd_nxt],
          or overlapping another block of the same ack (excepting the
          RFC 2883 D-SACK form — a first block contained in a later one
          reports a duplicate, and counts as spurious instead) *)
  sack_retransmits : int;
      (** hole retransmissions driven by the scoreboard (subset of
          [retransmissions]) *)
  spurious_retransmits : int;
      (** retransmissions the peer reported as duplicates via D-SACK *)
  rst_tx : int;
      (** resets this socket emitted for segments addressed to it while
          dead (aborted or destroyed) *)
  rst_rx : int;  (** resets received (acceptable or not) *)
  keepalive_probes : int;  (** keepalive probes sent *)
}

val stats : t -> stats

(** Resolved out-of-order stash capacity in segments (after the
    [ooo_slots = 0] auto-sizing rule). *)
val ooo_capacity : t -> int

(** Cycles spent in the send-side system copy (user to kernel boundary)
    since the last call, in microseconds — lets the harness separate
    "packet processing" from "system copy" as the paper's figure 3 does. *)
val take_syscopy_send_us : t -> float
