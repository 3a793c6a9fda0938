open Ilp_memsim
module Simclock = Ilp_netsim.Simclock
module Datagram = Ilp_netsim.Datagram
module Ipv4 = Ilp_netsim.Ipv4

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

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

(* Integer encoding of states for the flight recorder's [arg] slot. *)
let all_states =
  [| Closed; Listen; Syn_sent; Syn_rcvd; Established; Fin_wait_1; Fin_wait_2;
     Close_wait; Last_ack; Time_wait |]

let state_index = function
  | Closed -> 0
  | Listen -> 1
  | Syn_sent -> 2
  | Syn_rcvd -> 3
  | Established -> 4
  | Fin_wait_1 -> 5
  | Fin_wait_2 -> 6
  | Close_wait -> 7
  | Last_ack -> 8
  | Time_wait -> 9

type config = {
  mss : int;
  send_buffer : int;
  recv_window : int;
  rto_initial_us : float;
  rto_min_us : float;
  ack_delay_us : float;
  congestion_control : bool;
  sack : bool;
  ooo_slots : int;
  stall_deadline_us : float;
  max_tsdu : int;
}

let default_config =
  { mss = 1460;
    send_buffer = 16 * 1024;
    recv_window = 16 * 1024;
    rto_initial_us = 3_000.0;
    rto_min_us = 1_000.0;
    ack_delay_us = 0.0;
    congestion_control = true;
    sack = true;
    ooo_slots = 0;
    stall_deadline_us = 3_000_000.0;
    max_tsdu = 0 }

let rto_max_us = 4_000_000.0
let max_retries = 8  (* data, handshake and FIN retransmissions *)

(* ALU ops charged per data segment for tcp_output/tcp_input state
   processing, and for the short path: pure control segments and the
   per-segment kernel demultiplex/lookup. *)
let control_ops = 1200
let ack_ops = 150

let blit_unit = 4  (* access width of the copy loops *)
let dupack_threshold = 3  (* duplicate acks that trigger a fast retransmit *)

(* Zero-window persist probing: the first interval doubles per probe up
   to the ceiling. *)
let persist_initial_us = 5_000.0
let persist_max_us = 320_000.0

(* TSDUs [send_stream] queues before reporting [Buffer_full]. *)
let max_pending_streams = 8

type rx_processing =
  | Rx_raw
  | Rx_separate of
      (Mem.t -> src:int -> dst_off:int -> len:int -> (unit, string) result)
  | Rx_integrated of
      (Mem.t ->
      src:int ->
      dst_off:int ->
      len:int ->
      (Ilp_checksum.Internet.acc, string) result)

type send_error = Not_established | Message_too_big | Buffer_full | Window_full

type drop_reason = Bad_ip | Bad_header | Bad_length | Bad_checksum | Out_of_window

let drop_reasons = [ Bad_ip; Bad_header; Bad_length; Bad_checksum; Out_of_window ]

let drop_reason_index = function
  | Bad_ip -> 0
  | Bad_header -> 1
  | Bad_length -> 2
  | Bad_checksum -> 3
  | Out_of_window -> 4

let drop_reason_to_string = function
  | Bad_ip -> "bad_ip"
  | Bad_header -> "bad_header"
  | Bad_length -> "bad_length"
  | Bad_checksum -> "bad_checksum"
  | Out_of_window -> "out_of_window"

type abort_reason =
  | Retry_exhausted
  | Handshake_failed
  | Close_timeout
  | Peer_stalled
  | Misbehaving_peer
  | Connection_reset

let abort_reason_to_string = function
  | Retry_exhausted -> "retransmission retries exhausted"
  | Handshake_failed -> "handshake retries exhausted"
  | Close_timeout -> "close (FIN) retries exhausted"
  | Peer_stalled -> "peer window stalled past the persist deadline"
  | Misbehaving_peer -> "peer acknowledged data that was never sent"
  | Connection_reset -> "connection reset by peer"

let all_abort_reasons =
  [| Retry_exhausted; Handshake_failed; Close_timeout; Peer_stalled;
     Misbehaving_peer; Connection_reset |]

let abort_reason_index = function
  | Retry_exhausted -> 0
  | Handshake_failed -> 1
  | Close_timeout -> 2
  | Peer_stalled -> 3
  | Misbehaving_peer -> 4
  | Connection_reset -> 5

type keepalive_verdict = Peer_alive | Peer_reset | Peer_silent

let keepalive_verdict_to_string = function
  | Peer_alive -> "peer alive"
  | Peer_reset -> "peer reset the connection"
  | Peer_silent -> "peer silent past the keepalive probe budget"

module M = Ilp_obs.Metrics
module Trace = Ilp_obs.Trace
module Recorder = Ilp_obs.Recorder

(* The flight recorder stores bare ints; install the decoders for this
   module's encodings once so dumps print symbolic names. *)
let () =
  Recorder.set_arg_printer Recorder.State (fun i ->
      if i >= 0 && i < Array.length all_states then
        state_to_string all_states.(i)
      else string_of_int i);
  Recorder.set_arg_printer Recorder.Abort (fun i ->
      if i >= 0 && i < Array.length all_abort_reasons then
        abort_reason_to_string all_abort_reasons.(i)
      else string_of_int i)

(* Each socket's counts live in its ledger ([stats], [drops]); the
   registry counters sum them over all sockets.  Counts kept only
   process-wide bump the registry directly: the resets [reset_for] sends
   for a crashed host (no socket exists), and the abort and zero-window
   stall tallies, which no per-socket accessor reports. *)
let family = M.family M.default
let s_segments_sent = M.slot family "tcp.segments_sent"
let s_segments_received = M.slot family "tcp.segments_received"
let s_bytes_sent = M.slot family "tcp.bytes_sent"
let s_bytes_delivered = M.slot family "tcp.bytes_delivered"
let s_retransmissions = M.slot family "tcp.retransmissions"
let s_checksum_failures = M.slot family "tcp.checksum_failures"
let s_out_of_order = M.slot family "tcp.out_of_order"
let s_duplicates = M.slot family "tcp.duplicates"
let s_acks_sent = M.slot family "tcp.acks_sent"
let s_ip_errors = M.slot family "tcp.ip_errors"
let s_fast_retransmits = M.slot family "tcp.fast_retransmits"
let s_persist_probes = M.slot family "tcp.persist_probes"
let m_zero_window_stalls = M.counter M.default "tcp.zero_window_stalls"
let m_seg_payload = M.histogram M.default "tcp.segment_payload_bytes"
let s_ooo_placed = M.slot family "tcp.ooo_placed"
let s_rst_tx = M.slot family "tcp.rst_tx"
let m_rst_tx_unowned = M.counter M.default "tcp.rst_tx"
let s_rst_rx = M.slot family "tcp.rst_rx"
let s_keepalive_probes = M.slot family "tcp.keepalive_probes"
let s_rto_fallbacks = M.slot family "tcp.rto_fallbacks"
let s_sack_blocks_rx = M.slot family "tcp.sack_blocks_rx"
let s_sack_blocks_tx = M.slot family "tcp.sack_blocks_tx"
let s_sack_invalid = M.slot family "tcp.sack_invalid"
let s_sack_retransmits = M.slot family "tcp.sack_retransmits"
let s_spurious_retransmits = M.slot family "tcp.spurious_retransmits"

(* Congestion-control observability (last-writer-wins across sockets:
   meaningful for the usual one-bulk-sender worlds, and the conservation
   test pins them against that sender's final state). *)
let m_cwnd = M.gauge M.default "tcp.cwnd"
let m_ssthresh = M.gauge M.default "tcp.ssthresh"
let m_inflight = M.gauge M.default "tcp.segments_in_flight"

(* Per-segment retransmission counts, observed when a segment is finally
   acknowledged: bucket 0 counts segments delivered on their first
   transmission, the higher buckets the recovery tail. *)
let m_seg_rexmits = M.histogram M.default "tcp.segment_retransmits"

(* Per-segment ack RTT (Karn-filtered: only never-retransmitted segments
   are observed, same discipline as the RTO estimator).  The telemetry
   sampler derives p50/p90/p99 tracks and SLO verdicts from this. *)
let m_ack_rtt = M.histogram M.default "tcp.ack_rtt_us"

let s_drops =
  Array.of_list
    (List.map
       (fun r -> M.slot family ("tcp.drop." ^ drop_reason_to_string r))
       drop_reasons)

let abort_counter =
  let retry = M.counter M.default "tcp.abort.retry_exhausted" in
  let handshake = M.counter M.default "tcp.abort.handshake_failed" in
  let close = M.counter M.default "tcp.abort.close_timeout" in
  let stalled = M.counter M.default "tcp.abort.peer_stalled" in
  let misbehaving = M.counter M.default "tcp.abort.misbehaving_peer" in
  let reset = M.counter M.default "tcp.abort.connection_reset" in
  function
  | Retry_exhausted -> retry
  | Handshake_failed -> handshake
  | Close_timeout -> close
  | Peer_stalled -> stalled
  | Misbehaving_peer -> misbehaving
  | Connection_reset -> reset

type tx_seg = {
  seq : int;
  len : int;
  addr : int;
  psh : bool;  (* marks the final segment of a TSDU; preserved on retransmit *)
  mutable rexmit : bool;
  mutable rexmits : int;
  mutable sent_at : float;
  (* SACK scoreboard bits.  Both are hints, never ground truth: the ring
     releases only on cumulative ack, and an RTO clears them wholesale
     (RFC 2018 reneging rule), so a lying or forgetful receiver can at
     worst cost retransmissions, never data. *)
  mutable sacked : bool;
  mutable sack_rexmit : bool;  (* retransmitted by the scoreboard; eligible
                                  again [1.5 x srtt] later if still unsacked
                                  (the retransmission itself was lost) *)
  mutable sack_rexmit_at : float;  (* when the scoreboard last sent it *)
}

(* One TSDU queued for segmented transmission: [ps_fill] renders wire
   bytes [off, off+len) of the message at a ring address, so each
   MSS-sized piece gets its own fused pass straight into the ring. *)
type pending_stream = {
  ps_len : int;
  ps_unit : int;  (* segment boundaries fall on multiples of this *)
  ps_fill :
    Mem.t -> dst:int -> off:int -> len:int -> Ilp_checksum.Internet.acc option;
  mutable ps_off : int;  (* next byte of the TSDU to transmit *)
}

type stats = {
  segments_sent : int;
  segments_received : int;
  bytes_sent : int;
  bytes_delivered : int;
  retransmissions : int;
  checksum_failures : int;
  out_of_order : int;
  ooo_placed : int;
  duplicates : int;
  acks_sent : int;
  ip_errors : int;
  fast_retransmits : int;
  persist_probes : int;
  peak_in_flight : int;
  rto_fallbacks : int;
  sack_blocks_rx : int;
  sack_blocks_tx : int;
  sack_invalid : int;
  sack_retransmits : int;
  spurious_retransmits : int;
  rst_tx : int;
  rst_rx : int;
  keepalive_probes : int;
}

type t = {
  sim : Sim.t;
  clock : Simclock.t;
  cfg : config;
  local_port : int;
  wire_out : Datagram.t -> unit;
  ring : Ring.t;
  hdr_area : int;  (* user-space header build area *)
  tx_kernel : int;  (* kernel-side outgoing segment buffer *)
  kernel_rx : int;  (* kernel-side incoming segment buffer *)
  rx_staging : int;  (* user-space receive buffer *)
  ooo_base : int;  (* out-of-order stash slots *)
  code_ctrl : Code.region;  (* TCP control processing (tcp_output/tcp_input) *)
  code_kernel : Code.region;  (* syscall + kernel datagram path *)
  ooo_slots : int;  (* resolved stash capacity (auto-sized when cfg says 0) *)
  ooo_free : bool array;
  ooo : (int, int * int * int) Hashtbl.t;  (* seq -> slot, base addr, payload len *)
  mutable st : state;
  mutable remote_port : int;
  iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  mutable peer_window : int;
  mutable adv_window : int;  (* window this endpoint currently advertises *)
  txq : tx_seg Queue.t;
  streams : pending_stream Queue.t;
  mutable rto_timer : Simclock.timer option;
  rto : Rto.t;
  mutable retries : int;
  mutable dupacks : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  (* NewReno-style fast recovery: [in_recovery] from the third duplicate
     ack until [recover] (snd_nxt at loss detection) is acknowledged. *)
  mutable in_recovery : bool;
  mutable recover : int;
  mutable peak_in_flight : int;
  (* RFC 3465-style byte counting for congestion avoidance: cwnd grows
     one MSS per cwnd bytes actually acknowledged, so a peer splitting
     one segment's worth of ack into many tiny acks (ack division) gains
     nothing. *)
  mutable cc_acked : int;
  (* Receive-side SACK generation state. *)
  mutable last_ooo_seq : int;  (* most recent out-of-order arrival *)
  mutable dsack_pending : (int * int) option;
      (* duplicate arrival to report as a D-SACK first block on the next ack *)
  (* Receive-side TSDU reassembly: bytes of the current multi-segment
     TSDU already accepted in order.  The engine rx handlers place each
     segment's plaintext at this offset in their application area; the
     raw path accumulates into [rx_asm].  Under v2 framing this counts
     engine (post-prelude) bytes. *)
  mutable rx_tsdu_off : int;
  (* v2 framed receive ({!Framing}): enabled per connection by the RPC
     layer's negotiation.  [fr_elen >= 0] while a framed TSDU is
     current: [fr_base] is the sequence number of its prelude byte 0,
     [fr_plen] the prelude length, [fr_elen] its engine (post-prelude)
     wire length — the extent that makes out-of-order final placement
     decidable. *)
  mutable rx_framing : bool;
  mutable fr_base : int;
  mutable fr_plen : int;
  mutable fr_elen : int;
  (* Out-of-order final placement: segments of the current framed TSDU
     verified and decrypted at arrival directly at their final TSDU
     offset, so the drain is pure bookkeeping; seq -> (payload_len,
     psh).  Disjoint from the [ooo] stash by construction. *)
  placed : (int, int * bool) Hashtbl.t;
  rx_asm : int;  (* Rx_raw reassembly area *)
  rx_asm_len : int;
  mutable delayed_ack : Simclock.timer option;
  (* Zero-window persistence: probe a peer that advertises no (or too
     little) space, with exponential backoff, until the window reopens or
     the stall deadline aborts the connection. *)
  mutable persist_timer : Simclock.timer option;
  mutable persist_shifts : int;
  mutable persist_want : int;  (* message length awaiting window space *)
  mutable stalled_since : float option;
  probe_buf : int;  (* one already-acknowledged garbage byte to probe with *)
  mutable pending_close : bool;
  mutable ctl_timer : Simclock.timer option;  (* SYN / FIN retransmission *)
  mutable ctl_retries : int;
  mutable rx_proc : rx_processing;
  mutable on_message : src:int -> len:int -> unit;
  mutable ip_ident : int;
  mutable syscopy_send_cycles_us : float;
  ledger : M.ledger;  (* [stats] and [drops] counts *)
  mutable failed : abort_reason option;
  mutable on_abort : abort_reason -> unit;
  (* Node crash/restart fault model.  [owner] tags every timer
     this socket schedules, so teardown can be audited with
     [Simclock.pending_count]; [destroyed] marks a socket torn down by a
     host crash — subsequent segments addressed to it answer with RST. *)
  owner : int;
  mutable destroyed : bool;
  mutable tw_timer : Simclock.timer option;  (* TIME_WAIT expiry *)
  (* Keepalive probing for half-open connections (peer restarted while
     this endpoint was idle): probe with an already-acknowledged byte at a
     fixed interval; an answering ack proves the peer alive, an RST or
     probe exhaustion yields a typed verdict. *)
  mutable ka_timer : Simclock.timer option;
  mutable ka_interval_us : float;
  mutable ka_max_probes : int;
  mutable ka_unanswered : int;
  mutable ka_on_result : (keepalive_verdict -> unit) option;
}

let create (sim : Sim.t) clock cfg ~local_port ~wire_out =
  let seg_max = max Tcp_header.max_wire_size (Tcp_header.size + cfg.mss) in
  (* ooo_slots = 0 (the default) auto-sizes the stash to cover a full
     receive window of MSS segments plus reordering slack: PR 6 found
     that a fixed 8-slot stash under a 45-segment window serializes loss
     recovery into one segment per RTT.  An explicit positive value is
     honoured unchanged. *)
  let ooo_slots =
    if cfg.ooo_slots > 0 then cfg.ooo_slots
    else max 8 (((cfg.recv_window + cfg.mss - 1) / cfg.mss) + 4)
  in
  let ring = Ring.create sim ~size:cfg.send_buffer in
  let hdr_area = Alloc.alloc sim.alloc ~align:8 Tcp_header.max_wire_size in
  let tx_kernel = Alloc.alloc sim.alloc ~align:64 seg_max in
  let kernel_rx = Alloc.alloc sim.alloc ~align:64 seg_max in
  let rx_staging = Alloc.alloc sim.alloc ~align:64 seg_max in
  let ooo_base = Alloc.alloc sim.alloc ~align:64 (ooo_slots * seg_max) in
  let rx_asm_len = max cfg.mss cfg.max_tsdu in
  let rx_asm = Alloc.alloc sim.alloc ~align:64 rx_asm_len in
  let probe_buf = Alloc.alloc sim.alloc ~align:8 8 in
  let code_ctrl = Code.alloc sim.code ~len:2048 in
  let code_kernel = Code.alloc sim.code ~len:3072 in
  { sim;
    clock;
    cfg;
    local_port;
    wire_out;
    ring;
    hdr_area;
    tx_kernel;
    kernel_rx;
    rx_staging;
    ooo_base;
    code_ctrl;
    code_kernel;
    ooo_slots;
    ooo_free = Array.make ooo_slots true;
    ooo = Hashtbl.create 8;
    st = Closed;
    remote_port = -1;
    iss = 100_000 + (local_port * 131);
    snd_una = 0;
    snd_nxt = 0;
    rcv_nxt = 0;
    peer_window = 0;
    adv_window = cfg.recv_window;
    txq = Queue.create ();
    streams = Queue.create ();
    rto_timer = None;
    rto = Rto.create ~initial_us:cfg.rto_initial_us ~min_us:cfg.rto_min_us
            ~max_us:rto_max_us ();
    retries = 0;
    dupacks = 0;
    cwnd = 2 * cfg.mss;
    ssthresh = 64 * 1024;
    in_recovery = false;
    recover = 0;
    peak_in_flight = 0;
    cc_acked = 0;
    last_ooo_seq = -1;
    dsack_pending = None;
    rx_tsdu_off = 0;
    rx_framing = false;
    fr_base = 0;
    fr_plen = 0;
    fr_elen = -1;
    placed = Hashtbl.create 8;
    rx_asm;
    rx_asm_len;
    delayed_ack = None;
    persist_timer = None;
    persist_shifts = 0;
    persist_want = 0;
    stalled_since = None;
    probe_buf;
    pending_close = false;
    ctl_timer = None;
    ctl_retries = 0;
    rx_proc = Rx_raw;
    on_message = (fun ~src:_ ~len:_ -> ());
    ip_ident = local_port * 1000;
    syscopy_send_cycles_us = 0.0;
    ledger = M.ledger family;
    failed = None;
    on_abort = (fun _ -> ());
    owner = Simclock.fresh_owner clock;
    destroyed = false;
    tw_timer = None;
    ka_timer = None;
    ka_interval_us = 0.0;
    ka_max_probes = 0;
    ka_unanswered = 0;
    ka_on_result = None }

let state t = t.st
let local_port t = t.local_port
let set_rx_processing t p = t.rx_proc <- p
let set_rx_framing t on = t.rx_framing <- on
let rx_framing t = t.rx_framing
let set_on_message t f = t.on_message <- f
let set_on_abort t f = t.on_abort <- f
let failure t = t.failed
let timer_owner t = t.owner
let destroyed t = t.destroyed
let count_drop t reason = M.bump t.ledger s_drops.(drop_reason_index reason) 1
let drop_count t reason = M.count t.ledger s_drops.(drop_reason_index reason)
let drops t = List.map (fun r -> (r, drop_count t r)) drop_reasons
let drops_total t = List.fold_left (fun n r -> n + drop_count t r) 0 drop_reasons
let bytes_in_flight t = Queue.fold (fun acc seg -> acc + seg.len) 0 t.txq
let send_space t = Ring.available t.ring
let congestion_window t = t.cwnd
let peer_window t = t.peer_window
let advertised_window t = t.adv_window

(* Usable window space, clamped to >= 0: a peer may legally shrink its
   advertised window below the bytes already in flight, and the difference
   must never go negative (it would otherwise invite a negative-length
   segment or an exception downstream). *)
let send_window_space t =
  let cap =
    min t.peer_window (if t.cfg.congestion_control then t.cwnd else max_int)
  in
  max 0 (cap - bytes_in_flight t)

let set_advertised_window t w =
  t.adv_window <- max 0 (min w t.cfg.recv_window)

(* RFC 5681/6582-style reactions.  Every cwnd/ssthresh change mirrors
   into the registry gauges so a live snapshot shows the sender's
   congestion state. *)
let set_cc_gauges t =
  M.set m_cwnd t.cwnd;
  M.set m_ssthresh t.ssthresh

let on_congestion_loss t ~timeout =
  if t.cfg.congestion_control then begin
    t.ssthresh <- max (bytes_in_flight t / 2) (2 * t.cfg.mss);
    t.cwnd <- (if timeout then t.cfg.mss else t.ssthresh);
    set_cc_gauges t
  end

(* Byte-counted growth (RFC 3465): credit only the bytes this ack
   actually retired.  Slow start grows by min(acked, MSS) per ack;
   congestion avoidance accumulates acked bytes and grows one MSS per
   cwnd-worth retired.  Either way, a misbehaving receiver splitting one
   segment's acknowledgement into N tiny acks (ack division) earns
   exactly the same growth as the honest single ack. *)
let on_congestion_ack t ~acked =
  if t.cfg.congestion_control then begin
    if t.cwnd < t.ssthresh then
      t.cwnd <- t.cwnd + min acked t.cfg.mss (* slow start *)
    else begin
      t.cc_acked <- t.cc_acked + acked;
      if t.cc_acked >= t.cwnd then begin
        t.cc_acked <- t.cc_acked - t.cwnd;
        t.cwnd <- t.cwnd + t.cfg.mss (* congestion avoidance *)
      end
    end;
    set_cc_gauges t
  end

let stats t =
  let l = t.ledger in
  { segments_sent = M.count l s_segments_sent;
    segments_received = M.count l s_segments_received;
    bytes_sent = M.count l s_bytes_sent;
    bytes_delivered = M.count l s_bytes_delivered;
    retransmissions = M.count l s_retransmissions;
    checksum_failures = M.count l s_checksum_failures;
    out_of_order = M.count l s_out_of_order;
    ooo_placed = M.count l s_ooo_placed;
    duplicates = M.count l s_duplicates;
    acks_sent = M.count l s_acks_sent;
    ip_errors = M.count l s_ip_errors;
    fast_retransmits = M.count l s_fast_retransmits;
    persist_probes = M.count l s_persist_probes;
    peak_in_flight = t.peak_in_flight;
    rto_fallbacks = M.count l s_rto_fallbacks;
    sack_blocks_rx = M.count l s_sack_blocks_rx;
    sack_blocks_tx = M.count l s_sack_blocks_tx;
    sack_invalid = M.count l s_sack_invalid;
    sack_retransmits = M.count l s_sack_retransmits;
    spurious_retransmits = M.count l s_spurious_retransmits;
    rst_tx = M.count l s_rst_tx;
    rst_rx = M.count l s_rst_rx;
    keepalive_probes = M.count l s_keepalive_probes }

let ooo_capacity t = t.ooo_slots

let pending_streams t = Queue.length t.streams
let ring_wraps t = Ring.wraps t.ring

let take_syscopy_send_us t =
  let v = t.syscopy_send_cycles_us in
  t.syscopy_send_cycles_us <- 0.0;
  v

(* ------------------------------------------------------------------ *)
(* Transmission plumbing *)

let machine t = t.sim.Sim.machine
let mem t = t.sim.Sim.mem

let base_header t ~flags =
  Tcp_header.make ~seq:t.snd_nxt ~ack:t.rcv_nxt ~flags ~window:t.adv_window
    ~src_port:t.local_port ~dst_port:t.remote_port ()

(* Write the finished header to the user header area, system-copy header
   (and payload, already in the ring at [payload]) into the kernel buffer,
   and put the resulting datagram on the wire. *)
let transmit t header ~payload =
  Machine.exec (machine t) t.code_ctrl;
  Machine.exec (machine t) t.code_kernel;
  Tcp_header.write_mem (mem t) ~pos:t.hdr_area header;
  (* Full tcp_output state processing for data segments; the short path
     for pure control segments. *)
  Machine.compute (machine t)
    (match payload with Some _ -> control_ops | None -> ack_ops);
  let payload_len = match payload with None -> 0 | Some (_, len) -> len in
  let hlen = Tcp_header.wire_size header in
  let before = Machine.micros (machine t) in
  Mem.blit (mem t) ~src:t.hdr_area ~dst:t.tx_kernel ~len:hlen
    ~unit_len:blit_unit;
  (match payload with
  | None -> ()
  | Some (addr, len) ->
      Mem.blit (mem t) ~src:addr ~dst:(t.tx_kernel + hlen) ~len
        ~unit_len:blit_unit);
  t.syscopy_send_cycles_us <-
    t.syscopy_send_cycles_us +. (Machine.micros (machine t) -. before);
  let segment =
    Bytes.unsafe_to_string
      (Mem.peek_bytes (mem t) ~pos:t.tx_kernel ~len:(hlen + payload_len))
  in
  (* The kernel part passes the segment to IP (loopback, never
     fragmented). *)
  t.ip_ident <- (t.ip_ident + 1) land 0xffff;
  let ip =
    Ipv4.make ~ident:t.ip_ident ~src:Ipv4.loopback ~dst:Ipv4.loopback
      ~payload_len:(String.length segment) ()
  in
  M.bump t.ledger s_segments_sent 1;
  M.observe m_seg_payload payload_len;
  if Trace.enabled () && payload_len > 0 then
    Trace.instant ~arg:payload_len Trace.Send_link
      ~packet:(Trace.current_packet ()) ~ts:(Machine.micros (machine t));
  t.wire_out
    (Datagram.create ~src_port:t.local_port ~dst_port:t.remote_port
       ~payload:(Ipv4.encapsulate ip segment))

let send_control t ~flags =
  let h = base_header t ~flags in
  let ck =
    Tcp_header.checksum h ~payload_acc:Ilp_checksum.Internet.empty ~payload_len:0
  in
  transmit t { h with checksum = ck } ~payload:None

(* The SACK blocks this receiver currently has to report: the
   out-of-order stash merged into maximal contiguous ranges, ordered
   with the range containing the most recent arrival first (RFC 2018's
   "first block MUST specify the most recently received segment") and
   the rest by descending sequence.  Empty whenever the stash is — on a
   clean link the ack stream is wire-identical with SACK on or off. *)
let sack_ranges t =
  if
    (not t.cfg.sack)
    || (Hashtbl.length t.ooo = 0 && Hashtbl.length t.placed = 0)
  then []
  else begin
    let spans =
      Hashtbl.fold (fun seq (_, _, len) acc -> (seq, seq + len) :: acc) t.ooo []
    in
    (* Final-placement arrivals are held data exactly like the stash and
       must be reported, or the sender would retransmit them. *)
    let spans =
      Hashtbl.fold (fun seq (len, _) acc -> (seq, seq + len) :: acc) t.placed
        spans
    in
    let spans = List.sort (fun (a, _) (b, _) -> compare a b) spans in
    let merged =
      List.fold_left
        (fun acc (l, r) ->
          match acc with
          | (pl, pr) :: rest when l <= pr -> (pl, max pr r) :: rest
          | _ -> (l, r) :: acc)
        [] spans
    in
    (* [merged] is already in descending left-edge order (most recently
       sent data first); hoist the range holding the latest arrival. *)
    match
      List.partition
        (fun (l, r) -> l <= t.last_ooo_seq && t.last_ooo_seq < r)
        merged
    with
    | ([ recent ], rest) -> recent :: rest
    | _ -> merged
  end

(* Every pure acknowledgement flows through here: with nothing to report
   it is the legacy fixed-header ack, otherwise the canonical SACK option
   is attached (a pending D-SACK duplicate report rides as the first
   block, RFC 2883). *)
let send_ack_control t =
  let blocks =
    if not t.cfg.sack then []
    else
      match t.dsack_pending with
      | Some d -> d :: sack_ranges t
      | None -> sack_ranges t
  in
  t.dsack_pending <- None;
  if blocks = [] then send_control t ~flags:Tcp_header.ack_flag
  else begin
    let h =
      Tcp_header.make ~seq:t.snd_nxt ~ack:t.rcv_nxt
        ~flags:Tcp_header.ack_flag ~window:t.adv_window ~sack:blocks
        ~src_port:t.local_port ~dst_port:t.remote_port ()
    in
    let n = List.length h.Tcp_header.sack in
    M.bump t.ledger s_sack_blocks_tx n;
    if Trace.enabled () then
      Trace.instant ~arg:n Trace.Tcp_sack ~packet:(Trace.current_packet ())
        ~ts:(Machine.micros (machine t));
    let ck =
      Tcp_header.checksum h ~payload_acc:Ilp_checksum.Internet.empty
        ~payload_len:0
    in
    transmit t { h with checksum = ck } ~payload:None
  end

let send_ack_now t =
  (match t.delayed_ack with
  | Some timer ->
      Simclock.cancel timer;
      t.delayed_ack <- None
  | None -> ());
  M.bump t.ledger s_acks_sent 1;
  send_ack_control t

(* RFC 1122-style delayed acknowledgement: hold the ack briefly so it can
   ride on (or be merged with) the next one; every second segment (a
   pending delayed ack already armed) acknowledges immediately. *)
let send_ack t =
  if t.cfg.ack_delay_us <= 0.0 then send_ack_now t
  else
    match t.delayed_ack with
    | Some _ -> send_ack_now t
    | None ->
        let timer =
          Simclock.schedule t.clock ~owner:t.owner ~after:t.cfg.ack_delay_us (fun () ->
              t.delayed_ack <- None;
              M.bump t.ledger s_acks_sent 1;
              send_ack_control t)
        in
        t.delayed_ack <- Some timer

(* Every timer this socket can own: RTO, control (SYN/FIN), delayed ack,
   persist, TIME_WAIT expiry and keepalive.  Aborts and [destroy] must
   cancel all six — crash injection surfaces any leak as a ghost firing,
   and the soak asserts [Simclock.pending_count ~owner = 0] afterwards. *)
let cancel_all_timers t =
  Option.iter Simclock.cancel t.rto_timer;
  t.rto_timer <- None;
  Option.iter Simclock.cancel t.ctl_timer;
  t.ctl_timer <- None;
  Option.iter Simclock.cancel t.delayed_ack;
  t.delayed_ack <- None;
  Option.iter Simclock.cancel t.persist_timer;
  t.persist_timer <- None;
  Option.iter Simclock.cancel t.tw_timer;
  t.tw_timer <- None;
  Option.iter Simclock.cancel t.ka_timer;
  t.ka_timer <- None

(* Single funnel for TCP state changes: the flight recorder sees every
   transition with the new state encoded in [arg], keyed by the local
   port, so an abort dump replays the connection's whole life. *)
let transition t st =
  if t.st <> st then begin
    t.st <- st;
    Recorder.note Recorder.State ~conn:t.local_port ~arg:(state_index st)
      ~ts:(Machine.micros (machine t))
  end

(* Retry exhaustion: tear the connection down with a recorded reason so
   the application sees a typed failure, never a silent [Closed]. *)
let abort t reason =
  if t.failed = None then begin
    t.failed <- Some reason;
    M.inc (abort_counter reason) 1;
    Recorder.note Recorder.Abort ~conn:t.local_port
      ~arg:(abort_reason_index reason) ~ts:(Machine.micros (machine t));
    if Trace.enabled () then
      Trace.instant Trace.Tcp_abort ~packet:(Trace.current_packet ())
        ~ts:(Machine.micros (machine t))
  end;
  transition t Closed;
  Queue.clear t.streams;
  t.ka_on_result <- None;
  cancel_all_timers t;
  t.on_abort reason

(* Tear a socket down as a crashing host does: no FIN, no callback, just
   drop every queue, reservation and timer.  The socket answers later
   segments with RST (it is a dead connection, not a closed one). *)
let destroy t =
  t.destroyed <- true;
  transition t Closed;
  t.pending_close <- false;
  Queue.clear t.streams;
  Queue.clear t.txq;
  (* The ring and txq reserve/queue in lockstep; with the queue gone,
     release every live reservation so ring accounting stays balanced. *)
  let rec release_all () =
    match Ring.release t.ring with
    | Ok () -> release_all ()
    | Error `Empty -> ()
  in
  release_all ();
  Hashtbl.reset t.ooo;
  Array.fill t.ooo_free 0 (Array.length t.ooo_free) true;
  Hashtbl.reset t.placed;
  t.fr_elen <- -1;
  t.rx_tsdu_off <- 0;
  t.ka_on_result <- None;
  cancel_all_timers t

(* Control-segment (SYN / SYN-ACK / FIN) retransmission. *)
let rec arm_ctl_timer t ~flags =
  Option.iter Simclock.cancel t.ctl_timer;
  let timer =
    Simclock.schedule t.clock ~owner:t.owner ~after:(Rto.timeout_us t.rto) (fun () ->
        if t.ctl_retries >= max_retries then
          abort t
            (if flags land Tcp_header.syn <> 0 then Handshake_failed
             else Close_timeout)
        else begin
          t.ctl_retries <- t.ctl_retries + 1;
          Rto.backoff t.rto;
          (* Re-send with the sequence number the control segment used. *)
          let h = base_header t ~flags in
          let h = { h with seq = t.snd_nxt - 1 } in
          let ck =
            Tcp_header.checksum h ~payload_acc:Ilp_checksum.Internet.empty
              ~payload_len:0
          in
          transmit t { h with checksum = ck } ~payload:None;
          arm_ctl_timer t ~flags
        end)
  in
  t.ctl_timer <- Some timer

let cancel_ctl_timer t =
  Option.iter Simclock.cancel t.ctl_timer;
  t.ctl_timer <- None;
  t.ctl_retries <- 0

(* ------------------------------------------------------------------ *)
(* Zero-window persistence *)

let cancel_persist t =
  Option.iter Simclock.cancel t.persist_timer;
  t.persist_timer <- None;
  t.persist_shifts <- 0;
  t.persist_want <- 0;
  t.stalled_since <- None

(* A window probe: one already-acknowledged byte at [snd_nxt - 1].  The
   receiver's duplicate path acknowledges it immediately, and that ack
   carries the peer's current window — so a reopened window is discovered
   even if the peer's window-update ack was lost. *)
let send_probe t =
  M.bump t.ledger s_persist_probes 1;
  Recorder.note Recorder.Persist_probe ~conn:t.local_port
    ~arg:t.persist_shifts ~ts:(Machine.micros (machine t));
  if Trace.enabled () then
    Trace.instant Trace.Tcp_persist_probe ~packet:(Trace.current_packet ())
      ~ts:(Machine.micros (machine t));
  let h = base_header t ~flags:Tcp_header.ack_flag in
  let h = { h with seq = t.snd_nxt - 1 } in
  let payload_acc =
    Ilp_checksum.Internet.checksum_mem (mem t) ~pos:t.probe_buf ~len:1
      ~acc:Ilp_checksum.Internet.empty
  in
  let ck = Tcp_header.checksum h ~payload_acc ~payload_len:1 in
  transmit t { h with checksum = ck } ~payload:(Some (t.probe_buf, 1))

(* ------------------------------------------------------------------ *)
(* RST generation (RFC 793 reset rules)

   A segment addressed to a dead connection — a socket torn down by a
   crash ([destroy]) or a typed abort — is answered with a reset so the
   peer learns immediately instead of retransmitting into a black hole:
   an arriving segment with ACK is answered <SEQ=SEG.ACK><CTL=RST>, one
   without (a SYN) by <SEQ=0><ACK=SEG.SEQ+SEG.LEN><CTL=RST,ACK>.  A
   cleanly closed socket stays silent, so clean-run wire traces are
   byte-identical to the pre-fault-model stack.  Resets are pure 20-byte
   control segments and never enter the fused ILP data path. *)

let rst_reply_header (h : Tcp_header.t) ~payload_len ~src_port =
  let seg_len =
    payload_len
    + (if Tcp_header.has h Tcp_header.syn then 1 else 0)
    + (if Tcp_header.has h Tcp_header.fin then 1 else 0)
  in
  let r =
    if Tcp_header.has h Tcp_header.ack_flag then
      Tcp_header.make ~seq:h.ack ~flags:Tcp_header.rst ~src_port
        ~dst_port:h.src_port ()
    else
      Tcp_header.make ~seq:0 ~ack:(h.seq + seg_len)
        ~flags:(Tcp_header.rst lor Tcp_header.ack_flag) ~src_port
        ~dst_port:h.src_port ()
  in
  let ck =
    Tcp_header.checksum r ~payload_acc:Ilp_checksum.Internet.empty
      ~payload_len:0
  in
  { r with checksum = ck }

let send_rst t (h : Tcp_header.t) ~payload_len =
  (* Never reset a reset: that way lies an RST storm. *)
  if not (Tcp_header.has h Tcp_header.rst) then begin
    let r = rst_reply_header h ~payload_len ~src_port:t.local_port in
    M.bump t.ledger s_rst_tx 1;
    Recorder.note Recorder.Rst_tx ~conn:t.local_port ~arg:0
      ~ts:(Machine.micros (machine t));
    if Trace.enabled () then
      Trace.instant ~arg:1 Trace.Tcp_rst ~packet:(Trace.current_packet ())
        ~ts:(Machine.micros (machine t));
    (* Bypass [transmit]: the reset goes back to the segment's source
       port, not [t.remote_port] (stale or unset on a dead socket), and a
       dead socket charges only the short control path. *)
    Machine.compute (machine t) ack_ops;
    t.ip_ident <- (t.ip_ident + 1) land 0xffff;
    let wire = Tcp_header.to_string r in
    let ip =
      Ipv4.make ~ident:t.ip_ident ~src:Ipv4.loopback ~dst:Ipv4.loopback
        ~payload_len:(String.length wire) ()
    in
    M.bump t.ledger s_segments_sent 1;
    t.wire_out
      (Datagram.create ~src_port:t.local_port ~dst_port:h.Tcp_header.src_port
         ~payload:(Ipv4.encapsulate ip wire))
  end

(* The reset a crashed host's address answers with while the host is
   down: no socket exists at all, so this is a pure function from the
   arriving datagram to the reset datagram (None for malformed input and
   for resets, which are never themselves reset). *)
let reset_for (dgram : Datagram.t) =
  match Ipv4.decapsulate dgram.Datagram.payload with
  | Error _ -> None
  | Ok (ip, _) when ip.Ipv4.protocol <> Ipv4.protocol_tcp -> None
  | Ok (_, wire) -> (
      match Tcp_header.of_string wire ~pos:0 with
      | Error _ -> None
      | Ok h ->
          if Tcp_header.has h Tcp_header.rst then None
          else begin
            let payload_len =
              max 0 (String.length wire - Tcp_header.wire_size h)
            in
            let r =
              rst_reply_header h ~payload_len ~src_port:dgram.Datagram.dst_port
            in
            M.inc m_rst_tx_unowned 1;
            Recorder.note Recorder.Rst_tx ~conn:dgram.Datagram.dst_port
              ~arg:0 ~ts:(Trace.now ());
            if Trace.enabled () then
              Trace.instant ~arg:1 Trace.Tcp_rst
                ~packet:(Trace.current_packet ()) ~ts:(Trace.now ());
            let wire_out = Tcp_header.to_string r in
            let ip =
              Ipv4.make ~src:Ipv4.loopback ~dst:Ipv4.loopback
                ~payload_len:(String.length wire_out) ()
            in
            Some
              (Datagram.create ~src_port:dgram.Datagram.dst_port
                 ~dst_port:h.Tcp_header.src_port
                 ~payload:(Ipv4.encapsulate ip wire_out))
          end)

(* ------------------------------------------------------------------ *)
(* Keepalive probing (half-open connection detection)

   A host that crashes and restarts forgets its connections; a peer with
   nothing to send never notices — the connection is half-open.  The
   keepalive timer probes an idle connection with one already-acknowledged
   garbage byte (the persist probe's wire shape): a live peer answers
   with a duplicate ack ([Peer_alive]), a restarted peer answers RST
   ([Peer_reset], and the connection aborts [Connection_reset]), and a
   black-holed peer stays silent until the probe budget is spent
   ([Peer_silent], aborting [Retry_exhausted]). *)

let probe_wire_states = [ Established; Close_wait; Fin_wait_1; Fin_wait_2 ]

let send_keepalive_probe t =
  M.bump t.ledger s_keepalive_probes 1;
  Recorder.note Recorder.Keepalive ~conn:t.local_port ~arg:t.ka_unanswered
    ~ts:(Machine.micros (machine t));
  if Trace.enabled () then
    Trace.instant ~arg:t.ka_unanswered Trace.Tcp_keepalive
      ~packet:(Trace.current_packet ()) ~ts:(Machine.micros (machine t));
  let h = base_header t ~flags:Tcp_header.ack_flag in
  let h = { h with Tcp_header.seq = t.snd_nxt - 1 } in
  let payload_acc =
    Ilp_checksum.Internet.checksum_mem (mem t) ~pos:t.probe_buf ~len:1
      ~acc:Ilp_checksum.Internet.empty
  in
  let ck = Tcp_header.checksum h ~payload_acc ~payload_len:1 in
  transmit t { h with checksum = ck } ~payload:(Some (t.probe_buf, 1))

let rec arm_keepalive t =
  Option.iter Simclock.cancel t.ka_timer;
  let timer =
    Simclock.schedule t.clock ~owner:t.owner ~after:t.ka_interval_us (fun () ->
        t.ka_timer <- None;
        if
          t.failed = None && t.ka_on_result <> None
          && List.mem t.st probe_wire_states
        then begin
          if t.ka_unanswered >= t.ka_max_probes then begin
            match t.ka_on_result with
            | Some f ->
                t.ka_on_result <- None;
                f Peer_silent;
                abort t Retry_exhausted
            | None -> ()
          end
          else begin
            t.ka_unanswered <- t.ka_unanswered + 1;
            send_keepalive_probe t;
            arm_keepalive t
          end
        end)
  in
  t.ka_timer <- Some timer

let start_keepalive t ?(interval_us = 50_000.0) ?(probes = 3) ~on_result () =
  if interval_us <= 0.0 then
    invalid_arg "Socket.start_keepalive: interval_us must be positive";
  if probes < 1 then invalid_arg "Socket.start_keepalive: probes must be >= 1";
  t.ka_interval_us <- interval_us;
  t.ka_max_probes <- probes;
  t.ka_unanswered <- 0;
  t.ka_on_result <- Some on_result;
  arm_keepalive t

let stop_keepalive t =
  t.ka_on_result <- None;
  t.ka_unanswered <- 0;
  Option.iter Simclock.cancel t.ka_timer;
  t.ka_timer <- None

(* Any segment from the peer proves it alive: answer an outstanding
   probe's verdict and reset the unanswered count (keepalive keeps
   running — it is a monitor, not a one-shot). *)
let ka_note_activity t =
  if t.ka_unanswered > 0 then begin
    t.ka_unanswered <- 0;
    match t.ka_on_result with
    | Some f ->
        if Trace.enabled () then
          Trace.instant ~arg:0 Trace.Tcp_keepalive
            ~packet:(Trace.current_packet ())
            ~ts:(Machine.micros (machine t));
        f Peer_alive
    | None -> ()
  end

(* An acceptable inbound RST: the peer (or its restarted ghost) tore the
   connection down.  An outstanding keepalive probe gets its typed
   verdict before the abort callback fires. *)
let handle_reset t =
  (match t.ka_on_result with
  | Some f when t.ka_unanswered > 0 ->
      t.ka_on_result <- None;
      f Peer_reset
  | _ -> ());
  abort t Connection_reset

let persist_interval_us t =
  min persist_max_us
    (persist_initial_us *. (2.0 ** float_of_int t.persist_shifts))

let rec arm_persist t ~want =
  t.persist_want <- want;
  let stall_start =
    match t.stalled_since with
    | Some s -> s
    | None ->
        let now = Simclock.now t.clock in
        t.stalled_since <- Some now;
        M.inc m_zero_window_stalls 1;
        Recorder.note Recorder.Zero_window ~conn:t.local_port ~arg:want
          ~ts:(Machine.micros (machine t));
        if Trace.enabled () then
          Trace.instant Trace.Tcp_zero_window ~packet:(Trace.current_packet ())
            ~ts:(Machine.micros (machine t));
        now
  in
  Option.iter Simclock.cancel t.persist_timer;
  let timer =
    Simclock.schedule t.clock ~owner:t.owner ~after:(persist_interval_us t) (fun () ->
        t.persist_timer <- None;
        if t.st = Established || t.st = Close_wait then begin
          if Simclock.now t.clock -. stall_start >= t.cfg.stall_deadline_us then
            abort t Peer_stalled
          else begin
            send_probe t;
            t.persist_shifts <- t.persist_shifts + 1;
            arm_persist t ~want
          end
        end)
  in
  t.persist_timer <- Some timer

(* ------------------------------------------------------------------ *)
(* Retransmission of data segments *)

let rec arm_rto t =
  Option.iter Simclock.cancel t.rto_timer;
  if not (Queue.is_empty t.txq) then begin
    let timer = Simclock.schedule t.clock ~owner:t.owner ~after:(Rto.timeout_us t.rto) (fun () -> on_rto t) in
    t.rto_timer <- Some timer
  end
  else t.rto_timer <- None

and retransmit_seg t seg =
  M.bump t.ledger s_retransmissions 1;
  Recorder.note Recorder.Retransmit ~conn:t.local_port ~arg:seg.seq
    ~ts:(Machine.micros (machine t));
  if Trace.enabled () then
    Trace.instant ~arg:seg.seq Trace.Tcp_retransmit
      ~packet:(Trace.current_packet ()) ~ts:(Machine.micros (machine t));
  seg.rexmit <- true;
  seg.rexmits <- seg.rexmits + 1;
  (* tcp_output for the retransmission: fresh checksum pass over the ring
     contents, fresh header.  The PSH bit must match the original — a
     mid-TSDU segment replayed with PSH would terminate the receiver's
     reassembly early. *)
  let flags =
    Tcp_header.ack_flag lor (if seg.psh then Tcp_header.psh else 0)
  in
  let h = base_header t ~flags in
  let h = { h with seq = seg.seq } in
  let payload_acc =
    Ilp_checksum.Internet.checksum_mem (mem t) ~pos:seg.addr ~len:seg.len
      ~acc:Ilp_checksum.Internet.empty
  in
  let ck = Tcp_header.checksum h ~payload_acc ~payload_len:seg.len in
  transmit t { h with checksum = ck } ~payload:(Some (seg.addr, seg.len))

and on_rto t =
  match Queue.peek_opt t.txq with
  | None -> t.rto_timer <- None
  | Some seg ->
      if t.retries >= max_retries then abort t Retry_exhausted
      else begin
        t.retries <- t.retries + 1;
        M.bump t.ledger s_rto_fallbacks 1;
        (* Full reneging tolerance (RFC 2018 §8): on timeout every
           scoreboard hint is discarded and recovery restarts from the
           cumulative ack alone — a receiver that SACKed data and then
           threw it away can cost retransmissions, never correctness. *)
        Queue.iter
          (fun s ->
            s.sacked <- false;
            s.sack_rexmit <- false)
          t.txq;
        (* A timeout abandons any fast recovery in progress and restarts
           from slow start. *)
        t.in_recovery <- false;
        t.dupacks <- 0;
        on_congestion_loss t ~timeout:true;
        Rto.backoff t.rto;
        retransmit_seg t seg;
        arm_rto t
      end

(* ------------------------------------------------------------------ *)
(* SACK scoreboard (RFC 3517-style, segment granularity) *)

let first_unsacked t =
  Queue.fold
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None -> if s.sacked then None else Some s)
    None t.txq

let sacked_segments t =
  Queue.fold (fun n s -> if s.sacked then n + 1 else n) 0 t.txq

(* Retransmit every inferred hole the window allows: a segment is lost
   (RFC 3517 IsLost) when at least [dupack_threshold] SACKed segments
   lie above it.  Pipe counting bounds how much the retransmission burst
   can re-inflate the network; per RFC 3517 the pipe excludes both
   SACKed segments and inferred-lost segments whose retransmission is
   not believed in flight.  A hole goes out once per round trip: a
   segment still unsacked [1.5 x srtt] after the scoreboard last sent it
   had its retransmission lost too, and becomes eligible again — so a
   lost retransmission is retried ack-clocked instead of waiting for the
   RTO of last resort. *)
let sack_retransmit_holes t =
  if t.cfg.sack && t.in_recovery && not (Queue.is_empty t.txq) then begin
    let total_sacked = sacked_segments t in
    if total_sacked > 0 then begin
      let now = Simclock.now t.clock in
      let retry_after =
        match Rto.srtt_us t.rto with
        | Some s -> 1.5 *. s
        | None -> Rto.timeout_us t.rto /. 2.0
      in
      let eligible s =
        (not s.sack_rexmit) || now -. s.sack_rexmit_at >= retry_after
      in
      let cap = if t.cfg.congestion_control then t.cwnd else max_int in
      let pipe = ref 0 in
      let seen = ref 0 in
      Queue.iter
        (fun s ->
          if s.sacked then incr seen
          else begin
            let lost = total_sacked - !seen >= dupack_threshold in
            if (not lost) || not (eligible s) then pipe := !pipe + s.len
          end)
        t.txq;
      let seen = ref 0 in
      Queue.iter
        (fun s ->
          if s.sacked then incr seen
          else begin
            let sacked_above = total_sacked - !seen in
            if
              sacked_above >= dupack_threshold
              && eligible s && !pipe < cap
            then begin
              s.sack_rexmit <- true;
              s.sack_rexmit_at <- now;
              M.bump t.ledger s_sack_retransmits 1;
              Recorder.note Recorder.Sack_retransmit ~conn:t.local_port
                ~arg:s.seq ~ts:(Machine.micros (machine t));
              if Trace.enabled () then
                Trace.instant ~arg:s.seq Trace.Tcp_sack_rexmit
                  ~packet:(Trace.current_packet ())
                  ~ts:(Machine.micros (machine t));
              retransmit_seg t s;
              pipe := !pipe + s.len
            end
          end)
        t.txq
    end
  end

(* Validate one ack's SACK blocks against what was actually sent, apply
   the survivors to the scoreboard.  Rejected shapes are counted, never
   trusted: a block that is empty or inverted, reaches beyond [snd_nxt]
   (acknowledging data never sent), or overlaps another block of the
   same ack is hostile or corrupt by construction.  A block entirely at
   or below the cumulative ack is a D-SACK duplicate report — evidence
   one of our retransmissions was spurious. *)
let process_sack t (h : Tcp_header.t) =
  match h.Tcp_header.sack with
  | [] -> ()
  | blocks ->
      let invalid () =
        M.bump t.ledger s_sack_invalid 1
      in
      let accepted = ref [] in
      (* RFC 2883: a first block wholly contained in a later block of the
         same ack reports a duplicate arrival above the cumulative ack (a
         wire-duplicated or spuriously retransmitted out-of-order
         segment), not new scoreboard information — strip it here so the
         overlap rule below only condemns genuinely forged feedback.
         (The duplicate-below-cumack D-SACK form is the [r <= ack] case
         in the loop.) *)
      let blocks =
        match blocks with
        | (l, r) :: rest
          when l < r && r <= t.snd_nxt
               && List.exists (fun (al, ar) -> al <= l && r <= ar) rest ->
            M.bump t.ledger s_spurious_retransmits 1;
            rest
        | _ -> blocks
      in
      List.iter
        (fun (l, r) ->
          if l >= r || r > t.snd_nxt then invalid ()
          else if r <= h.Tcp_header.ack then begin
            M.bump t.ledger s_spurious_retransmits 1
          end
          else if List.exists (fun (al, ar) -> l < ar && al < r) !accepted
          then invalid ()
          else begin
            let l = max l h.Tcp_header.ack in
            accepted := (l, r) :: !accepted;
            M.bump t.ledger s_sack_blocks_rx 1;
            Queue.iter
              (fun s ->
                if (not s.sacked) && s.seq >= l && s.seq + s.len <= r then
                  s.sacked <- true)
              t.txq
          end)
        blocks

(* ------------------------------------------------------------------ *)
(* Public send path *)

let maybe_send_fin t =
  if t.pending_close && Queue.is_empty t.txq && Queue.is_empty t.streams
  then begin
    t.pending_close <- false;
    (match t.st with
    | Established -> transition t Fin_wait_1
    | Close_wait -> transition t Last_ack
    | _ -> ());
    send_control t ~flags:(Tcp_header.fin lor Tcp_header.ack_flag);
    t.snd_nxt <- t.snd_nxt + 1;
    arm_ctl_timer t ~flags:(Tcp_header.fin lor Tcp_header.ack_flag)
  end

(* tcp_output's own checksum pass over ring contents, for fills that did
   not integrate it. *)
let ring_checksum t ~addr ~len =
  let tr = Trace.enabled () in
  let t0 = if tr then Machine.micros (machine t) else 0.0 in
  let acc =
    Ilp_checksum.Internet.checksum_mem (mem t) ~pos:addr ~len
      ~acc:Ilp_checksum.Internet.empty
  in
  if tr then
    Trace.span Trace.Send_checksum ~packet:(Trace.current_packet ()) ~ts:t0
      ~dur:(Machine.micros (machine t) -. t0);
  acc

(* Header build, transmit and bookkeeping shared by the one-shot and
   streaming senders.  The payload is already in the ring at [addr]. *)
let send_data_segment t ~addr ~len ~psh ~payload_acc =
  let flags = Tcp_header.ack_flag lor (if psh then Tcp_header.psh else 0) in
  let h = base_header t ~flags in
  let ck = Tcp_header.checksum h ~payload_acc ~payload_len:len in
  transmit t { h with checksum = ck } ~payload:(Some (addr, len));
  Queue.add
    { seq = t.snd_nxt; len; addr; psh; rexmit = false; rexmits = 0;
      sent_at = Simclock.now t.clock; sacked = false; sack_rexmit = false;
      sack_rexmit_at = 0.0 }
    t.txq;
  t.snd_nxt <- t.snd_nxt + len;
  M.bump t.ledger s_bytes_sent len;
  let fl = bytes_in_flight t in
  if fl > t.peak_in_flight then t.peak_in_flight <- fl;
  M.set m_inflight (Queue.length t.txq);
  if t.rto_timer = None then arm_rto t

(* The stream pump: push segments of the front TSDU while the usable
   window, the congestion window and the ring all have room.  Re-run from
   every ack (new data acked, a window update, or fast-recovery
   inflation) — this is what keeps multiple segments in flight. *)
let rec pump_streams t =
  if (t.st = Established || t.st = Close_wait) && t.failed = None then
    match Queue.peek_opt t.streams with
    | None -> ()
    | Some s ->
        if s.ps_off >= s.ps_len then begin
          ignore (Queue.pop t.streams);
          maybe_send_fin t;
          pump_streams t
        end
        else begin
          let max_seg = t.cfg.mss - (t.cfg.mss mod s.ps_unit) in
          let seg = min max_seg (s.ps_len - s.ps_off) in
          if seg > Ring.size t.ring then
            invalid_arg "Socket.send_stream: mss exceeds the send buffer";
          if seg > send_window_space t then begin
            (* Window too small for the next segment.  With data still in
               flight, acks (or the RTO) reopen it; with nothing in
               flight there is no timer running, so this is a zero-window
               stall mid-stream — run the persist machinery. *)
            if Queue.is_empty t.txq && t.persist_timer = None then
              arm_persist t ~want:seg
          end
          else
            match Ring.reserve t.ring seg with
            | None -> ()  (* ring full: acks release space and re-pump *)
            | Some addr ->
                if t.persist_timer <> None then cancel_persist t;
                let off = s.ps_off in
                s.ps_off <- off + seg;
                (* One fused (or separate) pass over just this segment's
                   byte range, straight into the ring. *)
                let acc_opt = s.ps_fill (mem t) ~dst:addr ~off ~len:seg in
                let payload_acc =
                  match acc_opt with
                  | Some acc -> acc
                  | None -> ring_checksum t ~addr ~len:seg
                in
                send_data_segment t ~addr ~len:seg ~psh:(s.ps_off >= s.ps_len)
                  ~payload_acc;
                pump_streams t
        end

let send_message t ~len ~fill =
  if t.st <> Established then Error Not_established
  else if len > t.cfg.mss then Error Message_too_big
  else if not (Queue.is_empty t.streams) then
    (* A stream is mid-flight: a one-shot message may not interleave with
       its segments (the receiver would fold it into the TSDU). *)
    Error Buffer_full
  else if len > send_window_space t then begin
    (* No usable window.  If nothing is in flight there is no RTO to keep
       the connection moving, so start (or keep) the persist machinery;
       with data in flight, incoming acks or the RTO drive recovery. *)
    if Queue.is_empty t.txq && t.persist_timer = None then arm_persist t ~want:len;
    Error Window_full
  end
  else
    match Ring.reserve t.ring len with
    | None -> Error Buffer_full
    | Some addr ->
        cancel_persist t;
        (* tcp_send: the caller's fill writes the payload into the ring
           (either a plain copy or the fused ILP loop). *)
        let acc_opt = fill (mem t) ~dst:addr in
        (* tcp_output: checksum (unless already integrated), header. *)
        let payload_acc =
          match acc_opt with
          | Some acc -> acc
          | None -> ring_checksum t ~addr ~len
        in
        send_data_segment t ~addr ~len ~psh:true ~payload_acc;
        Ok ()

(* Warning 16: every following argument is labelled, so [?seg_unit] can
   never be erased by partial application — harmless here. *)
let[@warning "-16"] send_stream t ?(seg_unit = 1) ~len ~fill =
  if seg_unit <= 0 || seg_unit > t.cfg.mss then
    invalid_arg "Socket.send_stream: seg_unit must be in [1, mss]";
  if len <= 0 || len mod seg_unit <> 0 then
    invalid_arg "Socket.send_stream: len must be a positive multiple of seg_unit";
  if t.st <> Established then Error Not_established
  else if Queue.length t.streams >= max_pending_streams then
    Error Buffer_full
  else begin
    Queue.add { ps_len = len; ps_unit = seg_unit; ps_fill = fill; ps_off = 0 }
      t.streams;
    pump_streams t;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Connection management *)

let connect t ~remote_port =
  if t.st <> Closed then invalid_arg "Socket.connect: not closed";
  t.remote_port <- remote_port;
  t.snd_una <- t.iss;
  t.snd_nxt <- t.iss;
  transition t Syn_sent;
  send_control t ~flags:Tcp_header.syn;
  t.snd_nxt <- t.snd_nxt + 1;
  arm_ctl_timer t ~flags:Tcp_header.syn

let listen t =
  if t.st <> Closed then invalid_arg "Socket.listen: not closed";
  transition t Listen

let close t =
  match t.st with
  | Established | Close_wait ->
      t.pending_close <- true;
      maybe_send_fin t
  | Listen | Syn_sent ->
      transition t Closed;
      cancel_ctl_timer t
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Receive path *)

let alloc_ooo_slot t =
  let rec go i = if i = t.ooo_slots then None
    else if t.ooo_free.(i) then Some i
    else go (i + 1)
  in
  go 0

let seg_max t = max Tcp_header.max_wire_size (Tcp_header.size + t.cfg.mss)

(* Verify and deliver a data segment whose bytes start at [base] in user
   memory (receive staging or an out-of-order slot).

   TSDU reassembly: a segment without PSH is a piece of a larger TSDU —
   its plaintext is accumulated at the current reassembly offset (the
   engine handlers write [app_rx + dst_off]; the raw path copies into
   [rx_asm]) and delivery to the application waits for the PSH-marked
   final segment.  A PSH segment arriving with nothing accumulated is the
   legacy whole-TSDU-per-segment case and is delivered straight from the
   staging area, byte- and charge-identical to the pre-streaming stack. *)
let process_data t (h : Tcp_header.t) ~base ~payload_len =
  let open Ilp_checksum in
  let src = base + Tcp_header.size in
  let psh = Tcp_header.has h Tcp_header.psh in
  let framed =
    t.rx_framing && (match t.rx_proc with Rx_raw -> false | _ -> true)
  in
  let starting = framed && t.fr_elen < 0 in
  (* Framed geometry: the first segment of a framed TSDU carries the
     cleartext prelude ({!Framing}) announcing the TSDU's engine wire
     length; it is parsed (uncharged peeks — the charged pass over its
     bytes is the checksum walk) and stripped before the engine handler.
     The frame state is only committed once the segment's checksum
     verdict is [Ok], so a corrupt prelude can never wedge the
     connection's reassembly state. *)
  let frame =
    if not starting then Ok None
    else
      match Framing.parse_word0 (Mem.peek_u32 (mem t) src) with
      | Some plen when payload_len >= plen ->
          let elen = Mem.peek_u32 (mem t) (src + 4) in
          if elen > 0 && payload_len - plen <= elen then Ok (Some (plen, elen))
          else Error Bad_header
      | _ -> Error Bad_header
  in
  match frame with
  | Error reason ->
      count_drop t reason;
      false
  | Ok fr ->
  let plen = match fr with Some (p, _) -> p | None -> 0 in
  let eng_src = src + plen in
  let eng_len = payload_len - plen in
  let dst_off = t.rx_tsdu_off in
  let single = psh && dst_off = 0 in
  (* Each delivered data segment is one traced receive packet; the
     engine's rx handlers pick the id up via [Trace.current_packet]. *)
  if Trace.enabled () then ignore (Trace.begin_packet ());
  let verdict =
    (* Reassembly bound for the raw path (the engine handlers bound
       [dst_off + len] against their own application area): an
       accumulation that would overflow [rx_asm] is rejected without
       advancing [rcv_nxt] — the sender's retries end in a typed abort
       rather than silent truncation. *)
    if
      (match t.rx_proc with Rx_raw -> true | _ -> false)
      && (not single)
      && dst_off + payload_len > t.rx_asm_len
    then Error Bad_length
    else if framed && (not starting) && dst_off + eng_len > t.fr_elen then
      (* A framed continuation past the announced TSDU extent. *)
      Error Bad_length
    else
      match t.rx_proc with
      | Rx_raw | Rx_separate _ ->
          (* Separate checksum pass over the staged segment (header bytes
             included; the stored checksum field makes a valid segment fold
             to 0xffff). *)
          let tr = Trace.enabled () in
          let t0 = if tr then Machine.micros (machine t) else 0.0 in
          let acc = Tcp_header.pseudo_acc h ~payload_len in
          let acc =
            Internet.checksum_mem (mem t) ~pos:base ~len:(Tcp_header.size + payload_len)
              ~acc
          in
          if tr then
            Trace.span Trace.Recv_checksum ~packet:(Trace.current_packet ())
              ~ts:t0 ~dur:(Machine.micros (machine t) -. t0);
          if Internet.finish acc <> 0 then Error Bad_checksum
          else begin
            match t.rx_proc with
            | Rx_separate f ->
                if eng_len = 0 then Ok () (* prelude-only segment *)
                else (
                  match f (mem t) ~src:eng_src ~dst_off ~len:eng_len with
                  | Ok () -> Ok ()
                  | Error _ -> Error Bad_length)
            | Rx_raw | Rx_integrated _ -> Ok ()
          end
      | Rx_integrated f -> (
          (* The fused loop computes the payload sum while decrypting and
             unmarshalling; TCP folds in pseudo-header and header and decides
             acceptance afterwards (final stage of the three-stage model).
             A handler that cannot even start its loop (impossible payload
             length) rejects before any checksum verdict.  A framed
             prelude is checksummed by its own charged walk and folded in
             positionally ahead of the engine's accumulator. *)
          let eng_acc =
            if eng_len = 0 then Ok Internet.empty
            else f (mem t) ~src:eng_src ~dst_off ~len:eng_len
          in
          match eng_acc with
          | Error _ -> Error Bad_length
          | Ok acc ->
              let payload_acc =
                if plen = 0 then acc
                else
                  Internet.combine
                    (Internet.checksum_mem (mem t) ~pos:src ~len:plen
                       ~acc:Internet.empty)
                    acc ~len_b:eng_len
              in
              if Tcp_header.checksum h ~payload_acc ~payload_len = h.checksum then
                Ok ()
              else Error Bad_checksum)
  in
  Machine.compute (machine t) control_ops;
  match verdict with
  | Ok () ->
      t.rcv_nxt <- t.rcv_nxt + payload_len;
      M.bump t.ledger s_bytes_delivered payload_len;
      (match fr with
      | Some (p, elen) ->
          t.fr_base <- h.seq;
          t.fr_plen <- p;
          t.fr_elen <- elen
      | None -> ());
      if single then begin
        if framed then t.fr_elen <- -1;
        t.on_message ~src:eng_src ~len:eng_len
      end
      else begin
        (match t.rx_proc with
        | Rx_raw ->
            (* Accumulate the raw payload into the reassembly area (the
               charged unmarshal-style copy the engine paths perform
               inside their handlers). *)
            Mem.blit (mem t) ~src ~dst:(t.rx_asm + dst_off) ~len:payload_len
              ~unit_len:blit_unit
        | Rx_separate _ | Rx_integrated _ -> ());
        t.rx_tsdu_off <- dst_off + eng_len;
        if psh then begin
          let n = t.rx_tsdu_off in
          t.rx_tsdu_off <- 0;
          if framed then t.fr_elen <- -1;
          (* [src] points at the raw path's reassembly area; engine-backed
             consumers read the TSDU from their application area. *)
          t.on_message ~src:t.rx_asm ~len:n
        end
      end;
      true
  | Error reason ->
      if reason = Bad_checksum then begin
        M.bump t.ledger s_checksum_failures 1
      end;
      count_drop t reason;
      false

(* Final placement of an out-of-order segment (the single-copy receive
   path): when the current framed TSDU's extent is known and the segment
   lies wholly inside it, verify and decrypt it at arrival directly at
   its final TSDU offset — no stash copy, no reprocessing at drain time.
   Sound because the engine's receive kernels are stateless per segment
   (no cipher chaining across blocks' positions), exactly the property
   the send side's range fills already rely on.  A corrupt segment is
   dropped and never recorded; its retransmission overwrites whatever
   partial plaintext the failed pass left at [dst_off]. *)
let place_ooo t (h : Tcp_header.t) ~payload_len =
  let open Ilp_checksum in
  let src = t.rx_staging + Tcp_header.size in
  let dst_off = h.seq - t.fr_base - t.fr_plen in
  if Trace.enabled () then ignore (Trace.begin_packet ());
  let verdict =
    match t.rx_proc with
    | Rx_raw -> Error Bad_length (* placement requires an engine handler *)
    | Rx_separate f ->
        let acc = Tcp_header.pseudo_acc h ~payload_len in
        let acc =
          Internet.checksum_mem (mem t) ~pos:t.rx_staging
            ~len:(Tcp_header.size + payload_len) ~acc
        in
        if Internet.finish acc <> 0 then Error Bad_checksum
        else (
          match f (mem t) ~src ~dst_off ~len:payload_len with
          | Ok () -> Ok ()
          | Error _ -> Error Bad_length)
    | Rx_integrated f -> (
        match f (mem t) ~src ~dst_off ~len:payload_len with
        | Error _ -> Error Bad_length
        | Ok payload_acc ->
            if Tcp_header.checksum h ~payload_acc ~payload_len = h.checksum
            then Ok ()
            else Error Bad_checksum)
  in
  Machine.compute (machine t) control_ops;
  match verdict with
  | Ok () ->
      Hashtbl.add t.placed h.seq (payload_len, Tcp_header.has h Tcp_header.psh);
      t.last_ooo_seq <- h.seq;
      M.bump t.ledger s_ooo_placed 1
  | Error reason ->
      if reason = Bad_checksum then begin
        M.bump t.ledger s_checksum_failures 1
      end;
      count_drop t reason

let rec drain_ooo t =
  match Hashtbl.find_opt t.placed t.rcv_nxt with
  | Some (len, psh) ->
      (* Already verified and decrypted at its final offset when it
         arrived: advancing over it is pure bookkeeping — the re-copy the
         legacy stash drain performs has no counterpart here. *)
      Hashtbl.remove t.placed t.rcv_nxt;
      t.rcv_nxt <- t.rcv_nxt + len;
      M.bump t.ledger s_bytes_delivered len;
      t.rx_tsdu_off <- t.rx_tsdu_off + len;
      if psh then begin
        let n = t.rx_tsdu_off in
        t.rx_tsdu_off <- 0;
        t.fr_elen <- -1;
        t.on_message ~src:t.rx_asm ~len:n
      end;
      drain_ooo t
  | None -> (
      match Hashtbl.find_opt t.ooo t.rcv_nxt with
      | None -> ()
      | Some (slot, base, payload_len) ->
          Hashtbl.remove t.ooo t.rcv_nxt;
          t.ooo_free.(slot) <- true;
          let h = Tcp_header.read_mem (mem t) ~pos:base in
          if process_data t h ~base ~payload_len then drain_ooo t)

let handle_data t (h : Tcp_header.t) ~payload_len =
  if h.seq = t.rcv_nxt then begin
    if process_data t h ~base:t.rx_staging ~payload_len then begin
      drain_ooo t;
      send_ack t
    end
    (* Invalid checksum: silent drop; the sender's RTO recovers. *)
  end
  else if h.seq < t.rcv_nxt then begin
    (* Duplicate (e.g. a retransmission that crossed our ack).  Report it
       back as a D-SACK first block (RFC 2883) so the sender can tell a
       spurious retransmission from a lost ack; the 1-byte persist probes
       deliberately resend an acknowledged byte and are not reported. *)
    M.bump t.ledger s_duplicates 1;
    if t.cfg.sack && payload_len > 1 then
      t.dsack_pending <- Some (h.seq, h.seq + payload_len);
    send_ack t
  end
  else begin
    (* Out of order: place at the final TSDU offset when the framing
       makes that decidable, otherwise stash the staged segment for
       later processing. *)
    M.bump t.ledger s_out_of_order 1;
    (if Hashtbl.mem t.ooo h.seq || Hashtbl.mem t.placed h.seq then begin
       (* Duplicate of an already-held segment: also a D-SACK case. *)
       if t.cfg.sack && payload_len > 1 then
         t.dsack_pending <- Some (h.seq, h.seq + payload_len)
     end
     else if
       (* Eligible for final placement: framing on, an engine handler
          wired, the current TSDU's extent known from its prelude, and
          the segment wholly inside that extent.  Anything else — a
          TSDU-start arriving out of order, a segment of a future TSDU,
          a raw-path socket — falls back to the legacy stash. *)
       t.rx_framing && t.fr_elen >= 0 && payload_len > 0
       && (match t.rx_proc with Rx_raw -> false | _ -> true)
       && h.seq + payload_len <= t.fr_base + t.fr_plen + t.fr_elen
     then place_ooo t h ~payload_len
     else
       match alloc_ooo_slot t with
       | None ->
           (* No stash slot for this in-window segment: drop and count;
              retransmission will recover. *)
           count_drop t Out_of_window
       | Some slot ->
           let base = t.ooo_base + (slot * seg_max t) in
           Mem.blit (mem t) ~src:t.rx_staging ~dst:base
             ~len:(Tcp_header.size + payload_len) ~unit_len:blit_unit;
           t.ooo_free.(slot) <- false;
           Hashtbl.add t.ooo h.seq (slot, base, payload_len);
           t.last_ooo_seq <- h.seq);
    send_ack t
  end

let handle_ack t (h : Tcp_header.t) ~payload_len =
  (* An optimistic ack covers data this endpoint never sent: no honest
     (or merely lossy) network can produce it, only a peer trying to
     trick the sender into opening its window faster than the real
     round-trip allows.  Abort with a typed reason rather than let the
     forged clock drive transmission. *)
  if Tcp_header.has h Tcp_header.ack_flag && h.ack > t.snd_nxt then
    abort t Misbehaving_peer
  else begin
  let prev_window = t.peer_window in
  t.peer_window <- h.window;
  (* A window update (usually the ack to a persist probe) that makes the
     stalled message sendable ends the persist cycle; the application's
     retry then finds the space.  A probe ack still reporting too little
     space leaves the backoff running. *)
  if t.persist_timer <> None && send_window_space t >= t.persist_want then
    cancel_persist t;
  (* Scoreboard first: the dupack and partial-ack decisions below want
     this ack's selective information already applied. *)
  process_sack t h;
  (* A pure duplicate acknowledgement signals a lost segment ahead of
     still-arriving data: after [dupack_threshold] of them, retransmit the
     first unSACKed segment without waiting for the RTO (fast
     retransmit), then stay in fast recovery until the loss-time highwater
     mark is acknowledged.  An ack whose window differs is a window
     update, not evidence of loss, and does not count. *)
  if
    Tcp_header.has h Tcp_header.ack_flag
    && h.ack = t.snd_una && payload_len = 0
    && h.window = prev_window
    && (not (Tcp_header.has h Tcp_header.syn))
    && (not (Tcp_header.has h Tcp_header.fin))
    && not (Queue.is_empty t.txq)
  then begin
    t.dupacks <- t.dupacks + 1;
    (* SACK-based early retransmit (RFC 5827 style): with fewer segments
       outstanding than the duplicate-ack threshold could ever witness,
       and the scoreboard showing everything but the hole delivered, the
       full threshold is unreachable — lower it to what the flight can
       produce so a tail loss is recovered by fast retransmit instead of
       the RTO. *)
    let dup_thresh =
      let n = Queue.length t.txq in
      if
        t.cfg.sack && n > 0
        && n < 1 + dupack_threshold
        && sacked_segments t = n - 1
      then max 1 (n - 1)
      else dupack_threshold
    in
    if t.dupacks = dup_thresh && not t.in_recovery then begin
      match first_unsacked t with
      | Some seg ->
          M.bump t.ledger s_fast_retransmits 1;
          Recorder.note Recorder.Fast_retransmit ~conn:t.local_port
            ~arg:seg.seq ~ts:(Machine.micros (machine t));
          t.in_recovery <- true;
          t.recover <- t.snd_nxt;
          on_congestion_loss t ~timeout:false;
          if t.cfg.congestion_control then begin
            (* Window inflation: the threshold duplicate acks witness
               segments that left the network (RFC 5681 step 3.2). *)
            t.cwnd <- t.cwnd + (dupack_threshold * t.cfg.mss);
            set_cc_gauges t
          end;
          seg.sack_rexmit <- true;
          seg.sack_rexmit_at <- Simclock.now t.clock;
          retransmit_seg t seg;
          (* With SACK information, every hole the scoreboard can already
             infer goes out in the same recovery round — this is the
             several-holes-per-RTT win over NewReno. *)
          sack_retransmit_holes t;
          arm_rto t
      | None -> ()
    end
    else if t.in_recovery && t.dupacks > dup_thresh then begin
      (* Each further duplicate ack means another segment was delivered:
         inflate and let the pump put new data in flight (RFC 5681 step
         3.4 — this keeps the ack clock ticking during recovery).  The
         inflation is bounded by the number of segments actually
         outstanding: each can produce at most one duplicate ack, so
         anything beyond that is forgery (or wire duplication) and earns
         no window. *)
      if t.cfg.congestion_control && t.dupacks <= Queue.length t.txq
      then begin
        t.cwnd <- t.cwnd + t.cfg.mss;
        set_cc_gauges t
      end;
      sack_retransmit_holes t
    end
  end;
  if Tcp_header.has h Tcp_header.ack_flag && h.ack > t.snd_una then begin
    let newly_acked = h.ack - t.snd_una in
    t.dupacks <- 0;
    if not t.in_recovery then on_congestion_ack t ~acked:newly_acked;
    let sampled = ref false in
    let now = Simclock.now t.clock in
    let rec pop () =
      match Queue.peek_opt t.txq with
      | Some seg when seg.seq + seg.len <= h.ack ->
          ignore (Queue.pop t.txq);
          (* The ring and txq are reserved/queued in lockstep, so a
             successful pop guarantees a live oldest reservation. *)
          (match Ring.release t.ring with Ok () -> () | Error `Empty -> ());
          M.observe m_seg_rexmits seg.rexmits;
          if Trace.enabled () then
            Trace.span ~arg:seg.len Trace.Tcp_segment
              ~packet:(Trace.current_packet ()) ~ts:seg.sent_at
              ~dur:(now -. seg.sent_at);
          if (not seg.rexmit) && not !sampled then begin
            Rto.sample t.rto (now -. seg.sent_at);
            M.observe m_ack_rtt (int_of_float (now -. seg.sent_at));
            sampled := true
          end;
          pop ()
      | _ -> ()
    in
    pop ();
    t.snd_una <- max t.snd_una h.ack;
    if t.in_recovery then begin
      if h.ack >= t.recover then begin
        (* Full ack: recovery over, deflate to ssthresh (RFC 6582). *)
        t.in_recovery <- false;
        Queue.iter (fun s -> s.sack_rexmit <- false) t.txq;
        if t.cfg.congestion_control then begin
          t.cwnd <- t.ssthresh;
          set_cc_gauges t
        end
      end
      else begin
        (* Partial ack: the next hole is known lost — retransmit it
           immediately instead of waiting for three more duplicates,
           then fill any further holes the scoreboard has inferred. *)
        (match first_unsacked t with
        | Some seg ->
            if not seg.sack_rexmit then begin
              seg.sack_rexmit <- true;
              seg.sack_rexmit_at <- Simclock.now t.clock;
              retransmit_seg t seg
            end
        | None -> t.in_recovery <- false);
        sack_retransmit_holes t
      end
    end;
    M.set m_inflight (Queue.length t.txq);
    if Trace.enabled () then
      Trace.instant ~arg:newly_acked Trace.Tcp_ack
        ~packet:(Trace.current_packet ()) ~ts:now;
    t.retries <- 0;
    Rto.reset_backoff t.rto;
    arm_rto t;
    maybe_send_fin t
  end;
  (* Whatever just changed — new data acked, a window update, recovery
     inflation — may have opened room for more stream segments. *)
  pump_streams t
  end

let enter_time_wait t =
  transition t Time_wait;
  Option.iter Simclock.cancel t.tw_timer;
  let timer =
    Simclock.schedule t.clock ~owner:t.owner ~after:(2.0 *. rto_max_us)
      (fun () ->
        t.tw_timer <- None;
        if t.st = Time_wait then transition t Closed)
  in
  t.tw_timer <- Some timer

let handle_datagram t (dgram : Datagram.t) =
  match Ipv4.decapsulate dgram.Datagram.payload with
  | Error _ ->
      M.bump t.ledger s_ip_errors 1;
      count_drop t Bad_ip
  | Ok (ip, _) when ip.Ipv4.protocol <> Ipv4.protocol_tcp ->
      M.bump t.ledger s_ip_errors 1;
      count_drop t Bad_ip
  | Ok (_, wire) ->
  let total = String.length wire in
  if total < Tcp_header.size then count_drop t Bad_header
  else if total > seg_max t then count_drop t Bad_length
  else begin
    M.bump t.ledger s_segments_received 1;
    Machine.exec (machine t) t.code_kernel;
    Machine.exec (machine t) t.code_ctrl;
    (* Kernel demultiplexing and tcp_input connection lookup. *)
    Machine.compute (machine t) ack_ops;
    (* Network adapter DMA into the kernel buffer: not a CPU cost. *)
    Mem.poke_string (mem t) ~pos:t.kernel_rx wire;
    (* read(): system copy kernel -> user staging, then header parse
       (data offset included: an option area is walked and must be the
       one canonical SACK layout). *)
    Mem.blit (mem t) ~src:t.kernel_rx ~dst:t.rx_staging ~len:total
      ~unit_len:blit_unit;
    let parsed = Tcp_header.read_mem_v (mem t) ~pos:t.rx_staging ~total in
    let h = parsed.Tcp_header.hdr in
    let hdr_len = parsed.Tcp_header.hdr_len in
    if not parsed.Tcp_header.options_ok then
      (* Structurally hostile options (impossible data offset, truncated
         or non-canonical option bytes): drop before trusting any field
         that depends on knowing where the header ends. *)
      count_drop t Bad_header
    else if hdr_len > Tcp_header.size && total > hdr_len then
      (* Options on a data segment would break the paper's fixed-header
         ILP precondition (the fused loop must know the payload offset
         before it starts); this stack only ever puts SACK on pure acks,
         so anything else is a misbehaving peer's frame. *)
      count_drop t Bad_header
    else if
      hdr_len > Tcp_header.size
      && (let open Ilp_checksum in
          let acc = Tcp_header.pseudo_acc h ~payload_len:0 in
          let acc =
            Internet.checksum_mem (mem t) ~pos:t.rx_staging ~len:hdr_len ~acc
          in
          Internet.finish acc <> 0)
    then begin
      (* Pure acks normally skip checksum verification (they carry no
         payload to protect), but the SACK machinery acts on option
         contents — verify before letting a corrupt block reach the
         scoreboard. *)
      M.bump t.ledger s_checksum_failures 1;
      count_drop t Bad_checksum
    end
    else begin
    let payload_len = total - hdr_len in
    if Tcp_header.has h Tcp_header.rst then begin
      (* Inbound reset.  Count every arrival, but only act on one whose
         sequence number is exactly what this endpoint expects next
         (RFC 5961-style strict acceptance: the resets this stack
         generates always echo the victim's own ack, so an honest reset
         always matches, while a blind off-window forgery is dropped and
         counted). *)
      M.bump t.ledger s_rst_rx 1;
      Recorder.note Recorder.Rst_rx ~conn:t.local_port ~arg:h.seq
        ~ts:(Machine.micros (machine t));
      if Trace.enabled () then
        Trace.instant ~arg:0 Trace.Tcp_rst ~packet:(Trace.current_packet ())
          ~ts:(Machine.micros (machine t));
      match t.st with
      | Closed | Listen -> ()
      | Syn_sent ->
          (* Acceptable only when it acknowledges our SYN. *)
          if Tcp_header.has h Tcp_header.ack_flag && h.ack = t.snd_nxt then
            handle_reset t
          else count_drop t Out_of_window
      | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
      | Last_ack | Time_wait ->
          if h.seq = t.rcv_nxt then handle_reset t
          else count_drop t Out_of_window
    end
    else
    match t.st with
    | Closed ->
        (* A dead connection (crashed host or typed abort) answers with
           RST so the peer stops retransmitting into a black hole; a
           cleanly closed socket stays silent (clean wire traces must be
           byte-identical to the pre-fault-model stack). *)
        if t.destroyed || t.failed <> None then send_rst t h ~payload_len
    | Listen ->
        if Tcp_header.has h Tcp_header.syn then begin
          t.remote_port <- h.src_port;
          t.rcv_nxt <- h.seq + 1;
          t.peer_window <- h.window;
          t.snd_una <- t.iss;
          t.snd_nxt <- t.iss;
          transition t Syn_rcvd;
          send_control t ~flags:(Tcp_header.syn lor Tcp_header.ack_flag);
          t.snd_nxt <- t.snd_nxt + 1;
          arm_ctl_timer t ~flags:(Tcp_header.syn lor Tcp_header.ack_flag)
        end
    | Syn_sent ->
        if
          Tcp_header.has h Tcp_header.syn
          && Tcp_header.has h Tcp_header.ack_flag
          && h.ack = t.snd_nxt
        then begin
          t.rcv_nxt <- h.seq + 1;
          t.peer_window <- h.window;
          t.snd_una <- h.ack;
          transition t Established;
          cancel_ctl_timer t;
          send_ack t
        end
    | Syn_rcvd ->
        if Tcp_header.has h Tcp_header.syn then begin
          (* Retransmitted SYN: our SYN-ACK was lost; resend it with the
             original initial sequence number (snd_nxt already counts the
             SYN). *)
          let h = base_header t ~flags:(Tcp_header.syn lor Tcp_header.ack_flag) in
          let h = { h with seq = t.snd_nxt - 1 } in
          let ck =
            Tcp_header.checksum h ~payload_acc:Ilp_checksum.Internet.empty
              ~payload_len:0
          in
          transmit t { h with checksum = ck } ~payload:None
        end
        else if Tcp_header.has h Tcp_header.ack_flag && h.ack = t.snd_nxt then begin
          t.snd_una <- h.ack;
          t.peer_window <- h.window;
          transition t Established;
          cancel_ctl_timer t;
          if payload_len > 0 then handle_data t h ~payload_len
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack | Time_wait ->
        ka_note_activity t;
        handle_ack t h ~payload_len;
        (* [handle_ack] may have aborted the connection (optimistic-ack
           forgery): nothing further in this datagram is trusted. *)
        if t.failed = None then begin
          (* A retransmitted SYN-ACK means our final handshake ACK was lost:
             acknowledge again so the peer can leave SYN_RCVD. *)
          if Tcp_header.has h Tcp_header.syn then send_ack t;
          if payload_len > 0 then handle_data t h ~payload_len;
          if Tcp_header.has h Tcp_header.fin && h.seq = t.rcv_nxt then begin
            t.rcv_nxt <- t.rcv_nxt + 1;
            send_ack t;
            match t.st with
            | Established -> transition t Close_wait
            | Fin_wait_1 ->
                (* Simultaneous close or FIN+ACK combined. *)
                if t.snd_una = t.snd_nxt then enter_time_wait t
                else transition t Close_wait
            | Fin_wait_2 -> enter_time_wait t
            | _ -> ()
          end;
          (* FIN acknowledged? *)
          (match t.st with
          | Fin_wait_1 when t.snd_una = t.snd_nxt ->
              cancel_ctl_timer t;
              transition t Fin_wait_2
          | Last_ack when t.snd_una = t.snd_nxt ->
              cancel_ctl_timer t;
              transition t Closed
          | _ -> ())
        end
    end
  end
