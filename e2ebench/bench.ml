(* The runner: builds a world, times its set-up, drives a measured phase,
   turns what it saw into the benchmark's named metrics and checks that
   every output was correct. *)

module W = Worlds
module T = Tracer
module M = Ilp_obs.Metrics
module Socket = Ilp_tcp.Socket
module Link = Ilp_netsim.Link
module Simclock = Ilp_netsim.Simclock
module Machine = Ilp_memsim.Machine
module Stats = Ilp_memsim.Stats
module Pool = Ilp_fastpath.Pool
module Memtraffic = Ilp_fastpath.Memtraffic
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client

(* ---- per-workload parameters ---- *)

(* Ops completed during set-up, so caches, pools and congestion windows
   are warm before timing starts. *)
let warmup_ops = function W.Paper_sim -> 4 | W.Bulk_stream -> 16 | W.Rpc_fanin -> 32

(* The first [sim_window] ops of the measured phase carry the
   virtual-clock metrics, so they do not depend on how fast the host ran.
   Each is well under what a run completes on a 2-core host. *)
let sim_window = function W.Paper_sim -> 200 | W.Bulk_stream -> 400 | W.Rpc_fanin -> 4000

(* Host metrics are scaled per group of this many consecutive ops, about
   half a second each on a 2-core host; see [host_metrics]. *)
let group_ops = function W.Paper_sim -> 25 | W.Bulk_stream -> 80 | W.Rpc_fanin -> 300

(* Calibration rounds timed after a step (at most one slice per
   millisecond), and either side of a set-up (see [Calib] and
   [ref_round_ns]). *)
let calib_rounds = 4
let calib_every_ns = 1_000_000
let setup_calib_rounds = 200

(* The reference speed host times are scaled to: one calibration round
   in 10 us, about the median on the host this was tuned on. *)
let ref_round_ns = 10_000.0

(* How much more the stack slows than the kernel when the host slows:
   the least-squares slope of log(op-group time) on log(kernel round
   time) was 1.28-1.37 on all three workloads on the tuning host. *)
let elasticity = 1.3

(* Factor turning host time measured while the kernel ran at [round_ns]
   per round into host time at the reference speed. *)
let speed_scale round_ns = (ref_round_ns /. round_ns) ** elasticity

(* The fewest op groups a measured phase may complete: at least 400 ops
   on every workload, so at least forty lie beyond the 90th
   percentile. *)
let min_groups = 16

let min_ops workload = max (sim_window workload) (min_groups * group_ops workload)

(* Set-up is repeated this many times per run; the median is reported. *)
let setup_repeats = 5

let build ?tracer ?corrupt ?op_limit ?sim_window:window workload ~seed =
  let sim_window = Option.value window ~default:(sim_window workload) in
  match workload with
  | W.Paper_sim -> W.build_paper ?tracer ?corrupt ?op_limit ~seed ~copies:1 ~sim_window ()
  | W.Bulk_stream -> W.build_stream ?tracer ?corrupt ?op_limit ~seed ~sim_window ()
  | W.Rpc_fanin -> W.build_fanin ?tracer ?corrupt ?op_limit ~seed ~sim_window ()

(* Build a world and run it until its warm-up ops are verified; returns
   the world and the host seconds that took at the reference speed (see
   [ref_round_ns]), from calibration slices either side. *)
let setup ?tracer ?corrupt ?op_limit ?sim_window workload ~seed =
  let cal0 = Calib.time setup_calib_rounds in
  let t0 = T.now_ns () in
  let w = build ?tracer ?corrupt ?op_limit ?sim_window workload ~seed in
  let warm = warmup_ops workload in
  while w.W.meter.W.warm_completed < warm && w.W.meter.W.failures = [] do
    w.W.step ()
  done;
  let secs = float_of_int (T.now_ns () - t0) /. 1e9 in
  let cal1 = Calib.time setup_calib_rounds in
  let round_ns = float_of_int (cal0 + cal1) /. float_of_int (2 * setup_calib_rounds) in
  (w, secs *. speed_scale round_ns)

(* ---- counters ---- *)

(* Cumulative counts a world exposes through public accessors. *)
let counts (w : W.world) =
  let sum f =
    float_of_int (List.fold_left (fun a (_, s) -> a + f (Socket.stats s)) 0 w.W.endpoints)
  in
  let ls = Link.stats w.W.link in
  let ps = Pool.stats w.W.pool in
  let srv f = match w.W.server with Some s -> float_of_int (f s) | None -> 0.0 in
  let cli f = float_of_int (Array.fold_left (fun a c -> a + f c) 0 w.W.clients) in
  let st = Machine.stats w.W.sim.Ilp_memsim.Sim.machine in
  let gc = Gc.quick_stat () in
  [ ("tcp.segments_sent", sum (fun s -> s.Socket.segments_sent));
    ("tcp.segments_received", sum (fun s -> s.Socket.segments_received));
    ("tcp.bytes_delivered", sum (fun s -> s.Socket.bytes_delivered));
    ("tcp.acks_sent", sum (fun s -> s.Socket.acks_sent));
    ("tcp.retransmissions", sum (fun s -> s.Socket.retransmissions));
    ("tcp.fast_retransmits", sum (fun s -> s.Socket.fast_retransmits));
    ("tcp.rto_fallbacks", sum (fun s -> s.Socket.rto_fallbacks));
    ("tcp.checksum_failures", sum (fun s -> s.Socket.checksum_failures));
    ( "tcp.drops",
      float_of_int (List.fold_left (fun a (_, s) -> a + Socket.drops_total s) 0 w.W.endpoints) );
    ("link.sent", float_of_int ls.Link.sent);
    ("link.delivered", float_of_int ls.Link.delivered);
    ("link.dropped", float_of_int ls.Link.dropped);
    ("rpc.replies_sent", srv Rpc_server.replies_sent);
    ("rpc.requests_received", srv Rpc_server.requests_received);
    ("rpc.sheds", srv Rpc_server.sheds_total);
    ("rpc.client.retries", cli Rpc_client.retries);
    ("pool.acquired", float_of_int ps.Pool.acquired);
    ("pool.fresh_allocs", float_of_int ps.Pool.fresh_allocs);
    ( "memsim.data_accesses",
      float_of_int (Stats.accesses st Stats.Read + Stats.accesses st Stats.Write) );
    ( "memsim.dcache_misses",
      float_of_int (Stats.misses st Stats.Read ~level:1 + Stats.misses st Stats.Write ~level:1) );
    ("memsim.cycles", Machine.cycles w.W.sim.Ilp_memsim.Sim.machine);
    ("gc.minor_collections", float_of_int gc.Gc.minor_collections);
    ("gc.major_collections", float_of_int gc.Gc.major_collections) ]

(* Each count above that the stack also keeps in the process-wide
   registry, with the registry's names for it: over a measured phase the
   two must agree exactly. *)
let registry_pairs =
  [ ("tcp.segments_sent", [ "tcp.segments_sent" ]);
    ("tcp.segments_received", [ "tcp.segments_received" ]);
    ("tcp.bytes_delivered", [ "tcp.bytes_delivered" ]);
    ("tcp.acks_sent", [ "tcp.acks_sent" ]);
    ("tcp.retransmissions", [ "tcp.retransmissions" ]);
    ("tcp.fast_retransmits", [ "tcp.fast_retransmits" ]);
    ("tcp.rto_fallbacks", [ "tcp.rto_fallbacks" ]);
    ("tcp.checksum_failures", [ "tcp.checksum_failures" ]);
    ("tcp.drops", List.map (fun r -> "tcp.drop." ^ Socket.drop_reason_to_string r) Socket.drop_reasons);
    ("link.sent", [ "link.sent" ]);
    ("link.delivered", [ "link.delivered" ]);
    ("link.dropped", [ "link.dropped" ]);
    ("rpc.replies_sent", [ "rpc.replies_sent" ]);
    ("rpc.requests_received", [ "rpc.requests_received" ]);
    ( "rpc.sheds",
      List.map (fun r -> "rpc.shed." ^ Rpc_server.shed_reason_to_string r) Rpc_server.shed_reasons );
    ("rpc.client.retries", [ "rpc.client.retries" ]);
    ("pool.acquired", [ "pool.acquired" ]);
    ("pool.fresh_allocs", [ "pool.fresh_allocs" ]) ]

(* ---- the measured phase ---- *)

type phase = {
  world : W.world;
  steps : int;
  phase_t0 : float;  (* host clock at the start, ns *)
  calib_ns : float array;  (* mean calibration round time per op group *)
  wall_ns : int;
  minor_words : float;
  deltas : (string * float) list;
  registry : M.snapshot;  (* registry deltas over the phase *)
  traffic : Memtraffic.snapshot;  (* host memory-traffic deltas *)
  digest : int;  (* wire digest at the end of the phase *)
  span_from : int;  (* first span of the phase in the tracer's log *)
}

(* Step [w] until [stop ~steps ~elapsed_ns] holds (checked between steps)
   or an op fails. *)
let run_phase ?tracer w ~stop =
  let m = w.W.meter in
  let c0 = counts w in
  let r0 = M.snapshot M.default in
  let mt0 = Memtraffic.snapshot () in
  m.W.measuring <- true;
  m.W.phase_sim0 <- Simclock.now w.W.clock;
  m.W.send_us <- 0.0;
  m.W.send_n <- 0;
  m.W.recv_us <- 0.0;
  m.W.recv_n <- 0;
  let span_from = match tracer with Some tr -> tr.T.len | None -> 0 in
  let g = group_ops w.W.workload in
  let calib = W.Fvec.create () in
  let cal_ns = ref 0 and cal_rounds = ref 0 and last_cal = ref 0 in
  (* A calibration slice after a step, at most one per [calib_every_ns]
     of host time, averaged per op group; its time is paused out of
     the host clock the ops are timed with.  The slice's first round only
     brings the kernel back into cache after the stack evicted it. *)
  let calibrate () =
    let t = T.now_ns () in
    let since = t - !last_cal in
    if since >= calib_every_ns then begin
      (* As many rounds as milliseconds of stack time since the last
         slice, so long steps are sampled as densely as short ones. *)
      let rounds = calib_rounds * min 100 (since / calib_every_ns) in
      ignore (Calib.time 1);
      cal_ns := !cal_ns + Calib.time rounds;
      cal_rounds := !cal_rounds + rounds;
      last_cal := T.now_ns ()
    end;
    if m.W.completed >= (calib.W.Fvec.n + 1) * g && !cal_rounds > 0 then begin
      W.Fvec.push calib (float_of_int !cal_ns /. float_of_int !cal_rounds);
      cal_ns := 0;
      cal_rounds := 0
    end;
    m.W.paused_ns <- m.W.paused_ns + (T.now_ns () - t)
  in
  let w0 = Gc.minor_words () in
  let t0 = W.host_now m in
  let steps = ref 0 in
  (match tracer with
  | None ->
      while m.W.failures = [] && not (stop ~steps:!steps ~elapsed_ns:(W.host_now m - t0)) do
        w.W.step ();
        calibrate ();
        incr steps
      done
  | Some tr ->
      while m.W.failures = [] && not (stop ~steps:!steps ~elapsed_ns:(W.host_now m - t0)) do
        let s = T.enter tr T.clock ~op:(-1) ~arg:0 in
        w.W.step ();
        T.leave tr s;
        calibrate ();
        incr steps
      done);
  let wall_ns = W.host_now m - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  m.W.measuring <- false;
  let c1 = counts w in
  { world = w;
    steps = !steps;
    phase_t0 = float_of_int t0;
    calib_ns = W.Fvec.prefix calib calib.W.Fvec.n;
    wall_ns;
    minor_words;
    deltas = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) c0 c1;
    registry = M.diff (M.snapshot M.default) r0;
    traffic = Memtraffic.diff (Memtraffic.snapshot ()) mt0;
    digest = !(w.W.digest);
    span_from }

(* ---- checks ---- *)

let reconcile p =
  List.filter_map
    (fun (name, reg_names) ->
      let bench = List.assoc name p.deltas in
      let reg =
        List.fold_left (fun a n -> a + M.counter_diff p.registry [] n) 0 reg_names
      in
      if float_of_int reg = bench then None
      else
        Some
          (Printf.sprintf "registry mismatch: %s counted %.0f, registry %s moved %d"
             name bench (String.concat "+" reg_names) reg))
    registry_pairs

(* Failed ops, and typed failures left on sockets or clients. *)
let world_failures (w : W.world) =
  let m = w.W.meter in
  let sockets =
    List.filter_map
      (fun (role, s) ->
        Option.map (fun r -> role ^ ": " ^ Socket.abort_reason_to_string r) (Socket.failure s))
      w.W.endpoints
  in
  let clients =
    Array.to_list w.W.clients
    |> List.filter_map (fun c -> Option.map Rpc_client.failure_to_string (Rpc_client.failure c))
  in
  List.rev m.W.failures @ sockets @ clients

let pool_outstanding_after_teardown (w : W.world) =
  w.W.teardown ();
  Pool.outstanding w.W.pool

(* ---- metrics ---- *)

let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  Ilp_bench.Report.percentile_sorted a q

let median l = percentile (Array.of_list l) 0.5
let delta p k = List.assoc k p.deltas
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The virtual-clock metrics, from the frozen window. *)
let sim_metrics p =
  let m = p.world.W.meter in
  match m.W.win with
  | None -> Error (Printf.sprintf "only %d ops completed, the sim window needs %d" m.W.completed m.W.sim_window)
  | Some win ->
      let lat = W.Fvec.prefix m.W.sim_ms m.W.sim_window in
      Ok
        [ ("sim_goodput_Mbps", float_of_int win.W.w_bytes *. 8.0 /. win.W.w_sim_us, "Mbit/s");
          ("sim_latency_ms_p50", percentile lat 0.5, "sim_ms");
          ("sim_latency_ms_p90", percentile lat 0.9, "sim_ms");
          ("sim_send_pkt_us", ratio win.W.w_send_us (float_of_int win.W.w_send_n), "sim_us");
          ("sim_recv_pkt_us", ratio win.W.w_recv_us (float_of_int win.W.w_recv_n), "sim_us") ]

(* Host time at the reference speed.  The shared 2-core host this was
   tuned on switches, for seconds to minutes at a time, between speeds up
   to 1.6x apart, so raw whole-run figures spread 15-40% between
   identical runs.  The runner therefore times a fixed calibration kernel
   ([Calib]) in small slices between steps, and cuts the completed ops
   into groups of [group_ops] consecutive ops; each group's host time,
   and the latency of each op in it, is multiplied by [speed_scale] of
   the kernel's mean round time during that group: the time the group
   would have taken on a host running the kernel at the reference speed.
   A slower stack still slows every group by its own amount; a slower
   host slows the kernel with it.  Allocation needs no scaling. *)
let groups p =
  let m = p.world.W.meter in
  let g = group_ops p.world.W.workload in
  let n = min (m.W.completed / g) (Array.length p.calib_ns) in
  let ends i = W.Fvec.get m.W.host_end_ns i in
  let start k = if k = 0 then p.phase_t0 else ends ((k * g) - 1) in
  List.init n (fun k ->
      let scale = speed_scale p.calib_ns.(k) in
      (k, (ends (((k + 1) * g) - 1) -. start k) *. scale, scale))

(* The host's speed over the phase relative to the reference, in %: the
   mean of the groups' scale factors. *)
let host_speed_pct p =
  match groups p with
  | [] -> 100.0
  | gs -> 100.0 *. List.fold_left (fun a (_, _, s) -> a +. s) 0.0 gs /. float_of_int (List.length gs)

let host_metrics p =
  let m = p.world.W.meter in
  let g = group_ops p.world.W.workload in
  let gs = groups p in
  let secs = List.fold_left (fun a (_, d, _) -> a +. d) 0.0 gs /. 1e9 in
  let bytes_per_op = float_of_int m.W.bytes /. float_of_int (max 1 m.W.completed) in
  let lat =
    Array.concat
      (List.map
         (fun (k, _, scale) -> Array.map (fun ms -> ms *. scale) (W.Fvec.sub m.W.host_ms (k * g) g))
         gs)
  in
  [ ("goodput_MBps", bytes_per_op *. float_of_int (g * List.length gs) /. 1e6 /. secs, "MB/s");
    ("op_ms_p50", percentile lat 0.5, "ms");
    ("op_ms_p90", percentile lat 0.9, "ms");
    ("alloc_words_per_KB", p.minor_words /. (float_of_int m.W.bytes /. 1024.0), "words/KiB") ]

(* Counts per unit of work: deterministic for a given seed and step count. *)
let count_metrics p ~pool_outstanding =
  let m = p.world.W.meter in
  let ops = float_of_int (max 1 m.W.completed) in
  let bytes = float_of_int (max 1 m.W.bytes) in
  let segs = delta p "tcp.segments_sent" in
  let rexmit = delta p "tcp.retransmissions" in
  let sent = delta p "link.sent" in
  let acc = delta p "memsim.data_accesses" in
  let attempted = m.W.completed + m.W.failed in
  [ ("memsim.data_accesses_per_byte", acc /. bytes, "accesses/B");
    ("memsim.dcache_miss_pct", 100.0 *. ratio (delta p "memsim.dcache_misses") acc, "%");
    ("memsim.cycles_per_byte", delta p "memsim.cycles" /. bytes, "cycles/B");
    ( "fastpath.copied_tx_per_byte",
      float_of_int (Memtraffic.copied_tx_total p.traffic) /. bytes, "B/B" );
    ( "fastpath.copied_rx_per_byte",
      float_of_int (Memtraffic.copied_rx_total p.traffic) /. bytes, "B/B" );
    ( "fastpath.alloc_bytes_per_byte",
      float_of_int (Memtraffic.allocated_total p.traffic) /. bytes, "B/B" );
    ("pool.fresh_allocs_per_op", delta p "pool.fresh_allocs" /. ops, "allocs/op");
    ("pool.outstanding_end", float_of_int pool_outstanding, "buffers");
    ("tcp.segments_per_op", segs /. ops, "segs/op");
    ("tcp.acks_per_segment", ratio (delta p "tcp.acks_sent") segs, "acks/seg");
    ("tcp.retransmit_pct", 100.0 *. ratio rexmit segs, "%");
    ("tcp.useful_segment_ratio", ratio (segs -. rexmit) segs, "ratio");
    ("tcp.rto_fallbacks_per_kop", 1000.0 *. delta p "tcp.rto_fallbacks" /. ops, "rto/kop");
    ("tcp.fast_retransmits", delta p "tcp.fast_retransmits", "count");
    ("tcp.drops_total", delta p "tcp.drops", "count");
    ("link.dgrams_per_op", sent /. ops, "dgrams/op");
    ("link.dropped_pct", 100.0 *. ratio (delta p "link.dropped") sent, "%");
    ("rpc.replies_per_op", delta p "rpc.replies_sent" /. ops, "replies/op");
    ("rpc.sheds_total", delta p "rpc.sheds", "count");
    ("rpc.client_retries", delta p "rpc.client.retries", "count");
    ("gc.minor_collections_per_op", delta p "gc.minor_collections" /. ops, "colls/op");
    ("gc.major_collections", delta p "gc.major_collections", "count");
    ( "ops_failed_pct",
      100.0 *. ratio (float_of_int m.W.failed) (float_of_int (max 1 attempted)), "%" ) ]

let role_names = [ "sender"; "receiver"; "srv_ctrl"; "srv_data"; "cli_ctrl"; "cli_data" ]

(* Span names whose allocation is reported per call. *)
let span_families =
  [ ("tcp.rx", List.map (fun r -> W.role_span r) role_names);
    ("tcp.tx", [ T.tcp_tx ]);
    ("engine.tx", [ T.engine_tx ]);
    ("engine.rx", [ T.engine_rx ]);
    ("rpc.reply", [ T.rpc_reply ]);
    ("rpc.request", [ T.rpc_request ]);
    ("link.send", [ T.link_send ]);
    ("clock", [ T.clock ]);
    ("app.verify", [ T.app_verify ]) ]

let goodput p = match host_metrics p with (_, g, _) :: _ -> g | [] -> 0.0

(* Everything a phase computes that must not depend on the host: the
   wire digest, the op count, every count metric except the GC's, and the
   virtual-clock metrics. *)
let deterministic p ~pool_outstanding =
  let counts =
    List.filter
      (fun (k, _, _) -> not (String.starts_with ~prefix:"gc." k))
      (count_metrics p ~pool_outstanding)
  in
  let sim = match sim_metrics p with Ok l -> l | Error e -> [ (e, 0.0, "") ] in
  [ ("wire_digest", float_of_int p.digest, ""); ("ops", float_of_int p.world.W.meter.W.completed, "") ]
  @ counts @ sim
  |> List.map (fun (k, v, _) -> (k, v))

(* Per-layer host metrics from the traced phase's spans.  Shares are self
   time over the traced phase's host time; [us_per_*] figures without
   "self" are inclusive. *)
let span_metrics tr p ~untraced_goodput =
  let t0 = T.totals ~from:p.span_from tr in
  (* Absolute times at the reference speed, like the end-to-end ones. *)
  let scale = host_speed_pct p /. 100.0 in
  let sc = Array.map (fun v -> v *. scale) in
  let t = { t0 with T.self_ns = sc t0.T.self_ns; incl_ns = sc t0.T.incl_ns } in
  let total = float_of_int p.wall_ns *. scale in
  let ops = float_of_int (max 1 p.world.W.meter.W.completed) in
  let per n v = if t.T.calls.(n) = 0 then 0.0 else v /. float_of_int t.T.calls.(n) in
  let share n = 100.0 *. t.T.self_ns.(n) /. total in
  let per_kb n = if t.T.args.(n) = 0.0 then 0.0 else t.T.self_ns.(n) /. (t.T.args.(n) /. 1024.0) in
  let rx =
    List.concat_map
      (fun role ->
        let n = W.role_span role in
        [ ("tcp.rx." ^ role ^ ".self_us_per_dgram", per n t.T.self_ns.(n) /. 1000.0, "us/dgram");
          ("tcp.rx." ^ role ^ ".share_pct", share n, "%") ])
      role_names
  in
  let words =
    List.map
      (fun (fam, ns) ->
        let calls = List.fold_left (fun a n -> a + t.T.calls.(n)) 0 ns in
        let w = List.fold_left (fun a n -> a +. t.T.self_words.(n)) 0.0 ns in
        (fam ^ ".minor_words_per_call", ratio w (float_of_int calls), "words/call"))
      span_families
  in
  let self_sum = Array.fold_left ( +. ) 0.0 t.T.self_ns in
  let goodput = goodput p in
  rx
  @ [ ("tcp.tx.self_us_per_call", per T.tcp_tx t.T.self_ns.(T.tcp_tx) /. 1000.0, "us/call");
      ("engine.tx.self_ns_per_KB", per_kb T.engine_tx, "ns/KiB");
      ("engine.tx.share_pct", share T.engine_tx, "%");
      ("engine.rx.self_ns_per_KB", per_kb T.engine_rx, "ns/KiB");
      ("engine.rx.share_pct", share T.engine_rx, "%");
      ("rpc.reply.us_per_reply", per T.rpc_reply t.T.incl_ns.(T.rpc_reply) /. 1000.0, "us/reply");
      ("rpc.reply.share_pct", share T.rpc_reply, "%");
      ("rpc.request.us_per_call", per T.rpc_request t.T.incl_ns.(T.rpc_request) /. 1000.0, "us/call");
      ("link.send.self_ns_per_dgram", per T.link_send t.T.self_ns.(T.link_send), "ns/dgram");
      ("link.share_pct", share T.link_send, "%");
      ("clock.self_us_per_op", t.T.self_ns.(T.clock) /. 1000.0 /. ops, "us/op");
      ("clock.share_pct", share T.clock, "%");
      ("app.verify.us_per_op", t.T.incl_ns.(T.app_verify) /. 1000.0 /. ops, "us/op") ]
  @ words
  @ [ ("trace.coverage_pct", 100.0 *. self_sum /. total, "%");
      ( "trace.overhead_pct",
        100.0 *. ratio (untraced_goodput -. goodput) untraced_goodput, "%" );
      ("trace.spans", float_of_int (tr.T.len - p.span_from), "count");
      ("host.speed_pct", host_speed_pct p, "%") ]

(* ---- result line ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       correct attempted failed);
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
