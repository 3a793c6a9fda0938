(* The complete measured system: end-to-end transfers for every cipher and
   mode, and the memory-behaviour invariants the paper's conclusions rest
   on. *)

open Ilp_memsim
module Ft = Ilp_app.File_transfer
module Engine = Ilp_core.Engine
module Linkage = Ilp_core.Linkage

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small_setup ?(machine = Config.ss10_30) ?(cipher = Ft.Safer_simplified)
    ?(mode = Engine.Ilp) ?(copies = 2) ?(max_reply = 1024) ?(loss_rate = 0.0)
    ?(linkage = Linkage.Macro) ?(coalesce = false)
    ?(header_style = Engine.Leading) ?(rx_placement = Engine.Early)
    ?(uniform_units = false) ?(native = false) () =
  { (Ft.default_setup ~machine ~mode) with
    Ft.cipher;
    copies;
    max_reply;
    loss_rate;
    linkage;
    coalesce_writes = coalesce;
    header_style;
    rx_placement;
    uniform_units;
    native }

let run s =
  let r = Ft.run s in
  (match r.Ft.error with
  | Some e when not r.Ft.ok -> Alcotest.failf "transfer failed: %s" e
  | _ -> ());
  checkb "verified" true r.Ft.ok;
  r

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_deterministic () =
  let a = Ilp_app.Workload.generate ~len:1000 ~seed:5 in
  let b = Ilp_app.Workload.generate ~len:1000 ~seed:5 in
  let c = Ilp_app.Workload.generate ~len:1000 ~seed:6 in
  checkb "same seed same bytes" true (String.equal a b);
  checkb "different seed different bytes" false (String.equal a c);
  check "length" 1000 (String.length a);
  check "paper file" (15 * 1024) Ilp_app.Workload.paper_file_len

let test_workload_install () =
  let sim = Sim.create (Config.custom ()) in
  let s = Ilp_app.Workload.generate ~len:100 ~seed:1 in
  let addr = Ilp_app.Workload.install sim s in
  Alcotest.(check string)
    "installed" s
    (Bytes.to_string (Mem.peek_bytes sim.Sim.mem ~pos:addr ~len:100))

(* ------------------------------------------------------------------ *)
(* End-to-end matrix *)

let test_matrix () =
  List.iter
    (fun cipher ->
      List.iter
        (fun mode ->
          let r = run (small_setup ~cipher ~mode ~copies:1 ()) in
          check "all payload delivered" (15 * 1024) r.Ft.payload_bytes)
        [ Engine.Ilp; Engine.Separate ])
    [ Ft.Safer_simplified; Ft.Simple_encryption; Ft.Safer_full 6; Ft.Des ]

let test_native_backend_end_to_end () =
  (* The whole protocol — TCP checksum verification included — must work
     when the data manipulations run on the native fast path, in both
     modes and for both a SWAR and a table-driven cipher. *)
  List.iter
    (fun cipher ->
      List.iter
        (fun mode ->
          let r = run (small_setup ~cipher ~mode ~native:true ~copies:1 ()) in
          check "all payload delivered" (15 * 1024) r.Ft.payload_bytes;
          check "no checksum failures" 0 r.Ft.checksum_failures)
        [ Engine.Ilp; Engine.Separate ])
    [ Ft.Simple_encryption; Ft.Safer_simplified ]

let test_under_loss () =
  let r = run (small_setup ~loss_rate:0.2 ~copies:3 ()) in
  checkb "retransmissions occurred" true (r.Ft.retransmissions > 0);
  check "no checksum failures without corruption" 0 r.Ft.checksum_failures

let test_trailer_style () =
  let r = run (small_setup ~header_style:Engine.Trailer ()) in
  check "all payload delivered" (2 * 15 * 1024) r.Ft.payload_bytes

let test_function_call_linkage_runs () =
  let r = run (small_setup ~linkage:Linkage.function_calls ()) in
  check "all payload delivered" (2 * 15 * 1024) r.Ft.payload_bytes

let test_packet_sizes () =
  List.iter
    (fun max_reply ->
      let r = run (small_setup ~copies:1 ~max_reply ()) in
      check
        (Printf.sprintf "payload for %d" max_reply)
        (15 * 1024) r.Ft.payload_bytes)
    [ 256; 512; 768; 1280; 100; 17 ]

let test_streaming_replies () =
  (* [mss = Some m] smaller than a reply forces every reply through
     [Socket.send_stream] — segmented, pipelined, reassembled — and the
     transfer must still verify byte-exact.  The registry's
     engine.stream_fills counter witnesses that the per-segment fused
     range fills actually ran. *)
  let module M = Ilp_obs.Metrics in
  let before = M.snapshot M.default in
  let r =
    run { (small_setup ~copies:1 ~max_reply:1024 ()) with Ft.mss = Some 256 }
  in
  check "all payload delivered" (15 * 1024) r.Ft.payload_bytes;
  check "no checksum failures" 0 r.Ft.checksum_failures;
  let after = M.snapshot M.default in
  checkb "replies travelled as fused per-segment range fills" true
    (M.counter_diff after before "engine.stream_fills" > 0)

(* ------------------------------------------------------------------ *)
(* The paper's memory-behaviour claims as invariants *)

let pair_runs ?cipher () =
  let ilp = run (small_setup ?cipher ~mode:Engine.Ilp ~copies:4 ()) in
  let non = run (small_setup ?cipher ~mode:Engine.Separate ~copies:4 ()) in
  (ilp, non)

let test_ilp_reduces_memory_accesses () =
  let ilp, non = pair_runs () in
  let total (r : Ft.result) k = Stats.accesses r.Ft.total_stats k in
  checkb "fewer reads" true (total ilp Stats.Read < total non Stats.Read);
  checkb "fewer writes" true (total ilp Stats.Write < total non Stats.Write);
  (* "up to 30%": at least 15% fewer in our configuration. *)
  let reduction =
    1.0
    -. (float_of_int (total ilp Stats.Read + total ilp Stats.Write)
        /. float_of_int (total non Stats.Read + total non Stats.Write))
  in
  checkb "substantial reduction" true (reduction > 0.15)

let test_ilp_receive_miss_ratio_rises () =
  (* Section 4.2: with the simplified SAFER, the receive-side D-cache miss
     ratio rises sharply under ILP (4.7% -> 18.7% in the paper). *)
  let ilp, non = pair_runs () in
  let ratio (r : Ft.result) = Stats.data_miss_ratio r.Ft.recv_stats in
  checkb "ILP ratio much higher" true (ratio ilp > 2.0 *. ratio non);
  (* And the cause is 1-byte write misses. *)
  let byte_miss (r : Ft.result) =
    Stats.misses_of_size r.Ft.recv_stats Stats.Write ~size:1 ~level:1
  in
  checkb "byte-write misses explode" true (byte_miss ilp > 10 * max 1 (byte_miss non))

let test_simple_encryption_no_miss_explosion () =
  (* With the table-free word-oriented cipher the pathology disappears. *)
  let ilp, non = pair_runs ~cipher:Ft.Simple_encryption () in
  let wm (r : Ft.result) = Stats.misses r.Ft.recv_stats Stats.Write ~level:1 in
  checkb "ILP write misses do not explode" true (wm ilp < 2 * max 1 (wm non))

let test_ilp_faster_both_paths () =
  let ilp, non = pair_runs () in
  checkb "send faster" true (Ft.mean ilp.Ft.send_us < Ft.mean non.Ft.send_us);
  checkb "recv faster" true (Ft.mean ilp.Ft.recv_us < Ft.mean non.Ft.recv_us)

let test_function_calls_lose_the_benefit () =
  (* Section 3.2.1: substituting macros by function calls loses the ILP
     gain. *)
  let non = run (small_setup ~mode:Engine.Separate ~copies:4 ()) in
  let calls =
    run (small_setup ~mode:Engine.Ilp ~linkage:Linkage.function_calls ~copies:4 ())
  in
  let macro = run (small_setup ~mode:Engine.Ilp ~copies:4 ()) in
  let proc (r : Ft.result) = Ft.mean r.Ft.send_us +. Ft.mean r.Ft.recv_us in
  let gain_macro = (proc non -. proc macro) /. proc non in
  let gain_calls = (proc non -. proc calls) /. proc non in
  checkb "macro gain substantial" true (gain_macro > 0.10);
  checkb "call gain mostly gone" true (gain_calls < 0.5 *. gain_macro)

let test_coalesced_stores_cut_write_misses () =
  (* Section 2.2: sizing stores to Le removes the per-byte write misses. *)
  let plain = run (small_setup ~mode:Engine.Ilp ~copies:4 ()) in
  let lcm = run (small_setup ~mode:Engine.Ilp ~coalesce:true ~copies:4 ()) in
  let wm (r : Ft.result) = Stats.misses r.Ft.recv_stats Stats.Write ~level:1 in
  checkb "LCM stores cut receive write misses by >2x" true (2 * wm lcm < wm plain)

let test_no_l2_machine_slower () =
  (* Two machines identical except for the second-level cache: dropping
     the L2 must cost cycles (the SS10-30 effect). *)
  let base = Config.ss10_41 in
  let without = { base with Config.name = "SS10-41-noL2"; l2 = None } in
  let r_with = run (small_setup ~machine:base ()) in
  let r_without =
    let s = small_setup ~machine:without () in
    let r = Ft.run s in
    checkb "verified" true r.Ft.ok;
    r
  in
  let proc (r : Ft.result) = Ft.mean r.Ft.recv_us +. Ft.mean r.Ft.send_us in
  checkb "missing L2 costs time" true (proc r_without > proc r_with)

let test_late_placement_end_to_end () =
  (* Section 3.2.3: deferring the manipulations to delivery time still
     transfers correctly and costs about the same (the separate checksum
     pass is offset by the dropped tap and lower register pressure). *)
  let early = run (small_setup ()) in
  let late = run (small_setup ~rx_placement:Engine.Late ()) in
  check "all payload delivered" (2 * 15 * 1024) late.Ft.payload_bytes;
  let r (x : Ft.result) = Ft.mean x.Ft.recv_us in
  checkb "receive times within 10%" true
    (Float.abs (r late -. r early) /. r early < 0.10)

let test_uniform_units () =
  (* Section 5: uniform unit sizes transfer correctly and shave the
     per-invocation dispatch. *)
  let mixed = run (small_setup ()) in
  let uniform = run (small_setup ~uniform_units:true ()) in
  check "all payload delivered" (2 * 15 * 1024) uniform.Ft.payload_bytes;
  checkb "uniform units are no slower" true
    (Ft.mean uniform.Ft.send_us <= Ft.mean mixed.Ft.send_us +. 0.5)

let test_stall_accounting () =
  let r = run (small_setup ()) in
  checkb "stall time measured" true (r.Ft.send_stall_us > 0.0 && r.Ft.recv_stall_us > 0.0);
  checkb "stall below total machine time" true
    (r.Ft.send_stall_us +. r.Ft.recv_stall_us < r.Ft.total_machine_us);
  checkb "ifetch stall non-negative" true (r.Ft.ifetch_stall_us >= 0.0)

let test_des_much_slower_than_simplified () =
  (* The paper's reason for simplifying SAFER: realistic ciphers drown the
     stack. *)
  let des = run (small_setup ~cipher:Ft.Des ~copies:1 ()) in
  let simplified = run (small_setup ~cipher:Ft.Safer_simplified ~copies:1 ()) in
  checkb "DES dominates processing" true
    (Ft.mean des.Ft.send_us > 3.0 *. Ft.mean simplified.Ft.send_us)

(* ------------------------------------------------------------------ *)
(* Data path *)

let test_pool_exhaustion_end_to_end () =
  (* A cap-0 shared pool recycles nothing: every acquire falls back to a
     fresh allocation, and the transfer must neither fail nor leak. *)
  let pool = Ilp_fastpath.Pool.create ~class_cap:0 () in
  let r = run { (small_setup ~copies:1 ()) with Ft.pool = Some pool } in
  check "all payload delivered on fallback" (15 * 1024) r.Ft.payload_bytes;
  let s = Ilp_fastpath.Pool.stats pool in
  checkb "fallback allocated fresh" true (s.Ilp_fastpath.Pool.fresh_allocs > 0);
  checkb "nothing recycled at cap 0" true
    (s.Ilp_fastpath.Pool.fresh_allocs = s.Ilp_fastpath.Pool.acquired);
  check "shared pool balanced" 0 (Ilp_fastpath.Pool.outstanding pool)

(* ------------------------------------------------------------------ *)
(* The v2 ("Reverso") framed receive: negotiated end-to-end, byte-exact,
   and able to land out-of-order segments at their final TSDU offset. *)

let with_framing s = { s with Ft.framing = true }

let test_framed_transfer_matrix () =
  (* Framing must deliver byte-exact across modes and backends, both with
     whole-message replies and pipelined streaming. *)
  List.iter
    (fun (mode, native, mss) ->
      let s =
        { (small_setup ~mode ~native ~copies:1 ()) with Ft.framing = true; mss }
      in
      let r = run s in
      check "all payload delivered" (15 * 1024) r.Ft.payload_bytes;
      check "no checksum failures" 0 r.Ft.checksum_failures;
      check "no pool leaks" 0 r.Ft.pool_leaks)
    [ (Engine.Ilp, false, None);
      (Engine.Ilp, false, Some 256);
      (Engine.Ilp, true, Some 256);
      (Engine.Separate, false, Some 256);
      (Engine.Separate, true, None) ]

let test_framed_equals_unframed_payload () =
  (* Same application bytes either way; the framed wire carries the
     preludes on top (one seg_unit per reply TSDU). *)
  let base = { (small_setup ~copies:1 ()) with Ft.mss = Some 256 } in
  let plain = run base in
  let framed = run (with_framing base) in
  check "same payload" plain.Ft.payload_bytes framed.Ft.payload_bytes;
  checkb "framed wire strictly larger (preludes)" true
    (framed.Ft.wire_bytes > plain.Ft.wire_bytes);
  check "prelude overhead is one seg_unit per reply"
    (framed.Ft.wire_bytes - plain.Ft.wire_bytes)
    (framed.Ft.n_replies * 8)

let test_framed_ooo_final_placement () =
  (* A jittery wire reorders pipelined segments; with framing on, the
     receiver must land them at their final TSDU offset (witnessed by
     the tcp.ooo_placed counter) and still verify byte-exact. *)
  let module M = Ilp_obs.Metrics in
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.jitter_us = 120.0;
      delay_spike_rate = 0.2;
      delay_spike_us = 600.0 }
  in
  let before = M.snapshot M.default in
  let r =
    run
      { (small_setup ~copies:2 ()) with
        Ft.framing = true;
        mss = Some 256;
        impairments = Some imp;
        deadline_us = 60_000_000.0 }
  in
  check "all payload delivered" (2 * 15 * 1024) r.Ft.payload_bytes;
  check "no pool leaks" 0 r.Ft.pool_leaks;
  let after = M.snapshot M.default in
  checkb "out-of-order segments landed at final placement" true
    (M.counter_diff after before "tcp.ooo_placed" > 0)

let test_framed_under_chaos () =
  (* Loss, corruption and duplication against the framed receive: the
     transfer must still be byte-exact (corrupt preludes rejected by the
     segment checksum, retransmissions recovering), and must agree with
     the unframed run on payload. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.15;
      corrupt_rate = 0.05;
      dup_rate = 0.05;
      jitter_us = 100.0 }
  in
  let base =
    { (small_setup ~copies:2 ()) with
      Ft.mss = Some 256;
      impairments = Some imp;
      deadline_us = 60_000_000.0 }
  in
  let framed = run (with_framing base) in
  let plain = run base in
  checkb "chaos actually bit (retransmissions)" true
    (framed.Ft.retransmissions > 0);
  check "same payload under chaos" plain.Ft.payload_bytes
    framed.Ft.payload_bytes;
  check "no leaks under chaos" 0 framed.Ft.pool_leaks

let test_framed_crc_trailer_sack_interplay () =
  (* The end-to-end CRC32 trailer, SACK loss recovery and the framed
     receive all stack: a lossy, jittery wire forces SACK-driven hole
     retransmissions while every delivered TSDU still verifies its
     trailer behind the framing prelude. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.12;
      jitter_us = 150.0 }
  in
  let base =
    { (small_setup ~copies:2 ()) with
      Ft.crc = true;
      mss = Some 256;
      impairments = Some imp;
      deadline_us = 60_000_000.0 }
  in
  let framed = run (with_framing base) in
  let plain = run base in
  checkb "framed transfer completed" true framed.Ft.ok;
  check "same payload with trailer + framing" plain.Ft.payload_bytes
    framed.Ft.payload_bytes;
  checkb "loss actually bit (retransmissions)" true
    (framed.Ft.retransmissions > 0);
  check "no pool leaks" 0 framed.Ft.pool_leaks;
  (* The trailer rides inside the engine TSDU, so the framed overhead is
     still exactly one prelude per reply. *)
  check "prelude overhead unchanged by the trailer"
    (framed.Ft.wire_bytes - plain.Ft.wire_bytes)
    (framed.Ft.n_replies * 8)

(* ------------------------------------------------------------------ *)
(* Adversarial wire and the soak harness *)

let test_fault_free_impairments_unchanged () =
  (* Routing the transfer through the impairment model with fault_free
     settings must reproduce the legacy run exactly: same bytes, same
     timings, same counters. *)
  let legacy = run (small_setup ~copies:1 ()) in
  let via =
    run
      { (small_setup ~copies:1 ()) with
        Ft.impairments = Some Ilp_netsim.Link.fault_free }
  in
  check "same payload" legacy.Ft.payload_bytes via.Ft.payload_bytes;
  check "same wire bytes" legacy.Ft.wire_bytes via.Ft.wire_bytes;
  check "same retransmissions (none)" 0 via.Ft.retransmissions;
  checkb "same machine time" true
    (legacy.Ft.total_machine_us = via.Ft.total_machine_us);
  checkb "clean drop ledger" true
    (List.for_all (fun (_, n) -> n = 0) via.Ft.drops)

let test_transfer_reports_typed_error_under_chaos () =
  (* A wire hostile enough to kill the transfer must yield a typed error,
     not a hang or an exception. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.9; corrupt_rate = 0.5 }
  in
  let r =
    Ft.run
      { (small_setup ~copies:1 ()) with
        Ft.impairments = Some imp;
        deadline_us = 10_000_000.0 }
  in
  checkb "not ok" false r.Ft.ok;
  checkb "typed error present" true (r.Ft.error <> None)

let soak_smoke cfg =
  let o = Ilp_app.Soak.run cfg in
  check "all iterations accounted" cfg.Ilp_app.Soak.iterations
    (o.Ilp_app.Soak.completed + o.Ilp_app.Soak.failed
    + o.Ilp_app.Soak.escaped_exceptions + o.Ilp_app.Soak.silent_corruptions);
  checkb "invariants hold" true (Ilp_app.Soak.invariants_hold o);
  o

let test_soak_smoke () =
  let cfg =
    { Ilp_app.Soak.default_config with
      Ilp_app.Soak.iterations = 48;
      file_len = 256;
      max_reply = 128 }
  in
  let o = soak_smoke cfg in
  checkb "chaos actually bit" true
    (o.Ilp_app.Soak.link.Ilp_netsim.Link.corrupted > 0
    && o.Ilp_app.Soak.link.Ilp_netsim.Link.dropped > 0);
  checkb "some transfers survived" true (o.Ilp_app.Soak.completed > 0)

let test_soak_deterministic () =
  let cfg =
    { Ilp_app.Soak.default_config with
      Ilp_app.Soak.iterations = 16;
      file_len = 256;
      max_reply = 128 }
  in
  let o1 = soak_smoke cfg in
  let o2 = soak_smoke cfg in
  checkb "same seed, same outcome" true (o1 = o2);
  let o3 = soak_smoke { cfg with Ilp_app.Soak.seed = 2 } in
  checkb "different seed, different ledger" true
    (o1.Ilp_app.Soak.link <> o3.Ilp_app.Soak.link)

let test_overload_soak_smoke () =
  let module Soak = Ilp_app.Soak in
  let cfg = { Soak.default_overload_config with Soak.file_len = 1024 } in
  let o = Soak.run_overload cfg in
  checkb "graceful-degradation invariants hold" true
    (Soak.overload_invariants_hold o);
  check "every client classified" cfg.Soak.clients
    (o.Soak.completed + o.Soak.typed_failures + o.Soak.silent_outcomes);
  checkb "honest majority completed" true (o.Soak.completed >= 6);
  checkb "misbehaving clients got typed outcomes" true (o.Soak.typed_failures >= 2);
  checkb "zero-window machinery exercised" true (o.Soak.persist_probes > 0);
  checkb "dead reader aborted Peer_stalled" true (o.Soak.peer_stalled_aborts >= 1);
  checkb "budget ceiling respected" true
    (o.Soak.peak_queued_bytes <= o.Soak.queue_cap);
  (* Deterministic under a fixed seed. *)
  let o2 = Soak.run_overload cfg in
  checkb "same seed, same outcome" true (o = o2)

let test_crash_soak_smoke () =
  let module Soak = Ilp_app.Soak in
  let cfg =
    { Soak.default_crash_config with Soak.transfers = 8; file_len = 1024 }
  in
  let o = Soak.run_crash cfg in
  checkb "fault-model invariants hold" true (Soak.crash_invariants_hold o);
  check "every transfer classified" cfg.Soak.transfers
    (o.Soak.completed + o.Soak.typed_failures + o.Soak.silent_outcomes);
  checkb "crashes actually happened" true (o.Soak.crashes > 0);
  checkb "some transfer resumed across a restart" true
    (o.Soak.resumed_completed > 0);
  check "never restarted from byte zero" 0 o.Soak.restarts_from_zero;
  check "no stale timers after any crash" 0 o.Soak.stale_timers;
  check "dedup ledger conserved" 0 o.Soak.dedup_violations;
  check "pool balanced" 0 o.Soak.pool_leaks;
  (* Deterministic under a fixed seed. *)
  let o2 = Soak.run_crash cfg in
  checkb "same seed, same outcome" true (o = o2)

let test_overload_lying_receiver () =
  (* The lying-receiver persona forges SACK feedback through the link's
     tamper hook; every forgery must be either rejected (and counted) by
     the server's SACK validation or answered with a typed
     Misbehaving_peer abort — and its own transfer must still be
     byte-exact or typed, never silently wrong. *)
  let module Soak = Ilp_app.Soak in
  let cfg = { Soak.default_overload_config with Soak.file_len = 2048 } in
  let o = Soak.run_overload cfg in
  checkb "graceful-degradation invariants hold" true
    (Soak.overload_invariants_hold o);
  checkb "the lying receiver actually forged acks" true (o.Soak.forged_acks > 0);
  checkb "forged feedback was rejected or typed-aborted" true
    (o.Soak.forged_rejections > 0);
  checkb "no forgery went unpunished" false o.Soak.forgery_unpunished

(* ------------------------------------------------------------------ *)
(* The composition root *)

module Stack = Ilp_app.Stack
module Socket = Ilp_tcp.Socket
module Server = Ilp_rpc.Server
module Simclock = Ilp_netsim.Simclock

(* A clean world with one server; [rpc base] brings a connection up. *)
let stack_world () =
  let sim = Sim.create Config.ss10_30 in
  let clock = Simclock.create () in
  let st = Stack.create sim clock ~seed:1 Ilp_netsim.Link.fault_free in
  let engine () =
    Stack.engine st (fun pool ->
        Engine.create sim
          ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key:"stackTST" ())
          ~mode:Engine.Ilp ~pool ())
  in
  let server = Server.create ~clock ~engine:(engine ()) () in
  let cfg = Socket.default_config in
  (sim, clock, st, engine, server, fun base -> Stack.rpc st server ~base ~ctrl:cfg ~data:cfg)

let test_stack_rpc_comes_up () =
  let _, clock, _, _, server, rpc = stack_world () in
  let c = rpc 2000 in
  Simclock.run_until_idle clock;
  Alcotest.(check (list int))
    "srv_ctrl, cli_ctrl, srv_data, cli_data on base .. base + 3"
    [ 2000; 2001; 2002; 2003 ]
    (List.map Socket.local_port
       [ c.Stack.srv_ctrl; c.Stack.cli_ctrl; c.Stack.srv_data; c.Stack.cli_data ]);
  checkb "ctrl and data established" true
    (List.for_all (fun s -> Socket.state s = Socket.Established) (Stack.sockets c));
  check "server pair attached" 1 (Server.connections server);
  checkb "reusing a bound base raises Invalid_argument" true
    (match rpc 2000 with _ -> false | exception Invalid_argument _ -> true)

let test_stack_second_rpc_transfers () =
  let sim, clock, st, engine, server, rpc = stack_world () in
  ignore (rpc 2000);
  let c = rpc 2004 in
  let client =
    Ilp_rpc.Client.create ~clock ~engine:(engine ()) ~ctrl:c.Stack.cli_ctrl
      ~data:c.Stack.cli_data ()
  in
  let file = Ilp_app.Workload.generate ~len:4096 ~seed:9 in
  Server.add_file server ~name:"f.bin" ~addr:(Ilp_app.Workload.install sim file)
    ~len:4096;
  Simclock.run_until_idle clock;
  checkb "request accepted" true
    (Result.is_ok
       (Ilp_rpc.Client.request_file client ~name:"f.bin" ~copies:1 ~max_reply:512
          ~expected:file));
  Simclock.run_until_idle clock;
  checkb "complete" true (Ilp_rpc.Client.transfer_complete client);
  check "bytes" 4096 (Ilp_rpc.Client.bytes_received client);
  check "teardown audit after a clean transfer" 0 (Stack.teardown st)

(* One TSDU over a bare socket pair whose receiver returns its pooled
   plaintext buffer, or holds it; the teardown audit's count. *)
let stack_audit ~hold =
  let sim, clock, st, engine, _, _ = stack_world () in
  let tx_eng = engine () in
  let rx_eng = engine () in
  let tx = Stack.socket st Socket.default_config ~port:7001 in
  let rx = Stack.socket st Socket.default_config ~port:7002 in
  (match Engine.rx_style rx_eng with
  | Engine.Rx_integrated_style f -> Socket.set_rx_processing rx (Socket.Rx_integrated f)
  | Engine.Rx_deferred_style f -> Socket.set_rx_processing rx (Socket.Rx_separate f));
  let delivered = ref 0 in
  Socket.set_on_message rx (fun ~src:_ ~len ->
      match Engine.read_plaintext_pooled rx_eng ~len with
      | Error e -> Alcotest.fail e
      | Ok (buf, _) ->
          incr delivered;
          if not hold then Engine.release_plaintext rx_eng buf);
  Socket.listen rx;
  Socket.connect tx ~remote_port:7002;
  Simclock.run_until_idle clock;
  let addr = Ilp_app.Workload.install sim (Ilp_app.Workload.generate ~len:512 ~seed:4) in
  let ps = Engine.prepare_stream_segments tx_eng [ Engine.Seg_app { addr; len = 512 } ] in
  checkb "sent" true
    (Result.is_ok
       (Socket.send_stream tx ~seg_unit:ps.Engine.seg_unit ~len:ps.Engine.stream_len
          ~fill:ps.Engine.fill_range));
  Simclock.run_until_idle clock;
  check "one TSDU delivered" 1 !delivered;
  Stack.teardown st

let test_stack_teardown_audits_pool () =
  check "every buffer returned" 0 (stack_audit ~hold:false);
  check "one held buffer is one leak" 1 (stack_audit ~hold:true)

let () =
  Alcotest.run "app"
    [ ( "workload",
        [ Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "install" `Quick test_workload_install ] );
      ( "end-to-end",
        [ Alcotest.test_case "cipher x mode matrix" `Slow test_matrix;
          Alcotest.test_case "native backend end-to-end" `Quick
            test_native_backend_end_to_end;
          Alcotest.test_case "under loss" `Quick test_under_loss;
          Alcotest.test_case "trailer style" `Quick test_trailer_style;
          Alcotest.test_case "function-call linkage" `Quick
            test_function_call_linkage_runs;
          Alcotest.test_case "packet sizes" `Slow test_packet_sizes;
          Alcotest.test_case "streaming replies" `Quick test_streaming_replies ] );
      ( "paper invariants",
        [ Alcotest.test_case "ILP reduces memory accesses" `Quick
            test_ilp_reduces_memory_accesses;
          Alcotest.test_case "receive miss ratio rises" `Quick
            test_ilp_receive_miss_ratio_rises;
          Alcotest.test_case "simple encryption: no explosion" `Quick
            test_simple_encryption_no_miss_explosion;
          Alcotest.test_case "ILP faster on both paths" `Quick test_ilp_faster_both_paths;
          Alcotest.test_case "function calls lose the benefit" `Quick
            test_function_calls_lose_the_benefit;
          Alcotest.test_case "LCM stores cut write misses" `Quick
            test_coalesced_stores_cut_write_misses;
          Alcotest.test_case "no-L2 machine pays more cycles" `Quick
            test_no_l2_machine_slower;
          Alcotest.test_case "late placement" `Quick test_late_placement_end_to_end;
          Alcotest.test_case "uniform units" `Quick test_uniform_units;
          Alcotest.test_case "stall accounting" `Quick test_stall_accounting;
          Alcotest.test_case "DES dominates" `Quick test_des_much_slower_than_simplified ] );
      ( "data path",
        [ Alcotest.test_case "pool exhaustion fallback end to end" `Quick
            test_pool_exhaustion_end_to_end ] );
      ( "framed receive",
        [ Alcotest.test_case "framed transfer matrix" `Quick
            test_framed_transfer_matrix;
          Alcotest.test_case "framed = unframed payload" `Quick
            test_framed_equals_unframed_payload;
          Alcotest.test_case "ooo final placement" `Quick
            test_framed_ooo_final_placement;
          Alcotest.test_case "framed under chaos" `Quick
            test_framed_under_chaos;
          Alcotest.test_case "crc trailer + sack interplay" `Quick
            test_framed_crc_trailer_sack_interplay ] );
      ( "adversarial",
        [ Alcotest.test_case "fault-free impairments unchanged" `Quick
            test_fault_free_impairments_unchanged;
          Alcotest.test_case "typed error under chaos" `Quick
            test_transfer_reports_typed_error_under_chaos;
          Alcotest.test_case "soak smoke" `Slow test_soak_smoke;
          Alcotest.test_case "soak determinism" `Quick test_soak_deterministic;
          Alcotest.test_case "overload soak smoke" `Slow test_overload_soak_smoke;
          Alcotest.test_case "lying receiver punished" `Slow
            test_overload_lying_receiver;
          Alcotest.test_case "crash soak smoke" `Slow test_crash_soak_smoke ] );
      ( "stack",
        [ Alcotest.test_case "rpc connection plan" `Quick
            test_stack_rpc_comes_up;
          Alcotest.test_case "second connection transfers" `Quick
            test_stack_second_rpc_transfers;
          Alcotest.test_case "teardown audits the pool" `Quick
            test_stack_teardown_audits_pool ] ) ]
