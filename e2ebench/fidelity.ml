(* Wiring fidelity: before anything is timed, the benchmark's hand-wired
   worlds must reproduce the library's own drivers for the same
   configuration exactly.  A world that drifted from the stack's intended
   wiring would otherwise be measured as if it were the stack. *)

module W = Worlds
module Engine = Ilp_core.Engine
module Socket = Ilp_tcp.Socket
module File_transfer = Ilp_app.File_transfer
module Streambench = Ilp_bench.Streambench

let step_until (w : W.world) ~cond =
  let guard = ref 1_000_000 in
  while (not (cond ())) && w.W.meter.W.failures = [] && !guard > 0 do
    decr guard;
    w.W.step ()
  done

(* paper-sim with 8 copies against [File_transfer.run] for the fused
   engine on the SS10-30: identical per-packet send and receive
   processing, packet for packet. *)
let paper_sim ~seed =
  let ft =
    File_transfer.run
      { (File_transfer.default_setup ~machine:Ilp_memsim.Config.ss10_30 ~mode:Engine.Ilp)
        with seed }
  in
  let w = W.build_paper ~seed ~copies:8 ~op_limit:1 ~sim_window:1 () in
  let m = w.W.meter in
  step_until w ~cond:(fun () -> m.W.warm_completed >= 1);
  let send = m.W.send_us /. float_of_int m.W.send_n in
  let recv = m.W.recv_us /. float_of_int m.W.recv_n in
  let ft_send = File_transfer.mean ft.File_transfer.send_us in
  let ft_recv = File_transfer.mean ft.File_transfer.recv_us in
  let errors =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [ (not ft.File_transfer.ok, "File_transfer.run did not complete");
        (m.W.failures <> [] || m.W.warm_completed <> 1, "the benchmark's world did not complete");
        ( m.W.send_n <> Array.length ft.File_transfer.send_us
          || m.W.recv_n <> Array.length ft.File_transfer.recv_us,
          Printf.sprintf "packet counts differ: %d/%d sent/received, File_transfer %d/%d"
            m.W.send_n m.W.recv_n
            (Array.length ft.File_transfer.send_us)
            (Array.length ft.File_transfer.recv_us) );
        ( send <> ft_send || recv <> ft_recv,
          Printf.sprintf "send/recv packet processing %.4f/%.4f us, File_transfer %.4f/%.4f"
            send recv ft_send ft_recv ) ]
  in
  ( errors,
    Printf.sprintf "paper-sim wiring = File_transfer.run (8 copies): %.1f/%.1f us per send/recv packet"
      send recv )

(* bulk-stream moving 2 MiB against [Streambench.transfer]'s default
   cell: the same wire digest, segment count and simulated goodput. *)
let bulk_stream ~seed =
  let sb = Streambench.transfer { Streambench.default_config with seed } in
  let n = W.stream_file_len / W.tsdu_payload in
  let w = W.build_stream ~seed ~op_limit:n ~sim_window:n () in
  let m = w.W.meter in
  m.W.measuring <- true;
  m.W.phase_sim0 <- Ilp_netsim.Simclock.now w.W.clock;
  step_until w ~cond:(fun () -> m.W.completed >= n);
  let goodput =
    match m.W.win with
    | Some win -> float_of_int win.W.w_bytes *. 8.0 /. win.W.w_sim_us
    | None -> 0.0
  in
  let segments = (Socket.stats (List.assoc "sender" w.W.endpoints)).Socket.segments_sent in
  let errors =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [ (not sb.Streambench.ok, "Streambench.transfer did not complete");
        (m.W.failures <> [] || m.W.completed <> n, "the benchmark's world did not complete");
        ( !(w.W.digest) <> sb.Streambench.wire_digest,
          Printf.sprintf "wire digest %x, Streambench %x" !(w.W.digest) sb.Streambench.wire_digest );
        ( segments <> sb.Streambench.segments,
          Printf.sprintf "%d segments, Streambench %d" segments sb.Streambench.segments );
        ( goodput <> sb.Streambench.goodput_mbps,
          Printf.sprintf "simulated goodput %.4f Mbit/s, Streambench %.4f" goodput
            sb.Streambench.goodput_mbps ) ]
  in
  ( errors,
    Printf.sprintf
      "bulk-stream wiring = Streambench.transfer (2 MiB): digest %x, %d segments, %.2f Mbit/s"
      !(w.W.digest) segments goodput )

(* rpc-fanin has no library driver of its own to match. *)
let check workload ~seed =
  match workload with
  | W.Paper_sim -> paper_sim ~seed
  | W.Bulk_stream -> bulk_stream ~seed
  | W.Rpc_fanin -> ([], "rpc-fanin: no library driver to match")
