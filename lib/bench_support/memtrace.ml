open Ilp_memsim
module Engine = Ilp_core.Engine
module Workload = Ilp_app.Workload
module Mt = Ilp_fastpath.Memtraffic
module Pool = Ilp_fastpath.Pool
module Trace = Ilp_obs.Trace
module M = Ilp_obs.Metrics
module Recorder = Ilp_obs.Recorder

type lane = {
  copied_tx : float;
  copied_rx : float;
  allocated : float;
  alloc_blocks : float;
  minor_words : float;
  pool_balanced : bool;
}

type point = {
  len : int;
  wire_len : int;
  mode : Engine.mode;
  native : bool;
  msgs : int;
  lane : lane;
}

type result = {
  points : point list;
  disabled_trace_minor_words : float;
      (* minor-heap words per instrumentation call with tracing disabled *)
}

type config = { sizes : int list; native_msgs : int; sim_msgs : int }

let default_config = { sizes = [ 1024; 8192; 65536 ]; native_msgs = 64; sim_msgs = 4 }
let quick_config = { sizes = [ 1024; 65536 ]; native_msgs = 16; sim_msgs = 2 }

let key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"

(* One (payload size, mode, backend) cell: a fresh world, one engine, one
   staged message sent and received [msgs] times.  Returns the per-message
   averages of the Memtraffic ledger (host bytes the data path actually
   moved) and of the GC minor-heap counter (allocation pressure). *)
let measure_lane ~mode ~native ~payload_len ~msgs =
  let sim = Sim.create Config.ss10_30 in
  let cipher = Ilp_cipher.Safer_simplified.charged sim ~key () in
  let backend =
    if native then
      Engine.Native
        (Ilp_fastpath.Cipher.Safer_simplified
           (Ilp_cipher.Safer_simplified.expand_key key))
    else Engine.Simulated
  in
  let eng =
    Engine.create sim ~cipher ~mode ~backend ~max_message:(payload_len + 256) ()
  in
  let payload = Workload.generate ~len:payload_len ~seed:7 in
  let payload_addr = Workload.install sim payload in
  let prepared = Engine.prepare_send eng ~prefix:"" ~payload_addr ~payload_len in
  let wire_len = prepared.Engine.len in
  let dst = Alloc.alloc sim.Sim.alloc ~align:64 wire_len in
  let mem = sim.Sim.mem in
  let one () =
    ignore (prepared.Engine.fill mem ~dst);
    (match mode with
    | Engine.Ilp -> (
        match Engine.rx_integrated eng mem ~src:dst ~dst_off:0 ~len:wire_len with
        | Ok _ -> ()
        | Error e -> failwith ("Memtrace: rx_integrated: " ^ e))
    | Engine.Separate -> (
        match Engine.rx_separate eng mem ~src:dst ~dst_off:0 ~len:wire_len with
        | Ok () -> ()
        | Error e -> failwith ("Memtrace: rx_separate: " ^ e)));
    match Engine.read_plaintext_pooled eng ~len:wire_len with
    | Ok (buf, _) ->
        ignore (Sys.opaque_identity (Bytes.length buf));
        Engine.release_plaintext eng buf
    | Error e -> failwith ("Memtrace: read_plaintext_pooled: " ^ e)
  in
  (* Warm-up message: draws the staging buffer, populates the pool's size
     classes and forces lazy tables, so the measured window sees the
     steady state. *)
  one ();
  (* Both ledger snapshots fall outside the GC probe's window. *)
  let mt0 = Mt.snapshot () in
  let mw0 = Gc.minor_words () in
  for _ = 1 to msgs do
    one ()
  done;
  let minor_words = (Gc.minor_words () -. mw0) /. float_of_int msgs in
  let snap = Mt.diff (Mt.snapshot ()) mt0 in
  Engine.destroy eng;
  let pool_balanced = Pool.outstanding (Engine.pool eng) = 0 in
  let per total = float_of_int total /. float_of_int msgs in
  ( { copied_tx = per (Mt.copied_tx_total snap);
      copied_rx = per (Mt.copied_rx_total snap);
      allocated = per (Mt.allocated_total snap);
      alloc_blocks = per (Mt.alloc_blocks_total snap);
      minor_words;
      pool_balanced },
    wire_len )

(* The observability overhead probe: with tracing disabled, a burst of
   representative instrumentation calls (guarded clock read, span,
   instant, begin_packet, counter bump, histogram observe, and a flight
   recorder note — which is always on — must allocate nothing.
   [Gc.minor_words] itself boxes its float result, so the per-call
   figure is gated against a small epsilon rather than exact zero. *)
let measure_disabled_tracing () =
  if Trace.enabled () then Trace.disable ();
  let c = M.counter M.default "memtrace.disabled_probe" in
  let h = M.histogram M.default "memtrace.disabled_probe_hist" in
  let n = 10_000 in
  let one () =
    let t0 = if Trace.enabled () then Trace.now () else 0.0 in
    Trace.span Trace.Send_marshal ~packet:(Trace.current_packet ()) ~ts:t0
      ~dur:0.0;
    Trace.instant Trace.Tcp_retransmit ~packet:0 ~ts:0.0;
    ignore (Trace.begin_packet ());
    Recorder.note Recorder.State ~conn:0 ~arg:0 ~ts:t0;
    M.inc c 1;
    M.observe h 42
  in
  for _ = 1 to 64 do
    one ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    one ()
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  (* The probe filled the flight-recorder ring with synthetic notes;
     clear them so a later dump shows real connection events only. *)
  Recorder.clear ();
  per_call

let run ?(config = default_config) () =
  if config.sizes = [] then invalid_arg "Memtrace.run: no sizes";
  List.iter
    (fun n ->
      if n < 64 || n mod 8 <> 0 then
        invalid_arg
          (Printf.sprintf
             "Memtrace.run: size %d must be a multiple of 8, at least 64" n))
    config.sizes;
  if config.native_msgs < 1 || config.sim_msgs < 1 then
    invalid_arg "Memtrace.run: message counts must be positive";
  let points =
    List.concat_map
      (fun len ->
        List.concat_map
          (fun mode ->
            List.map
              (fun native ->
                let msgs =
                  if native then config.native_msgs else config.sim_msgs
                in
                let lane, wire_len =
                  measure_lane ~mode ~native ~payload_len:len ~msgs
                in
                { len; wire_len; mode; native; msgs; lane })
              [ false; true ])
          [ Engine.Separate; Engine.Ilp ])
      (List.sort compare config.sizes)
  in
  { points; disabled_trace_minor_words = measure_disabled_tracing () }

let mode_name = function Engine.Ilp -> "ilp" | Engine.Separate -> "separate"
let backend_name native = if native then "native" else "sim"

let lane_name p =
  Printf.sprintf "%d/%s/%s" p.len (mode_name p.mode) (backend_name p.native)

(* The acceptance gates, exact because the ledger is deterministic.  Every
   lane allocates nothing fresh on the host and balances its pool (an rx
   placement buffer acquired but never released shows up here).  Receive
   makes exactly one copy of the wire bytes: the native placement decrypt,
   or the simulated engine's delivery copy out of simulated memory.  A
   native send copies the wire bytes once fused and twice separate (the
   staging buffer); a simulated send copies nothing on the host.  And the
   GC minor words per message at the largest size do not exceed those at
   the smallest: no per-byte allocation anywhere on the path. *)
let check r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.disabled_trace_minor_words > 0.01 then
    fail
      "disabled tracing allocates %.4f minor words per instrumentation call \
       (must be allocation-free)"
      r.disabled_trace_minor_words;
  let exact p what got want =
    if got <> want then
      fail "%s: %s %.1f per message, want %.1f" (lane_name p) what got want
  in
  List.iter
    (fun p ->
      let l = p.lane and wire = float_of_int p.wire_len in
      if not l.pool_balanced then fail "%s: pool not balanced at exit" (lane_name p);
      exact p "allocated bytes" l.allocated 0.0;
      exact p "fresh allocations" l.alloc_blocks 0.0;
      exact p "rx bytes copied" l.copied_rx wire;
      exact p "tx bytes copied" l.copied_tx
        (match (p.native, p.mode) with
        | false, _ -> 0.0
        | true, Engine.Ilp -> wire
        | true, Engine.Separate -> 2.0 *. wire))
    r.points;
  let lens = List.map (fun p -> p.len) r.points in
  let smallest = List.fold_left min max_int lens
  and largest = List.fold_left max 0 lens in
  List.iter
    (fun big ->
      if big.len = largest then
        match
          List.find_opt
            (fun p -> p.len = smallest && p.mode = big.mode && p.native = big.native)
            r.points
        with
        | Some small when big.lane.minor_words > small.lane.minor_words ->
            fail "%s: %.0f minor words per message, more than %.0f at %d bytes"
              (lane_name big) big.lane.minor_words small.lane.minor_words
              smallest
        | _ -> ())
    r.points;
  match !failures with [] -> Ok () | fs -> Error (List.rev fs)

(* ------------------------------------------------------------------ *)
(* JSON trajectory (hand-rolled; the container has no JSON library).  *)

let to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "{\n  \"benchmark\": \"mem\",\n  \"unit\": \"per_msg\",\n  \"points\": [\n";
  List.iteri
    (fun i p ->
      let l = p.lane in
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"len\": %d, \"wire_len\": %d, \"mode\": \"%s\", \
            \"backend\": \"%s\", \"msgs\": %d, \"copied_tx_bytes\": %.1f, \
            \"copied_rx_bytes\": %.1f, \"allocated_bytes\": %.1f, \
            \"alloc_blocks\": %.2f, \"minor_words\": %.1f, \
            \"pool_balanced\": %b}"
           p.len p.wire_len (mode_name p.mode) (backend_name p.native) p.msgs
           l.copied_tx l.copied_rx l.allocated l.alloc_blocks l.minor_words
           l.pool_balanced))
    r.points;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"disabled_trace_minor_words_per_call\": %.4f,\n"
       r.disabled_trace_minor_words);
  Buffer.add_string b "  \"obs\": ";
  Buffer.add_string b (M.to_json (M.snapshot M.default));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let write_json r ~path =
  let oc = open_out path in
  output_string oc (to_json r);
  close_out oc

let print_table r =
  let f1 = Printf.sprintf "%.0f" in
  Report.table
    ~header:
      [ "bytes"; "wire B"; "mode"; "backend"; "tx copy B"; "rx copy B";
        "alloc B"; "minor words"; "pool" ]
    (List.map
       (fun p ->
         let l = p.lane in
         [ string_of_int p.len;
           string_of_int p.wire_len;
           mode_name p.mode;
           backend_name p.native;
           f1 l.copied_tx;
           f1 l.copied_rx;
           f1 l.allocated;
           f1 l.minor_words;
           (if l.pool_balanced then "balanced" else "LEAK") ])
       r.points);
  Report.note
    "host bytes copied and freshly allocated per message (Memtraffic \
     ledger, send and receive direction) and GC minor words per message\n"
