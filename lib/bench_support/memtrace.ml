open Ilp_memsim
module Engine = Ilp_core.Engine
module Workload = Ilp_app.Workload
module Mt = Ilp_fastpath.Memtraffic
module Pool = Ilp_fastpath.Pool
module Trace = Ilp_obs.Trace
module M = Ilp_obs.Metrics
module Recorder = Ilp_obs.Recorder

type lane = {
  copied : float;
  copied_tx : float;
  copied_rx : float;
  allocated : float;
  alloc_blocks : float;
  minor_words : float;
  major_bytes : float;
  pool_balanced : bool;
}

type point = {
  len : int;
  wire_len : int;
  mode : Engine.mode;
  native : bool;
  msgs : int;
  legacy : lane;
  pooled : lane;
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

(* Ratio of the legacy quantity to the pooled one; a pooled lane that
   allocates nothing at all reports a large finite factor rather than
   infinity so the JSON stays well-formed. *)
let ratio legacy pooled =
  if pooled > 0.0 then legacy /. pooled else if legacy > 0.0 then 1.0e9 else 1.0

(* One (payload size, mode, backend, data path) cell: a fresh world, one
   engine, one staged message sent and received [msgs] times.  Returns the
   per-message averages of the Memtraffic ledger (host bytes the data path
   actually moved) and of the GC counters (allocation pressure). *)
let measure_lane ~mode ~native ~data_path ~payload_len ~msgs =
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
    Engine.create sim ~cipher ~mode ~backend ~max_message:(payload_len + 256)
      ~data_path ()
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
    match data_path with
    | Engine.Legacy -> (
        match Engine.read_plaintext eng ~len:wire_len with
        | Ok s -> ignore (Sys.opaque_identity (String.length s))
        | Error e -> failwith ("Memtrace: read_plaintext: " ^ e))
    | Engine.Pooled -> (
        match Engine.read_plaintext_pooled eng ~len:wire_len with
        | Ok (buf, _) ->
            ignore (Sys.opaque_identity (Bytes.length buf));
            Engine.release_plaintext eng buf
        | Error e -> failwith ("Memtrace: read_plaintext_pooled: " ^ e))
  in
  (* Warm-up message: draws the staging buffer, populates the pool's size
     classes and forces lazy tables, so the measured window sees the
     steady state. *)
  one ();
  (* Both ledger snapshots fall outside the GC probes' window. *)
  let mt0 = Mt.snapshot () in
  let mw0 = Gc.minor_words () in
  let ab0 = Gc.allocated_bytes () in
  for _ = 1 to msgs do
    one ()
  done;
  let minor_words = (Gc.minor_words () -. mw0) /. float_of_int msgs in
  let major_bytes = (Gc.allocated_bytes () -. ab0) /. float_of_int msgs in
  let snap = Mt.diff (Mt.snapshot ()) mt0 in
  Engine.destroy eng;
  let pool_balanced = Pool.outstanding (Engine.pool eng) = 0 in
  let per total = float_of_int total /. float_of_int msgs in
  ( { copied = per (Mt.copied_total snap);
      copied_tx = per (Mt.copied_tx_total snap);
      copied_rx = per (Mt.copied_rx_total snap);
      allocated = per (Mt.allocated_total snap);
      alloc_blocks = per (Mt.alloc_blocks_total snap);
      minor_words;
      major_bytes;
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
                let legacy, wire_len =
                  measure_lane ~mode ~native ~data_path:Engine.Legacy
                    ~payload_len:len ~msgs
                in
                let pooled, _ =
                  measure_lane ~mode ~native ~data_path:Engine.Pooled
                    ~payload_len:len ~msgs
                in
                { len; wire_len; mode; native; msgs; legacy; pooled })
              [ false; true ])
          [ Engine.Separate; Engine.Ilp ])
      (List.sort compare config.sizes)
  in
  { points; disabled_trace_minor_words = measure_disabled_tracing () }

let mode_name = function Engine.Ilp -> "ilp" | Engine.Separate -> "separate"
let backend_name native = if native then "native" else "sim"

let copied_ratio p = ratio p.legacy.copied p.pooled.copied
let tx_copied_ratio p = ratio p.legacy.copied_tx p.pooled.copied_tx
let rx_copied_ratio p = ratio p.legacy.copied_rx p.pooled.copied_rx
let minor_words_ratio p = ratio p.legacy.minor_words p.pooled.minor_words

(* The acceptance gates: at the largest size, the pooled path moves at
   most half the host bytes of the legacy path — overall AND on the
   receive direction alone, where the contiguous zero-copy placement is
   the whole point (native lanes, where the ledger covers the whole data
   path) — and allocates at most half the minor-heap words (simulated
   lanes, whose per-block staging allocations are minor-heap traffic);
   and every lane's pool balances (an rx placement buffer that is
   acquired but never released — e.g. leaked across an abort — shows up
   here as an imbalance). *)
let check r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.disabled_trace_minor_words > 0.01 then
    fail
      "disabled tracing allocates %.4f minor words per instrumentation call \
       (must be allocation-free)"
      r.disabled_trace_minor_words;
  let largest = List.fold_left (fun a p -> max a p.len) 0 r.points in
  List.iter
    (fun p ->
      if not (p.legacy.pool_balanced && p.pooled.pool_balanced) then
        fail "%d/%s/%s: pool not balanced at exit" p.len (mode_name p.mode)
          (backend_name p.native);
      if p.len = largest then
        if p.native then begin
          if copied_ratio p < 2.0 then
            fail "%d/%s/native: bytes-copied ratio %.2f < 2.0 (legacy %.0f, pooled %.0f)"
              p.len (mode_name p.mode) (copied_ratio p) p.legacy.copied
              p.pooled.copied;
          if rx_copied_ratio p < 2.0 then
            fail
              "%d/%s/native: rx bytes-copied ratio %.2f < 2.0 (legacy %.0f, \
               pooled %.0f)"
              p.len (mode_name p.mode) (rx_copied_ratio p) p.legacy.copied_rx
              p.pooled.copied_rx
        end
        else if minor_words_ratio p < 2.0 then
          fail "%d/%s/sim: minor-words ratio %.2f < 2.0 (legacy %.0f, pooled %.0f)"
            p.len (mode_name p.mode) (minor_words_ratio p) p.legacy.minor_words
            p.pooled.minor_words)
    r.points;
  match !failures with [] -> Ok () | fs -> Error (List.rev fs)

(* ------------------------------------------------------------------ *)
(* JSON trajectory (hand-rolled; the container has no JSON library).  *)

let json_lane b name l =
  Buffer.add_string b
    (Printf.sprintf
       "\"%s\": {\"copied_bytes\": %.1f, \"copied_tx_bytes\": %.1f, \
        \"copied_rx_bytes\": %.1f, \"allocated_bytes\": %.1f, \
        \"alloc_blocks\": %.2f, \"minor_words\": %.1f, \"major_bytes\": %.1f, \
        \"pool_balanced\": %b}"
       name l.copied l.copied_tx l.copied_rx l.allocated l.alloc_blocks
       l.minor_words l.major_bytes l.pool_balanced)

let to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "{\n  \"benchmark\": \"mem\",\n  \"unit\": \"per_msg\",\n  \"points\": [\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"len\": %d, \"wire_len\": %d, \"mode\": \"%s\", \
            \"backend\": \"%s\", \"msgs\": %d, "
           p.len p.wire_len (mode_name p.mode) (backend_name p.native) p.msgs);
      json_lane b "legacy" p.legacy;
      Buffer.add_string b ", ";
      json_lane b "pooled" p.pooled;
      Buffer.add_string b
        (Printf.sprintf
           ", \"copied_ratio\": %.2f, \"tx_copied_ratio\": %.2f, \
            \"rx_copied_ratio\": %.2f, \"minor_words_ratio\": %.2f}"
           (copied_ratio p) (tx_copied_ratio p) (rx_copied_ratio p)
           (minor_words_ratio p)))
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
      [ "bytes"; "mode"; "backend"; "copy B legacy"; "copy B pooled"; "ratio";
        "rx B legacy"; "rx B pooled"; "rx ratio"; "mw legacy"; "mw pooled";
        "ratio" ]
    (List.map
       (fun p ->
         [ string_of_int p.len;
           mode_name p.mode;
           backend_name p.native;
           f1 p.legacy.copied;
           f1 p.pooled.copied;
           Printf.sprintf "%.1fx" (copied_ratio p);
           f1 p.legacy.copied_rx;
           f1 p.pooled.copied_rx;
           Printf.sprintf "%.1fx" (rx_copied_ratio p);
           f1 p.legacy.minor_words;
           f1 p.pooled.minor_words;
           Printf.sprintf "%.1fx" (minor_words_ratio p) ])
       r.points);
  Report.note
    "host bytes copied per message (Memtraffic ledger; total and receive \
     direction) and GC minor words per message; legacy = pre-pool data path, \
     pooled = single-copy\n"
