(* The reproduction harness's own plumbing: paper data, the overhead
   model, reporting, and the micro-benchmark. *)

open Ilp_memsim
module B = Ilp_bench

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_table1_complete () =
  check "35 rows" 35 (List.length B.Paper_data.table1);
  List.iter
    (fun (m : Config.t) ->
      List.iter
        (fun size ->
          match B.Paper_data.table1_row ~platform:m.Config.name ~size with
          | Some row ->
              checkb "throughputs positive" true
                (row.B.Paper_data.tput_ilp > 0.0 && row.B.Paper_data.tput_non > 0.0);
              (* At 1 kB and above ILP always wins in the paper. *)
              if size >= 768 then
                checkb "ILP wins at large sizes" true
                  (row.B.Paper_data.tput_ilp >= row.B.Paper_data.tput_non)
          | None -> Alcotest.failf "missing %s/%d" m.Config.name size)
        [ 256; 512; 768; 1024; 1280 ])
    Config.all

let test_table1_spot_values () =
  (* Two anchor cells quoted in the running text. *)
  match B.Paper_data.table1_row ~platform:"SS10-30" ~size:1024 with
  | None -> Alcotest.fail "missing anchor row"
  | Some r ->
      check "send non-ILP" 369 r.B.Paper_data.send_non;
      check "send ILP" 311 r.B.Paper_data.send_ilp;
      check "recv non-ILP" 356 r.B.Paper_data.recv_non;
      check "recv ILP" 300 r.B.Paper_data.recv_ilp

let test_overhead_fit () =
  List.iter
    (fun (m : Config.t) ->
      let o = B.Platforms.overhead m in
      checkb (m.Config.name ^ " base positive") true (o.B.Platforms.base_us > 0.0);
      (* Reconstructing the paper's own rows with the paper's own
         processing times must land near the paper's throughput. *)
      List.iter
        (fun size ->
          match B.Paper_data.table1_row ~platform:m.Config.name ~size with
          | None -> ()
          | Some row ->
              let proc = float_of_int (row.B.Paper_data.send_ilp + row.B.Paper_data.recv_ilp) in
              let t = B.Platforms.throughput_mbps m ~size ~proc_us:proc in
              let err = Float.abs (t -. row.B.Paper_data.tput_ilp) /. row.B.Paper_data.tput_ilp in
              if err > 0.25 then
                Alcotest.failf "%s/%d: fit error %.0f%%" m.Config.name size (err *. 100.0))
        [ 512; 768; 1024 ])
    Config.all

let test_kernel_profile_faster () =
  let m = Config.ss10_30 in
  let user = B.Platforms.throughput_mbps m ~size:1024 ~proc_us:500.0 in
  let kernel = B.Platforms.kernel_throughput_mbps m ~size:1024 ~proc_us:500.0 in
  checkb "kernel profile is faster" true (kernel > user)

let test_report_helpers () =
  checkb "gain" true (B.Report.pct_gain ~base:100.0 ~better:80.0 = 20.0);
  checkb "vs formats" true (String.length (B.Report.vs ~paper:10.0 ~ours:12.0) > 0)

let test_percentile_sorted () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkb "p0 is the minimum" true (B.Report.percentile_sorted sorted 0.0 = 1.0);
  checkb "median matches the old upper-median" true
    (B.Report.percentile_sorted sorted 0.5 = 3.0);
  checkb "p100 is the maximum" true (B.Report.percentile_sorted sorted 1.0 = 4.0);
  (match B.Report.percentile_sorted [||] 0.5 with
  | _ -> Alcotest.fail "expected Invalid_argument on empty"
  | exception Invalid_argument _ -> ());
  match B.Report.percentile_sorted sorted 1.5 with
  | _ -> Alcotest.fail "expected Invalid_argument on q > 1"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Perf-regression gating *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file dir name contents =
  let oc = open_out (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

let stream_json ~gate ~goodput =
  Printf.sprintf
    {|{ "gate_ratio": %f,
  "points": [
    { "mode": "pipelined", "rtt_us": 2000, "loss": 0.0, "goodput_mbps": %f }
  ] }|}
    gate goodput

let test_regress_identical_passes () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  let j = stream_json ~gate:40.0 ~goodput:100.0 in
  write_file base "BENCH_stream.json" j;
  write_file cur "BENCH_stream.json" j;
  match B.Regress.run ~baseline_dir:base ~current_dir:cur () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "identical dirs pass" true (B.Regress.passed r);
      check "two stream indicators" 2 (List.length r.B.Regress.verdicts);
      check "wall and mem skipped (no baseline)" 2
        (List.length r.B.Regress.files_skipped);
      checkb "report lines render" true
        (List.length (B.Regress.report_lines r) >= 3)

let test_regress_detects_regression () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  write_file base "BENCH_stream.json" (stream_json ~gate:40.0 ~goodput:100.0);
  (* goodput down 50% blows the 10% band; gate_ratio UP is fine. *)
  write_file cur "BENCH_stream.json" (stream_json ~gate:44.0 ~goodput:50.0);
  match B.Regress.run ~baseline_dir:base ~current_dir:cur () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "regression fails the run" false (B.Regress.passed r);
      check "exactly one regressed indicator" 1
        (List.length (B.Regress.regressions r));
      (match B.Regress.regressions r with
      | [ v ] ->
          checkb "the goodput point regressed" true
            (v.B.Regress.v_key = "stream.goodput[pipelined,rtt=2000,loss=0.000]")
      | _ -> Alcotest.fail "expected one regression")

let test_regress_within_band_passes () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  write_file base "BENCH_stream.json" (stream_json ~gate:40.0 ~goodput:100.0);
  write_file cur "BENCH_stream.json" (stream_json ~gate:38.0 ~goodput:95.0);
  match B.Regress.run ~baseline_dir:base ~current_dir:cur () with
  | Error e -> Alcotest.fail e
  | Ok r -> checkb "5% dip within the 10% band" true (B.Regress.passed r)

let test_regress_missing_current () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  write_file base "BENCH_stream.json" (stream_json ~gate:40.0 ~goodput:100.0);
  (match B.Regress.run ~baseline_dir:base ~current_dir:cur () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing current file must be a hard error");
  (* A baseline indicator silently dropped from the current run is a
     regression, not a pass. *)
  write_file cur "BENCH_stream.json" {|{ "gate_ratio": 40.0, "points": [] }|};
  match B.Regress.run ~baseline_dir:base ~current_dir:cur () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "dropped indicator fails the run" false (B.Regress.passed r);
      check "it is reported as missing" 1
        (List.length r.B.Regress.missing_current)

let test_regress_json_parser () =
  (match B.Regress.parse_string {| { "a": [1, 2.5, true, null, "s
"] } |} with
  | Ok j -> (
      match B.Regress.member "a" j with
      | Some (B.Regress.Arr l) -> check "array arity survives" 5 (List.length l)
      | _ -> Alcotest.fail "member lookup failed")
  | Error e -> Alcotest.fail e);
  match B.Regress.parse_string {| { "a": } |} with
  | Ok _ -> Alcotest.fail "malformed JSON must not parse"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Memory-traffic gates *)

module Mtr = B.Memtrace

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_memtrace_tiny_run_passes () =
  let r =
    Mtr.run ~config:{ Mtr.sizes = [ 64; 1024 ]; native_msgs = 2; sim_msgs = 1 } ()
  in
  check "sizes x modes x backends" 8 (List.length r.Mtr.points);
  (match Mtr.check r with
  | Ok () -> ()
  | Error fs -> Alcotest.failf "gates failed: %s" (String.concat "; " fs));
  let json = Mtr.to_json r in
  List.iter
    (fun key -> checkb ("json has no " ^ key) false (contains json key))
    [ "legacy"; "ratio"; "major_bytes" ]

(* A hand-built result on which every gate holds: wire 1032 B at 1 KiB and
   8 B at 64 B, exact copies, no allocation, flat minor words. *)
let ok_lane ~native ~mode ~wire =
  { Mtr.copied_tx =
      (match (native, mode) with
      | false, _ -> 0.0
      | true, Ilp_core.Engine.Ilp -> wire
      | true, Ilp_core.Engine.Separate -> 2.0 *. wire);
    copied_rx = wire;
    allocated = 0.0;
    alloc_blocks = 0.0;
    minor_words = 100.0;
    pool_balanced = true }

let hand_built ?(tweak = fun _ l -> l) () =
  let points =
    List.concat_map
      (fun (len, wire_len) ->
        List.concat_map
          (fun mode ->
            List.map
              (fun native ->
                let p =
                  { Mtr.len; wire_len; mode; native; msgs = 1;
                    lane = ok_lane ~native ~mode ~wire:(float_of_int wire_len) }
                in
                { p with Mtr.lane = tweak p p.Mtr.lane })
              [ false; true ])
          [ Ilp_core.Engine.Separate; Ilp_core.Engine.Ilp ])
      [ (64, 72); (1024, 1032) ]
  in
  { Mtr.points; disabled_trace_minor_words = 0.0 }

let test_memtrace_gates_bite () =
  (match Mtr.check (hand_built ()) with
  | Ok () -> ()
  | Error fs -> Alcotest.failf "baseline must pass: %s" (String.concat "; " fs));
  let breaks name ~lane tweak =
    let target (p : Mtr.point) =
      Printf.sprintf "%d/%s/%s" p.Mtr.len
        (match p.Mtr.mode with Ilp_core.Engine.Ilp -> "ilp" | _ -> "separate")
        (if p.Mtr.native then "native" else "sim")
      = lane
    in
    match
      Mtr.check (hand_built ~tweak:(fun p l -> if target p then tweak p l else l) ())
    with
    | Ok () -> Alcotest.failf "%s: gate did not fire" name
    | Error fs ->
        check (name ^ ": one violation") 1 (List.length fs);
        checkb (name ^ ": names the lane " ^ lane) true
          (contains (List.hd fs) (lane ^ ":"))
  in
  breaks "second receive copy" ~lane:"1024/ilp/native" (fun p l ->
      { l with Mtr.copied_rx = 2.0 *. float_of_int p.Mtr.wire_len });
  breaks "staging copy missing" ~lane:"64/separate/native" (fun p l ->
      { l with Mtr.copied_tx = float_of_int p.Mtr.wire_len });
  breaks "fresh allocation" ~lane:"64/separate/sim" (fun _ l ->
      { l with Mtr.allocated = 64.0 });
  breaks "fresh allocation block" ~lane:"64/ilp/native" (fun _ l ->
      { l with Mtr.alloc_blocks = 1.0 });
  breaks "unbalanced pool" ~lane:"1024/separate/native" (fun _ l ->
      { l with Mtr.pool_balanced = false });
  breaks "minor words grow with size" ~lane:"1024/ilp/sim" (fun _ l ->
      { l with Mtr.minor_words = 101.0 })

let test_microbench_simulated () =
  let o = B.Microbench.simulated () in
  checkb "sequential positive" true (o.B.Microbench.sequential_mbps > 0.0);
  checkb "fusion wins" true
    (o.B.Microbench.fused_mbps > o.B.Microbench.sequential_mbps);
  (* The paper's micro-loop gain is ~40%; ours must at least be a
     double-digit percentage. *)
  checkb "double-digit gain" true
    (o.B.Microbench.fused_mbps /. o.B.Microbench.sequential_mbps > 1.10)

let test_cipher_wall_clock_ordering () =
  let results = B.Microbench.ciphers_wall_clock ~quota_s:0.05 () in
  let get name = List.assoc name results in
  checkb "simple fastest" true (get "simple" > get "safer-simplified");
  checkb "1 round beats 6 rounds" true
    (get "safer-k64-1round" > get "safer-k64-6rounds");
  checkb "DES slowest" true (get "des" < get "safer-simplified")

let test_t1_csv_shape () =
  let csv = B.Experiments.t1_csv () in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check "header + 35 rows" 36 (List.length lines);
  match lines with
  | header :: _ ->
      check "14 columns" 14
        (List.length (String.split_on_char ',' header))
  | [] -> Alcotest.fail "empty csv"

let test_wallbench_points () =
  (* Tiny configuration: the structure and the JSON schema, not timing. *)
  let r = B.Wallbench.run ~sizes:[ 64; 8 ] ~trials:1 ~warmup:0 () in
  check "one point per size" 2 (List.length r.B.Wallbench.points);
  (match r.B.Wallbench.points with
  | p1 :: p2 :: _ ->
      check "sorted by size" 8 p1.B.Wallbench.len;
      check "sorted by size" 64 p2.B.Wallbench.len;
      List.iter
        (fun p ->
          checkb "times positive" true
            (p.B.Wallbench.separate.B.Wallbench.send_ns > 0.0
            && p.B.Wallbench.ilp.B.Wallbench.recv_ns > 0.0);
          checkb "speedup finite" true (Float.is_finite p.B.Wallbench.speedup))
        [ p1; p2 ]
  | _ -> Alcotest.fail "missing points");
  let json = B.Wallbench.to_json r in
  List.iter
    (fun needle -> checkb ("json has " ^ needle) true (contains json needle))
    [ "\"benchmark\": \"wall\""; "\"cipher\": \"simple\""; "\"points\"";
      "\"speedup\""; "\"send_ns\"" ]

let test_wallbench_validation () =
  Alcotest.check_raises "odd size rejected"
    (Invalid_argument "Wallbench.run: size 12 is not a positive multiple of 8")
    (fun () -> ignore (B.Wallbench.run ~sizes:[ 12 ] ()));
  (match B.Wallbench.cipher_of_name "no-such-cipher" with
  | Ok _ -> Alcotest.fail "accepted bogus cipher"
  | Error _ -> ());
  List.iter
    (fun name ->
      match B.Wallbench.cipher_of_name name with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    B.Wallbench.cipher_names

let test_experiment_names () =
  checkb "has all" true (List.mem "all" B.Experiments.names);
  match B.Experiments.run_named "no-such-thing" with
  | Ok () -> Alcotest.fail "accepted bogus name"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Stream gates *)

let test_stream_check_flags_pool_leak () =
  (* A clean hand-built grid but for one stop-and-wait cell that left a
     pooled buffer outstanding: exactly that cell fails. *)
  let module Sb = B.Streambench in
  let cfg = Sb.default_config in
  let point p_mode peak_in_flight pool_leaks =
    { Sb.p_mode; p_sack = true; p_rtt_us = 10_000.0; p_loss = 0.0;
      p_out =
        { Sb.ok = true; error = None; payload_bytes = cfg.Sb.total_bytes; tsdus = 64;
          elapsed_us = 1e6; goodput_mbps = 10.0; segments = 1474; retransmissions = 0;
          fast_retransmits = 0; rto_fallbacks = 0; peak_in_flight; ring_wraps = 16;
          final_cwnd = 100_832; wire_digest = 1; pool_leaks } }
  in
  let points = [ point Sb.Pipelined 64_632 0; point Sb.Stop_and_wait cfg.Sb.mss 1 ] in
  match Sb.check { Sb.cfg; points; gate_ratio = 40.0; sack_ratio = 0.0 } with
  | Error [ e ] ->
      let cell = "stop-and-wait+sack rtt=10ms loss=0%: " in
      checkb ("names the leaking cell: " ^ e) true
        (String.length e > String.length cell && String.sub e 0 (String.length cell) = cell)
  | Ok () -> Alcotest.fail "a leaking cell passed the stream gates"
  | Error es -> Alcotest.failf "expected one failure, got %d" (List.length es)

let () =
  Alcotest.run "bench"
    [ ( "paper data",
        [ Alcotest.test_case "table 1 complete" `Quick test_table1_complete;
          Alcotest.test_case "anchor values" `Quick test_table1_spot_values ] );
      ( "platform model",
        [ Alcotest.test_case "overhead fit" `Quick test_overhead_fit;
          Alcotest.test_case "kernel profile" `Quick test_kernel_profile_faster ] );
      ( "report",
        [ Alcotest.test_case "helpers" `Quick test_report_helpers;
          Alcotest.test_case "percentile_sorted" `Quick test_percentile_sorted ] );
      ( "regress",
        [ Alcotest.test_case "identical dirs pass" `Quick
            test_regress_identical_passes;
          Alcotest.test_case "detects a regression" `Quick
            test_regress_detects_regression;
          Alcotest.test_case "within-band drift passes" `Quick
            test_regress_within_band_passes;
          Alcotest.test_case "missing current data" `Quick
            test_regress_missing_current;
          Alcotest.test_case "json parser" `Quick test_regress_json_parser ] );
      ( "memtrace",
        [ Alcotest.test_case "tiny run passes the gates" `Quick
            test_memtrace_tiny_run_passes;
          Alcotest.test_case "each gate bites" `Quick test_memtrace_gates_bite ] );
      ( "microbench",
        [ Alcotest.test_case "simulated" `Quick test_microbench_simulated ] );
      ( "experiments",
        [ Alcotest.test_case "cipher wall-clock ordering" `Quick
            test_cipher_wall_clock_ordering;
          Alcotest.test_case "t1 csv shape" `Slow test_t1_csv_shape;
          Alcotest.test_case "names" `Quick test_experiment_names ] );
      ( "wallbench",
        [ Alcotest.test_case "points and json" `Quick test_wallbench_points;
          Alcotest.test_case "validation" `Quick test_wallbench_validation ] );
      ( "streambench",
        [ Alcotest.test_case "pool leak fails its cell" `Quick
            test_stream_check_flags_pool_leak ] ) ]
