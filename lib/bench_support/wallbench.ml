module Internet = Ilp_checksum.Internet
module Cipher = Ilp_fastpath.Cipher
module Wire = Ilp_fastpath.Wire
module Trace = Ilp_obs.Trace
module M = Ilp_obs.Metrics

type side = {
  send_ns : float;
  recv_ns : float;
  minor_words : float;
  minor_words_rx : float;
}

type point = {
  len : int;
  reps : int;
  separate : side;
  ilp : side;
  speedup : float;
}

type result = {
  cipher : string;
  trials : int;
  warmup : int;
  points : point list;
}

let key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"

let cipher_names = [ "simple"; "safer-simplified"; "safer-k64"; "des" ]

let cipher_of_name = function
  | "simple" -> Ok Cipher.Simple
  | "safer-simplified" | "simplified" ->
      Ok (Cipher.Safer_simplified (Ilp_cipher.Safer_simplified.expand_key key))
  | "safer" | "safer-k64" ->
      Ok (Cipher.Safer (Ilp_cipher.Safer.expand_key ~rounds:6 key))
  | "des" -> Ok (Cipher.Des (Ilp_cipher.Des.expand_key key))
  | other ->
      Error
        (Printf.sprintf "unknown cipher %S (try: %s)" other
           (String.concat ", " cipher_names))

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Median ns per message of the separate and the ILP form of one
   operation over [trials] samples, [warmup] discarded.  Each trial times
   both sides back to back, alternating which goes first, so host-speed
   drift during the run lands on both sides rather than in their ratio. *)
let time_pair ~trials ~warmup ~reps sep ilp =
  let sample f =
    let t0 = now_ns () in
    for _ = 1 to reps do
      f ()
    done;
    (now_ns () -. t0) /. float_of_int reps
  in
  let trial i =
    if i land 1 = 0 then
      let s = sample sep in
      (s, sample ilp)
    else
      let l = sample ilp in
      (sample sep, l)
  in
  for i = 0 to warmup - 1 do
    ignore (trial i)
  done;
  let samples = Array.init trials (fun i -> trial (warmup + i)) in
  let median side =
    let a = Array.map side samples in
    Array.sort compare a;
    Report.percentile_sorted a 0.5
  in
  (median fst, median snd)

(* Repetitions so one trial runs for at least [budget_ns]: double a probe
   count until the probe takes >= 1/4 of the budget, then scale. *)
let calibrate ~budget_ns f =
  let rec probe k =
    let t0 = now_ns () in
    for _ = 1 to k do
      f ()
    done;
    let dt = now_ns () -. t0 in
    if dt >= budget_ns /. 4.0 || k >= 1 lsl 20 then
      max 1 (int_of_float (float_of_int k *. budget_ns /. dt))
    else probe (k * 2)
  in
  probe 1

(* The two paths must agree before we time them; a benchmark of kernels
   producing different bytes would compare nothing. *)
let cross_check wire ~src ~len =
  let d1 = Bytes.create len and d2 = Bytes.create len in
  let a1 = Wire.send_separate wire ~src ~src_off:0 ~len ~dst:d1 ~dst_off:0 in
  let a2 = Wire.send_ilp wire ~src ~src_off:0 ~len ~dst:d2 ~dst_off:0 in
  if not (Bytes.equal d1 d2) then
    failwith "Wallbench: separate and ILP send disagree on wire bytes";
  if Internet.finish a1 <> Internet.finish a2 then
    failwith "Wallbench: separate and ILP send disagree on checksum";
  let p1 = Bytes.create len and p2 = Bytes.create len in
  let c1 = Bytes.copy d1 in
  let r1 = Wire.recv_separate wire ~src:c1 ~src_off:0 ~len ~dst:p1 ~dst_off:0 in
  let r2 = Wire.recv_ilp wire ~src:d2 ~src_off:0 ~len ~dst:p2 ~dst_off:0 in
  if not (Bytes.equal p1 p2 && Bytes.equal p1 (Bytes.sub src 0 len)) then
    failwith "Wallbench: receive paths do not invert the send path";
  if Internet.finish r1 <> Internet.finish r2 then
    failwith "Wallbench: separate and ILP receive disagree on checksum";
  d1

let bench_point wire ~trials ~warmup ~src len =
  let ciphertext = cross_check wire ~src ~len in
  let dst = Bytes.create len in
  let staged = Bytes.create len in
  let sink = ref Internet.empty in
  let send_sep () =
    sink := Wire.send_separate wire ~src ~src_off:0 ~len ~dst ~dst_off:0
  in
  let send_ilp () =
    sink := Wire.send_ilp wire ~src ~src_off:0 ~len ~dst ~dst_off:0
  in
  (* [recv_separate] decrypts its source in place, so each repetition
     restores the pristine ciphertext first; the ILP side pays the same
     blit to keep the comparison about the traversal structure. *)
  let recv_sep () =
    Bytes.blit ciphertext 0 staged 0 len;
    sink := Wire.recv_separate wire ~src:staged ~src_off:0 ~len ~dst ~dst_off:0
  in
  let recv_ilp () =
    Bytes.blit ciphertext 0 staged 0 len;
    sink := Wire.recv_ilp wire ~src:staged ~src_off:0 ~len ~dst ~dst_off:0
  in
  let budget_ns = 2e6 in
  let reps = calibrate ~budget_ns send_sep in
  (* Allocation rate: minor-heap words per message (send + recv), via
     [Gc.minor_words] deltas — the GC-pressure side of the single-copy
     story, alongside the latency medians. *)
  let mw f =
    let n = 64 in
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let side ~send_ns ~recv_ns send recv =
    let tx = mw send and rx = mw recv in
    { send_ns; recv_ns; minor_words = tx +. rx; minor_words_rx = rx }
  in
  let sep_send, ilp_send = time_pair ~trials ~warmup ~reps send_sep send_ilp in
  let sep_recv, ilp_recv = time_pair ~trials ~warmup ~reps recv_sep recv_ilp in
  let separate = side ~send_ns:sep_send ~recv_ns:sep_recv send_sep recv_sep in
  let ilp = side ~send_ns:ilp_send ~recv_ns:ilp_recv send_ilp recv_ilp in
  ignore (Sys.opaque_identity !sink);
  let speedup =
    (separate.send_ns +. separate.recv_ns) /. (ilp.send_ns +. ilp.recv_ns)
  in
  { len; reps; separate; ilp; speedup }

let default_sizes = [ 1024; 8192; 65536; 524288 ]

let run ?(cipher = Cipher.Simple) ?(sizes = default_sizes) ?(trials = 9)
    ?(warmup = 3) () =
  if sizes = [] then invalid_arg "Wallbench.run: no sizes";
  List.iter
    (fun n ->
      if n <= 0 || n mod 8 <> 0 then
        invalid_arg
          (Printf.sprintf "Wallbench.run: size %d is not a positive multiple of 8" n))
    sizes;
  if trials < 1 || warmup < 0 then invalid_arg "Wallbench.run: bad trials/warmup";
  let max_len = List.fold_left max 0 sizes in
  let wire = Wire.create ~cipher ~max_len () in
  let src = Bytes.init max_len (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
  let points =
    List.map (bench_point wire ~trials ~warmup ~src) (List.sort compare sizes)
  in
  { cipher = Cipher.name cipher; trials; warmup; points }

(* ------------------------------------------------------------------ *)
(* JSON trajectory (hand-rolled; the container has no JSON library).  *)

let json_side b name s =
  Buffer.add_string b
    (Printf.sprintf
       "\"%s\": {\"send_ns\": %.1f, \"recv_ns\": %.1f, \"total_ns\": %.1f, \
        \"minor_words_per_msg\": %.1f, \"minor_words_rx_per_msg\": %.1f}"
       name s.send_ns s.recv_ns (s.send_ns +. s.recv_ns) s.minor_words
       s.minor_words_rx)

(* ------------------------------------------------------------------ *)
(* Per-stage time share (the --trace table): run the same kernels with
   the span tracer on and aggregate span durations by stage.  Separate
   spans are real wall-clock intervals; ILP spans carry the fused loop's
   whole duration on encrypt/decrypt with the fused-away stages at zero,
   so the table shows exactly where the traversal time went and what
   fusion collapsed. *)

type stage_cell = { stage_label : string; sep_ns : float; ilp_ns : float }

type stage_point = {
  s_len : int;
  s_reps : int;
  cells : stage_cell list;
  sep_total_ns : float;
  ilp_total_ns : float;
}

let stage_order =
  Trace.
    [ Send_marshal; Send_encrypt; Send_ring_copy; Send_checksum; Recv_checksum;
      Recv_decrypt; Recv_unmarshal ]

let collect_stage_ns ~reps =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span_rec) ->
      if not s.Trace.is_instant then
        let cur = try Hashtbl.find acc s.Trace.stage with Not_found -> 0.0 in
        Hashtbl.replace acc s.Trace.stage (cur +. s.Trace.dur))
    (Trace.spans ());
  fun stage ->
    (try Hashtbl.find acc stage with Not_found -> 0.0)
    *. 1000.0 /. float_of_int reps

let stages ?(cipher = Cipher.Simple) ?(sizes = [ 4096; 65536 ]) ?(reps = 256) ()
    =
  if sizes = [] then invalid_arg "Wallbench.stages: no sizes";
  List.iter
    (fun n ->
      if n <= 0 || n mod 8 <> 0 then
        invalid_arg
          (Printf.sprintf
             "Wallbench.stages: size %d is not a positive multiple of 8" n))
    sizes;
  if reps < 1 then invalid_arg "Wallbench.stages: bad reps";
  let max_len = List.fold_left max 0 sizes in
  let wire = Wire.create ~cipher ~max_len () in
  let src = Bytes.init max_len (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
  let was_enabled = Trace.enabled () in
  Trace.set_clock (fun () -> now_ns () /. 1000.0);
  let points =
    List.map
      (fun len ->
        let ciphertext = cross_check wire ~src ~len in
        let dst = Bytes.create len in
        let staged = Bytes.create len in
        let sink = ref Internet.empty in
        let one ~ilp () =
          if ilp then
            sink := Wire.send_ilp wire ~src ~src_off:0 ~len ~dst ~dst_off:0
          else
            sink := Wire.send_separate wire ~src ~src_off:0 ~len ~dst ~dst_off:0;
          Bytes.blit ciphertext 0 staged 0 len;
          if ilp then
            sink := Wire.recv_ilp wire ~src:staged ~src_off:0 ~len ~dst ~dst_off:0
          else
            sink :=
              Wire.recv_separate wire ~src:staged ~src_off:0 ~len ~dst ~dst_off:0
        in
        let run_mode ~ilp =
          let f = one ~ilp in
          for _ = 1 to max 8 (reps / 8) do
            f () (* warm *)
          done;
          Trace.enable ~capacity:(max 1024 ((reps * 8) + 64)) ();
          for _ = 1 to reps do
            ignore (Trace.begin_packet ());
            f ()
          done;
          let get = collect_stage_ns ~reps in
          Trace.disable ();
          get
        in
        let sep = run_mode ~ilp:false in
        let ilp = run_mode ~ilp:true in
        ignore (Sys.opaque_identity !sink);
        let cells =
          List.map
            (fun st ->
              { stage_label = Trace.stage_cat st ^ "/" ^ Trace.stage_name st;
                sep_ns = sep st;
                ilp_ns = ilp st })
            stage_order
        in
        let total f = List.fold_left (fun a c -> a +. f c) 0.0 cells in
        { s_len = len;
          s_reps = reps;
          cells;
          sep_total_ns = total (fun c -> c.sep_ns);
          ilp_total_ns = total (fun c -> c.ilp_ns) })
      (List.sort compare sizes)
  in
  if not was_enabled then Trace.disable ();
  points

let print_stage_tables points =
  List.iter
    (fun p ->
      Report.note "%d-byte messages, per-stage wall time (mean over %d msgs)
"
        p.s_len p.s_reps;
      let pct total ns = if total <= 0.0 then 0.0 else 100.0 *. ns /. total in
      Report.table
        ~header:[ "stage"; "sep ns/msg"; "sep %"; "ilp ns/msg"; "ilp %" ]
        (List.map
           (fun c ->
             [ c.stage_label;
               Printf.sprintf "%.0f" c.sep_ns;
               Printf.sprintf "%.1f" (pct p.sep_total_ns c.sep_ns);
               Printf.sprintf "%.0f" c.ilp_ns;
               Printf.sprintf "%.1f" (pct p.ilp_total_ns c.ilp_ns) ])
           p.cells
        @ [ [ "total";
              Printf.sprintf "%.0f" p.sep_total_ns;
              "100.0";
              Printf.sprintf "%.0f" p.ilp_total_ns;
              "100.0" ] ]);
      Report.note
        "ilp fused stages (0 ns) ran inside the fused pass; their time is \
         attributed to send/encrypt and recv/decrypt\n\n")
    points

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"benchmark\": \"wall\",\n  \"unit\": \"ns_per_msg\",\n\
       \  \"cipher\": \"%s\",\n  \"trials\": %d,\n  \"warmup\": %d,\n\
       \  \"points\": [\n"
       r.cipher r.trials r.warmup);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "    {\"len\": %d, \"reps\": %d, " p.len p.reps);
      json_side b "separate" p.separate;
      Buffer.add_string b ", ";
      json_side b "ilp" p.ilp;
      Buffer.add_string b (Printf.sprintf ", \"speedup\": %.3f}" p.speedup))
    r.points;
  Buffer.add_string b "\n  ],\n  \"obs\": ";
  Buffer.add_string b (M.to_json (M.snapshot M.default));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let write_json r ~path =
  let oc = open_out path in
  output_string oc (to_json r);
  close_out oc

let print_table r =
  let ns = Printf.sprintf "%.0f" in
  Report.table
    ~header:
      [ "bytes"; "sep send ns"; "ilp send ns"; "sep recv ns"; "ilp recv ns";
        "speedup"; "sep mw/msg"; "ilp mw/msg"; "sep rx mw"; "ilp rx mw" ]
    (List.map
       (fun p ->
         [ string_of_int p.len;
           ns p.separate.send_ns;
           ns p.ilp.send_ns;
           ns p.separate.recv_ns;
           ns p.ilp.recv_ns;
           Printf.sprintf "%.2fx" p.speedup;
           ns p.separate.minor_words;
           ns p.ilp.minor_words;
           ns p.separate.minor_words_rx;
           ns p.ilp.minor_words_rx ])
       r.points);
  Report.note "cipher %s, median of %d trials (%d warmup), host wall-clock\n"
    r.cipher r.trials r.warmup
