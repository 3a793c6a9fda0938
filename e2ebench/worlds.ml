(* The benchmark's three worlds, wired by hand from the stack's public
   functions the way [File_transfer.run] and [Streambench.transfer] wire
   theirs, so that every call across a layer boundary passes through this
   file and can be timed from outside.

   Each world runs a closed loop: a caller hands the stack its next op
   only when the previous one has been verified.  Ops complete inside
   stack callbacks, so the next op starts at the exact virtual instant
   the previous one finished, independent of how the host clock runs.
   The simulation is therefore a function of the seed alone; the host
   clock only decides when the runner stops stepping it. *)

module Sim = Ilp_memsim.Sim
module Machine = Ilp_memsim.Machine
module Config = Ilp_memsim.Config
module Simclock = Ilp_netsim.Simclock
module Link = Ilp_netsim.Link
module Demux = Ilp_netsim.Demux
module Datagram = Ilp_netsim.Datagram
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client
module Pool = Ilp_fastpath.Pool
module Safer = Ilp_cipher.Safer_simplified
module T = Tracer

type workload = Paper_sim | Bulk_stream | Rpc_fanin

let workloads = [ Paper_sim; Bulk_stream; Rpc_fanin ]

let workload_name = function
  | Paper_sim -> "paper-sim"
  | Bulk_stream -> "bulk-stream"
  | Rpc_fanin -> "rpc-fanin"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* An op still open this long in virtual time counts as a deadline miss. *)
let op_deadline_us = 10_000_000.0

(* ---- growable float vector ---- *)

(* Per-op samples live outside the OCaml heap, so how many ops a run
   completes does not change the heap the stack is measured in. *)
module Fvec = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout (1 lsl 16); n = 0 }

  let push v x =
    if v.n = Array1.dim v.a then begin
      let b = Array1.create float64 c_layout (2 * v.n) in
      Array1.blit v.a (Array1.sub b 0 v.n);
      v.a <- b
    end;
    Array1.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = Array1.get v.a i
  let sub v off len = Array.init len (fun i -> Array1.get v.a (off + i))
  let prefix v k = sub v 0 (min k v.n)
end

(* ---- op and packet accounting ---- *)

(* Frozen when the [sim_window]-th op of the measured phase completes, so
   the virtual-clock metrics cover the same ops on every host. *)
type window = {
  w_sim_us : float;  (* virtual time from phase start to that completion *)
  w_bytes : int;
  w_send_us : float;
  w_send_n : int;
  w_recv_us : float;
  w_recv_n : int;
}

type meter = {
  sim_window : int;
  op_limit : int;  (* ops the callers may start in all; tests bound runs with it *)
  mutable measuring : bool;
  mutable next_op : int;
  mutable completed : int;  (* verified complete, measured phase *)
  mutable warm_completed : int;  (* verified complete before it *)
  mutable failed : int;  (* measured phase *)
  mutable failures : string list;  (* every failure, any phase *)
  mutable bytes : int;  (* verified payload, measured phase *)
  host_ms : Fvec.t;
  host_end_ns : Fvec.t;  (* completion instants, in completion order *)
  sim_ms : Fvec.t;
  mutable phase_sim0 : float;
  mutable paused_ns : int;  (* host time spent in calibration, not in the stack *)
  (* simulated packet processing *)
  mutable send_us : float;
  mutable send_n : int;
  mutable recv_us : float;
  mutable recv_n : int;
  mutable win : window option;
}

let create_meter ?(op_limit = max_int) ~sim_window () =
  { sim_window;
    op_limit;
    measuring = false;
    next_op = 0;
    completed = 0;
    warm_completed = 0;
    failed = 0;
    failures = [];
    bytes = 0;
    host_ms = Fvec.create ();
    host_end_ns = Fvec.create ();
    sim_ms = Fvec.create ();
    phase_sim0 = 0.0;
    paused_ns = 0;
    send_us = 0.0;
    send_n = 0;
    recv_us = 0.0;
    recv_n = 0;
    win = None }

(* The host clock with calibration pauses taken out. *)
let host_now m = T.now_ns () - m.paused_ns

let fresh_op m =
  let id = m.next_op in
  m.next_op <- id + 1;
  id

let record_failure m msg =
  if m.measuring then m.failed <- m.failed + 1;
  if List.length m.failures < 20 then m.failures <- msg :: m.failures

let record_success m ~host0 ~sim0 ~sim_now ~bytes =
  if not m.measuring then m.warm_completed <- m.warm_completed + 1
  else begin
    m.completed <- m.completed + 1;
    m.bytes <- m.bytes + bytes;
    let now = host_now m in
    Fvec.push m.host_ms (float_of_int (now - host0) /. 1e6);
    Fvec.push m.host_end_ns (float_of_int now);
    Fvec.push m.sim_ms ((sim_now -. sim0) /. 1000.0);
    if m.completed = m.sim_window then
      m.win <-
        Some
          { w_sim_us = sim_now -. m.phase_sim0;
            w_bytes = m.bytes;
            w_send_us = m.send_us;
            w_send_n = m.send_n;
            w_recv_us = m.recv_us;
            w_recv_n = m.recv_n }
  end

(* The packet-processing sums run from the world's creation; the runner
   zeroes them when the measured phase starts. *)
let add_send m us n =
  m.send_us <- m.send_us +. us;
  m.send_n <- m.send_n + n

let add_recv m us n =
  m.recv_us <- m.recv_us +. us;
  m.recv_n <- m.recv_n + n

(* ---- the world ---- *)

type world = {
  workload : workload;
  seed : int;
  sim : Sim.t;
  clock : Simclock.t;
  link : Link.t;
  pool : Pool.t;
  endpoints : (string * Socket.t) list;  (* role, socket *)
  server : Rpc_server.t option;
  clients : Rpc_client.t array;
  meter : meter;
  digest : int ref;  (* rolling digest of every datagram offered to the wire *)
  step : unit -> unit;  (* advance the world by one loop iteration *)
  teardown : unit -> unit;  (* destroy the engines, returning pooled buffers *)
}

(* Rolling FNV-1a-style digest, identical to [Streambench.transfer]'s, so
   the two wirings can be compared datagram for datagram. *)
let digest_init = 0x1505

let mix_datagram digest d =
  let h = ref !digest in
  let mix b = h := (!h lxor b) * 0x01000193 land 0x3FFFFFFFFFFFFFF in
  mix d.Datagram.src_port;
  mix d.Datagram.dst_port;
  let p = d.Datagram.payload in
  for i = 0 to String.length p - 1 do
    mix (Char.code (String.unsafe_get p i))
  done;
  digest := !h

let make_wire_out tracer digest link =
  match tracer with
  | None ->
      fun d ->
        mix_datagram digest d;
        Link.send (Option.get !link) d
  | Some tr ->
      fun d ->
        mix_datagram digest d;
        let s = T.enter tr T.link_send ~op:(-1) ~arg:(String.length d.Datagram.payload) in
        Link.send (Option.get !link) d;
        T.leave tr s

let role_span role =
  let rec find i =
    if i >= T.n_names then invalid_arg ("unknown role " ^ role)
    else if T.names.(i) = "tcp.rx." ^ role then i
    else find (i + 1)
  in
  find T.first_rx

(* A demux handler for [sock], timed as [tcp.rx.<role>] when traced. *)
let rx_handler tracer ~role ~op sock =
  let name = role_span role in
  match tracer with
  | None -> Socket.handle_datagram sock
  | Some tr ->
      fun d ->
        let s = T.enter tr name ~op:(op ()) ~arg:(String.length d.Datagram.payload) in
        Socket.handle_datagram sock d;
        T.leave tr s

(* Re-install [engine]'s receive handler on [sock], wrapped in an
   [engine.rx] span — after the RPC layer has wired the plain one. *)
let trace_engine_rx tracer ~op engine sock =
  match tracer with
  | None -> ()
  | Some tr -> (
      match Engine.rx_style engine with
      | Engine.Rx_integrated_style f ->
          Socket.set_rx_processing sock
            (Socket.Rx_integrated
               (fun mem ~src ~dst_off ~len ->
                 let s = T.enter tr T.engine_rx ~op:(op ()) ~arg:len in
                 let r = f mem ~src ~dst_off ~len in
                 T.leave tr s;
                 r))
      | Engine.Rx_deferred_style f ->
          Socket.set_rx_processing sock
            (Socket.Rx_separate
               (fun mem ~src ~dst_off ~len ->
                 let s = T.enter tr T.engine_rx ~op:(op ()) ~arg:len in
                 let r = f mem ~src ~dst_off ~len in
                 T.leave tr s;
                 r)))

let wire_engine_rx engine sock =
  match Engine.rx_style engine with
  | Engine.Rx_integrated_style f -> Socket.set_rx_processing sock (Socket.Rx_integrated f)
  | Engine.Rx_deferred_style f -> Socket.set_rx_processing sock (Socket.Rx_separate f)

(* What the tests hand the verifier instead of the true contents: one bit
   flipped, which the byte-exact check must catch. *)
let corrupted contents =
  String.mapi (fun i ch -> if i = 100 then Char.chr (Char.code ch lxor 1) else ch) contents

let send_error_to_string = function
  | Socket.Not_established -> "not established"
  | Socket.Message_too_big -> "message too big"
  | Socket.Buffer_full -> "buffer full"
  | Socket.Window_full -> "window full"

let established sockets =
  List.for_all (fun (_, s) -> Socket.state s = Socket.Established) sockets

let fail_setup name sockets =
  let why =
    List.filter_map
      (fun (role, s) ->
        Option.map
          (fun r -> role ^ " " ^ Socket.abort_reason_to_string r)
          (Socket.failure s))
      sockets
  in
  failwith
    (Printf.sprintf "%s: connection setup failed%s" name
       (if why = [] then "" else ": " ^ String.concat "; " why))

(* ---- RPC closed loop (paper-sim, rpc-fanin) ---- *)

type caller = {
  client : Rpc_client.t;
  mutable op : int;  (* open op id, -1 when idle or failed *)
  mutable host0 : int;
  mutable sim0 : float;
}

let new_caller client = { client; op = -1; host0 = 0; sim0 = 0.0 }

type rpc_op = {
  file_name : string;
  copies : int;
  max_reply : int;
  expected : string;  (* what the caller verifies the replies against *)
}

(* Start caller [c]'s next op, unless the run's op limit is reached. *)
let issue tracer meter clock req c =
  if meter.next_op < meter.op_limit then begin
    let id = fresh_op meter in
    c.op <- id;
    c.host0 <- host_now meter;
    c.sim0 <- Simclock.now clock;
    let s =
      match tracer with
      | None -> -1
      | Some tr -> T.enter tr T.rpc_request ~op:id ~arg:(req.copies * String.length req.expected)
    in
    let r =
      Rpc_client.request_file c.client ~name:req.file_name ~copies:req.copies
        ~max_reply:req.max_reply ~expected:req.expected
    in
    (match tracer with Some tr -> T.leave tr s | None -> ());
    match r with
    | Ok () -> ()
    | Error e ->
        c.op <- -1;
        record_failure meter ("request refused by TCP: " ^ send_error_to_string e)
  end

(* After the client's data socket handled a datagram: close the op if it
   is complete (and start the next one), or fail it on a typed error. *)
let settle tracer meter clock req c =
  if c.op >= 0 then
    match Rpc_client.failure c.client with
    | Some f ->
        c.op <- -1;
        record_failure meter (Rpc_client.failure_to_string f)
    | None ->
        if Rpc_client.transfer_complete c.client then begin
          let s =
            match tracer with
            | None -> -1
            | Some tr -> T.enter tr T.app_verify ~op:c.op ~arg:0
          in
          (* The client compared every payload byte against [expected] as
             it arrived; confirm it verified the whole op and nothing
             else. *)
          let want = req.copies * String.length req.expected in
          let got = Rpc_client.bytes_received c.client in
          let ok = got = want && Rpc_client.errors c.client = [] in
          (match tracer with Some tr -> T.leave tr s | None -> ());
          if ok then
            record_success meter ~host0:c.host0 ~sim0:c.sim0
              ~sim_now:(Simclock.now clock) ~bytes:want
          else
            record_failure meter
              (Printf.sprintf "op verified %d of %d bytes" got want);
          c.op <- -1;
          issue tracer meter clock req c
        end

(* Typed failures raised from timers, and deadline misses, are not seen
   by [settle]; sweep for them after every step. *)
let sweep meter clock callers =
  Array.iter
    (fun c ->
      if c.op >= 0 then
        match Rpc_client.failure c.client with
        | Some f ->
            c.op <- -1;
            record_failure meter (Rpc_client.failure_to_string f)
        | None ->
            if Simclock.now clock -. c.sim0 > op_deadline_us then begin
              c.op <- -1;
              record_failure meter "op missed its deadline"
            end)
    callers

(* ---- paper-sim ---- *)

(* [File_transfer]'s cipher key and port plan: the fidelity check
   compares this wiring with that driver exactly. *)
let paper_key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"

let paper_file = "paper.dat"

(* The paper's section 4 experiment: one client fetching the 15 KiB file
   in 1 KiB replies from a fused ILP engine on the simulated SS10-30, over
   a clean 50 us loopback.  Construction order follows [File_transfer.run]
   so simulated addresses, and therefore cache behaviour, match it. *)
let build_paper ?tracer ?(corrupt = false) ?op_limit ~seed ~copies ~sim_window () =
  let sim = Sim.create Config.ss10_30 in
  let machine = sim.Sim.machine in
  let clock = Simclock.create () in
  let demux = Demux.create () in
  let link = ref None in
  let digest = ref digest_init in
  let wire_out = make_wire_out tracer digest link in
  link :=
    Some
      (Link.create clock ~delay_us:50.0 ~loss_rate:0.0 ~seed
         ~deliver:(Demux.deliver demux) ());
  let srv_cipher = Safer.charged sim ~key:paper_key () in
  let cli_cipher = Safer.charged sim ~key:paper_key () in
  let pool = Pool.create () in
  let mk cipher = Engine.create sim ~cipher ~mode:Engine.Ilp ~max_message:2048 ~pool () in
  let srv_engine = mk srv_cipher in
  let cli_engine = mk cli_cipher in
  let scfg = { Socket.default_config with mss = 2048 } in
  let sock port = Socket.create sim clock scfg ~local_port:port ~wire_out in
  let srv_ctrl = sock 5000 in
  let cli_ctrl = sock 5001 in
  let srv_data = sock 5002 in
  let cli_data = sock 5003 in
  let server = Rpc_server.create ~clock ~engine:srv_engine () in
  ignore (Rpc_server.attach server ~ctrl:srv_ctrl ~data:srv_data);
  let client =
    Rpc_client.create ~clock ~engine:cli_engine ~ctrl:cli_ctrl ~data:cli_data ()
  in
  let meter = create_meter ?op_limit ~sim_window () in
  let c = new_caller client in
  let op () = c.op in
  trace_engine_rx tracer ~op srv_engine srv_ctrl;
  trace_engine_rx tracer ~op cli_engine cli_data;
  Rpc_server.set_reply_probe server
    ~before:(fun () ->
      match tracer with
      | Some tr -> T.enter_provisional tr T.rpc_reply ~op:c.op ~arg:0
      | None -> ())
    ~after:(fun ~wire_len:_ ~elapsed_us ~syscopy_us:_ ->
      add_send meter elapsed_us 1;
      match tracer with Some tr -> T.leave_provisional tr | None -> ());
  let contents = Ilp_app.Workload.generate ~len:Ilp_app.Workload.paper_file_len ~seed in
  let addr = Ilp_app.Workload.install sim contents in
  Rpc_server.add_file server ~name:paper_file ~addr ~len:(String.length contents);
  let expected =
    if corrupt then corrupted contents else contents
  in
  let req = { file_name = paper_file; copies; max_reply = 1024; expected } in
  let cli_data_rx = rx_handler tracer ~role:"cli_data" ~op cli_data in
  Demux.bind demux ~port:5000 (rx_handler tracer ~role:"srv_ctrl" ~op srv_ctrl);
  Demux.bind demux ~port:5001 (rx_handler tracer ~role:"cli_ctrl" ~op cli_ctrl);
  Demux.bind demux ~port:5002 (rx_handler tracer ~role:"srv_data" ~op srv_data);
  Demux.bind demux ~port:5003 (fun d ->
      (* The paper's receive packet processing: simulated time spent in
         the data socket for each datagram that delivered a reply. *)
      let replies = Rpc_client.replies_received client in
      let before = Machine.micros machine in
      cli_data_rx d;
      if Rpc_client.replies_received client > replies then
        add_recv meter (Machine.micros machine -. before) 1;
      settle tracer meter clock req c);
  Socket.listen srv_ctrl;
  Socket.listen cli_data;
  Socket.connect cli_ctrl ~remote_port:5000;
  Socket.connect srv_data ~remote_port:5003;
  Simclock.run_until_idle clock;
  let endpoints =
    [ ("srv_ctrl", srv_ctrl); ("cli_ctrl", cli_ctrl); ("srv_data", srv_data);
      ("cli_data", cli_data) ]
  in
  if not (established endpoints) then fail_setup "paper-sim" endpoints;
  Machine.reset_counters machine;
  issue tracer meter clock req c;
  { workload = Paper_sim;
    seed;
    sim;
    clock;
    link = Option.get !link;
    pool;
    endpoints;
    server = Some server;
    clients = [| client |];
    meter;
    digest;
    step =
      (fun () ->
        Simclock.advance clock 100.0;
        sweep meter clock [| c |]);
    teardown =
      (fun () ->
        Engine.destroy srv_engine;
        Engine.destroy cli_engine) }

(* ---- bulk-stream ---- *)

(* [Streambench]'s key, ports and socket configuration: the fidelity
   check compares this wiring with [Streambench.transfer] exactly. *)
let stream_key = "strmBENC"
let stream_file_len = 2 * 1024 * 1024
let tsdu_payload = 32 * 1024
let stream_rtt_us = 10_000.0
let wide_window = 65528

(* Application -> engine -> TCP -> link with no RPC: a native fused
   engine streams 32 KiB TSDUs as MSS-1448 segments over a clean 10 ms
   RTT with SACK and a 64 KiB window.  The application keeps the socket's
   TSDU queue full (a closed loop whose depth is the socket's
   [max_pending_streams]); the receiver verifies every byte.  TSDUs cycle
   through a 2 MiB file, so an op is TSDU [i mod 64]. *)
let build_stream ?tracer ?(corrupt = false) ?op_limit ~seed
    ~sim_window () =
  let sim = Sim.create ~mem_size:(stream_file_len + (4 * 1024 * 1024)) Config.ss10_30 in
  let machine = sim.Sim.machine in
  let clock = Simclock.create () in
  let demux = Demux.create () in
  let link = ref None in
  let digest = ref digest_init in
  let wire_out = make_wire_out tracer digest link in
  link :=
    Some
      (Link.create clock ~delay_us:(stream_rtt_us /. 2.0) ~loss_rate:0.0 ~seed
         ~deliver:(Demux.deliver demux) ());
  let pool = Pool.create () in
  let mk_engine () =
    Engine.create sim
      ~cipher:(Safer.charged sim ~key:stream_key ())
      ~mode:Engine.Ilp
      ~backend:
        (Engine.Native
           (Ilp_fastpath.Cipher.Safer_simplified (Safer.expand_key stream_key)))
      ~max_message:(tsdu_payload + 64) ~pool ()
  in
  let tx_eng = mk_engine () in
  let rx_eng = mk_engine () in
  let cfg =
    { Socket.default_config with
      mss = 1448;
      send_buffer = 128 * 1024;
      recv_window = wide_window;
      rto_initial_us =
        Float.max Socket.default_config.Socket.rto_initial_us (3.0 *. stream_rtt_us);
      rto_min_us = Float.max Socket.default_config.Socket.rto_min_us (1.5 *. stream_rtt_us);
      sack = true }
  in
  let tx = Socket.create sim clock cfg ~local_port:7001 ~wire_out in
  let rx = Socket.create sim clock cfg ~local_port:7002 ~wire_out in
  let meter = create_meter ?op_limit ~sim_window () in
  (* TSDUs handed to the sender and not yet verified, oldest first:
     (op id, file index, host start, virtual start). *)
  let open_ops = Queue.create () in
  let oldest () = match Queue.peek_opt open_ops with Some (id, _, _, _) -> id | None -> -1 in
  let tx_rx = rx_handler tracer ~role:"sender" ~op:oldest tx in
  let rx_rx = rx_handler tracer ~role:"receiver" ~op:oldest rx in
  (* Simulated packet processing: what each endpoint's machine charges
     inside the calls the application and the wire make into it. *)
  let tx_us = ref 0.0 in
  Demux.bind demux ~port:7001 (fun d ->
      let before = Machine.micros machine in
      tx_rx d;
      tx_us := !tx_us +. (Machine.micros machine -. before));
  Demux.bind demux ~port:7002 (fun d ->
      let before = Machine.micros machine in
      rx_rx d;
      add_recv meter (Machine.micros machine -. before) 1);
  wire_engine_rx rx_eng rx;
  trace_engine_rx tracer ~op:oldest rx_eng rx;
  let contents = Ilp_app.Workload.generate ~len:stream_file_len ~seed in
  let addr = Ilp_app.Workload.install sim contents in
  let expected =
    if corrupt then corrupted contents else contents
  in
  let n_chunks = stream_file_len / tsdu_payload in
  let failed = ref false in
  let fail msg =
    failed := true;
    record_failure meter msg
  in
  Socket.set_on_abort tx (fun r -> fail ("sender: " ^ Socket.abort_reason_to_string r));
  Socket.set_on_abort rx (fun r -> fail ("receiver: " ^ Socket.abort_reason_to_string r));
  (* Byte-exact check of TSDU [idx] against the expected file slice; the
     leading 4 bytes are the engine's length field. *)
  let matches buf ~len idx =
    let base = idx * tsdu_payload in
    let rec go i =
      i = tsdu_payload
      || (Bytes.unsafe_get buf (4 + i) = String.unsafe_get expected (base + i) && go (i + 1))
    in
    len >= 4 + tsdu_payload && go 0
  in
  Socket.set_on_message rx (fun ~src:_ ~len ->
      match Queue.take_opt open_ops with
      | None -> fail "receiver: TSDU nobody sent"
      | Some (id, idx, host0, sim0) -> (
          let s =
            match tracer with
            | None -> -1
            | Some tr -> T.enter tr T.app_verify ~op:id ~arg:tsdu_payload
          in
          let verdict =
            match Engine.read_plaintext_pooled rx_eng ~len with
            | Error e -> Error ("decode: " ^ e)
            | Ok (buf, plen) ->
                let ok = matches buf ~len:plen idx in
                Engine.release_plaintext rx_eng buf;
                if ok then Ok () else Error (Printf.sprintf "TSDU %d not byte-exact" id)
          in
          (match tracer with Some tr -> T.leave tr s | None -> ());
          match verdict with
          | Error e -> fail ("receiver: " ^ e)
          | Ok () ->
              record_success meter ~host0 ~sim0 ~sim_now:(Simclock.now clock)
                ~bytes:tsdu_payload));
  let fill_range =
    match tracer with
    | None -> fun f -> f
    | Some tr ->
        fun f mem ~dst ~off ~len ->
          let s = T.enter tr T.engine_tx ~op:(oldest ()) ~arg:len in
          let r = f mem ~dst ~off ~len in
          T.leave tr s;
          r
  in
  let send_next () =
    if meter.next_op >= meter.op_limit || !failed then false
    else begin
      let idx = meter.next_op mod n_chunks in
      let ps =
        Engine.prepare_stream_segments tx_eng
          [ Engine.Seg_app { addr = addr + (idx * tsdu_payload); len = tsdu_payload } ]
      in
      let host0 = host_now meter and sim0 = Simclock.now clock in
      let before = Machine.micros machine in
      let s =
        match tracer with
        | None -> -1
        | Some tr -> T.enter tr T.tcp_tx ~op:meter.next_op ~arg:ps.Engine.stream_len
      in
      let r =
        Socket.send_stream tx ~seg_unit:ps.Engine.seg_unit ~len:ps.Engine.stream_len
          ~fill:(fill_range ps.Engine.fill_range)
      in
      (match tracer with Some tr -> T.leave tr s | None -> ());
      tx_us := !tx_us +. (Machine.micros machine -. before);
      match r with
      | Ok () ->
          Queue.add (fresh_op meter, idx, host0, sim0) open_ops;
          true
      | Error Socket.Buffer_full -> false
      | Error e ->
          fail ("sender: " ^ send_error_to_string e);
          false
    end
  in
  Socket.listen rx;
  Socket.connect tx ~remote_port:7002;
  Simclock.run_until_idle clock;
  let endpoints = [ ("sender", tx); ("receiver", rx) ] in
  if not (established endpoints) then fail_setup "bulk-stream" endpoints;
  let segs_mark = ref 0 in
  { workload = Bulk_stream;
    seed;
    sim;
    clock;
    link = Option.get !link;
    pool;
    endpoints;
    server = None;
    clients = [||];
    meter;
    digest;
    step =
      (fun () ->
        while send_next () do () done;
        Simclock.advance clock 200.0;
        (* Send-side packet processing per data segment sent. *)
        let segs = (Socket.stats tx).Socket.segments_sent in
        add_send meter !tx_us (segs - !segs_mark);
        segs_mark := segs;
        tx_us := 0.0;
        match Queue.peek_opt open_ops with
        | Some (_, _, _, sim0) when (not !failed) && Simclock.now clock -. sim0 > op_deadline_us ->
            fail "TSDU missed its deadline"
        | _ -> ());
    teardown =
      (fun () ->
        Engine.destroy tx_eng;
        Engine.destroy rx_eng) }

(* ---- rpc-fanin ---- *)

let fanin_clients = 8
let fanin_file_len = 4096
let fanin_rtt_us = 1_000.0
let fanin_loss = 0.01
let fanin_file = "f.dat"

(* Eight closed-loop clients against one shared server with default
   limits, each fetching a 4 KiB file in 256-byte replies (16 replies per
   op) over a 1 ms RTT link with 1% seeded independent loss.  Virtual
   latencies are discrete (processing takes no virtual time), and at 2%
   loss the latency CDF crosses both 0.5 and 0.9 exactly at an atom
   (F(1 ms) ~ 0.51, F(2.05 ms) ~ 0.89), so p50 and p90 flipped between
   seeds; at 1% they sit well inside an atom while about 30% of ops still
   recover from a loss.  Every
   engine is a native fused engine and all share one pool. *)
let build_fanin ?tracer ?(corrupt = false) ?op_limit ~seed ~sim_window () =
  let sim = Sim.create Config.ss10_30 in
  let machine = sim.Sim.machine in
  let clock = Simclock.create () in
  let demux = Demux.create () in
  let link = ref None in
  let digest = ref digest_init in
  let wire_out = make_wire_out tracer digest link in
  link :=
    Some
      (Link.create clock ~delay_us:(fanin_rtt_us /. 2.0) ~loss_rate:fanin_loss ~seed
         ~deliver:(Demux.deliver demux) ());
  let pool = Pool.create () in
  let native = Ilp_fastpath.Cipher.Safer_simplified (Safer.expand_key paper_key) in
  let mk_engine () =
    Engine.create sim ~cipher:(Safer.charged sim ~key:paper_key ()) ~mode:Engine.Ilp
      ~backend:(Engine.Native native) ~max_message:2048 ~pool ()
  in
  let srv_engine = mk_engine () in
  let server = Rpc_server.create ~clock ~engine:srv_engine () in
  let contents = Ilp_app.Workload.generate ~len:fanin_file_len ~seed in
  let addr = Ilp_app.Workload.install sim contents in
  Rpc_server.add_file server ~name:fanin_file ~addr ~len:fanin_file_len;
  let expected =
    if corrupt then corrupted contents else contents
  in
  let req = { file_name = fanin_file; copies = 1; max_reply = 256; expected } in
  let cfg =
    { Socket.default_config with
      mss = 2048;
      rto_initial_us =
        Float.max Socket.default_config.Socket.rto_initial_us (3.0 *. fanin_rtt_us);
      rto_min_us = Float.max Socket.default_config.Socket.rto_min_us (1.5 *. fanin_rtt_us) }
  in
  let meter = create_meter ?op_limit ~sim_window () in
  (* The reply probe is server-wide: attribute its spans to the op of the
     connection whose drain is running, which the server does not say. *)
  Rpc_server.set_reply_probe server
    ~before:(fun () ->
      match tracer with
      | Some tr -> T.enter_provisional tr T.rpc_reply ~op:(-1) ~arg:0
      | None -> ())
    ~after:(fun ~wire_len:_ ~elapsed_us ~syscopy_us:_ ->
      add_send meter elapsed_us 1;
      match tracer with Some tr -> T.leave_provisional tr | None -> ());
  let engines = ref [ srv_engine ] in
  let endpoints = ref [] in
  let callers =
    Array.init fanin_clients (fun i ->
        let port k = 6000 + (4 * i) + k in
        let sock k = Socket.create sim clock cfg ~local_port:(port k) ~wire_out in
        let srv_ctrl = sock 0 and cli_ctrl = sock 1 in
        let srv_data = sock 2 and cli_data = sock 3 in
        ignore (Rpc_server.attach server ~ctrl:srv_ctrl ~data:srv_data);
        let cli_engine = mk_engine () in
        engines := cli_engine :: !engines;
        let client =
          Rpc_client.create ~clock ~seed:(i + 1) ~engine:cli_engine ~ctrl:cli_ctrl
            ~data:cli_data ()
        in
        let c = new_caller client in
        let op () = c.op in
        trace_engine_rx tracer ~op srv_engine srv_ctrl;
        trace_engine_rx tracer ~op cli_engine cli_data;
        let cli_data_rx = rx_handler tracer ~role:"cli_data" ~op cli_data in
        Demux.bind demux ~port:(port 0) (rx_handler tracer ~role:"srv_ctrl" ~op srv_ctrl);
        Demux.bind demux ~port:(port 1) (rx_handler tracer ~role:"cli_ctrl" ~op cli_ctrl);
        Demux.bind demux ~port:(port 2) (rx_handler tracer ~role:"srv_data" ~op srv_data);
        Demux.bind demux ~port:(port 3) (fun d ->
            let replies = Rpc_client.replies_received client in
            let before = Machine.micros machine in
            cli_data_rx d;
            if Rpc_client.replies_received client > replies then
              add_recv meter (Machine.micros machine -. before) 1;
            settle tracer meter clock req c);
        endpoints :=
          !endpoints
          @ [ ("srv_ctrl", srv_ctrl); ("cli_ctrl", cli_ctrl); ("srv_data", srv_data);
              ("cli_data", cli_data) ];
        Socket.listen srv_ctrl;
        Socket.listen cli_data;
        Socket.connect cli_ctrl ~remote_port:(port 0);
        Socket.connect srv_data ~remote_port:(port 3);
        c)
  in
  Simclock.run_until_idle clock;
  if not (established !endpoints) then fail_setup "rpc-fanin" !endpoints;
  Array.iter (issue tracer meter clock req) callers;
  { workload = Rpc_fanin;
    seed;
    sim;
    clock;
    link = Option.get !link;
    pool;
    endpoints = !endpoints;
    server = Some server;
    clients = Array.map (fun c -> c.client) callers;
    meter;
    digest;
    step =
      (fun () ->
        Simclock.advance clock 1_000.0;
        sweep meter clock callers);
    teardown = (fun () -> List.iter Engine.destroy !engines) }
