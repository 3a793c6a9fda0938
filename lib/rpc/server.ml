module Simclock = Ilp_netsim.Simclock
module Socket = Ilp_tcp.Socket
module Framing = Ilp_tcp.Framing
module Engine = Ilp_core.Engine
module Machine = Ilp_memsim.Machine
module M = Ilp_obs.Metrics
module Trace = Ilp_obs.Trace
module Recorder = Ilp_obs.Recorder

type file = { addr : int; len : int }

type segment = { copy : int; offset : int; seg_len : int; file : file }

(* A queued reply item: either a data segment of an admitted request
   (tagged with its request id and admission time, so stale requests can
   be shed at drain time), or a small data-less reply carrying just a
   header (status sheds, probe verdicts, dedup replays).  Header items
   bypass the byte budgets — they are the shedding mechanism itself and
   must always be deliverable. *)
type item =
  | Data of { seg : segment; req_id : int; enqueued_at : float }
  | Status of Messages.reply_header

type shed_reason =
  | Too_many_connections
  | Conn_queue_full
  | Server_queue_full
  | Request_too_old
  | Oversized_request

let shed_reasons =
  [ Too_many_connections; Conn_queue_full; Server_queue_full; Request_too_old;
    Oversized_request ]

let shed_reason_index = function
  | Too_many_connections -> 0
  | Conn_queue_full -> 1
  | Server_queue_full -> 2
  | Request_too_old -> 3
  | Oversized_request -> 4

let shed_reason_to_string = function
  | Too_many_connections -> "too_many_connections"
  | Conn_queue_full -> "conn_queue_full"
  | Server_queue_full -> "server_queue_full"
  | Request_too_old -> "request_too_old"
  | Oversized_request -> "oversized_request"

(* Decode shed-reason args in flight-recorder dumps. *)
let () =
  Recorder.set_arg_printer Recorder.Shed (fun i ->
      match List.nth_opt shed_reasons i with
      | Some r -> shed_reason_to_string r
      | None -> string_of_int i)

type limits = {
  max_connections : int;
  max_conn_queue_bytes : int;
  max_total_queue_bytes : int;
  max_request_age_us : float;
}

(* Each server instance and each dedup store counts in its own ledger;
   the registry counters sum them over all instances and stores. *)
let family = M.family M.default
let store_family = M.family M.default
let s_requests_received = M.slot family "rpc.requests_received"
let s_bad_requests = M.slot family "rpc.bad_requests"
let s_dedup_hits = M.slot store_family "rpc.server.dedup_hits"
let s_executions = M.slot store_family "rpc.server.executions"
let s_probes = M.slot family "rpc.server.probes"
let s_replies_sent = M.slot family "rpc.replies_sent"
let s_replies_abandoned = M.slot family "rpc.replies_abandoned"
let s_statuses_abandoned = M.slot family "rpc.statuses_abandoned"
let g_connections = M.gauge M.default "rpc.connections"
let g_queued_bytes = M.gauge M.default "rpc.queued_bytes"

let s_sheds =
  Array.of_list
    (List.map
       (fun r -> M.slot family ("rpc.shed." ^ shed_reason_to_string r))
       shed_reasons)

let default_limits =
  { max_connections = 64;
    max_conn_queue_bytes = 256 * 1024;
    max_total_queue_bytes = 1024 * 1024;
    max_request_age_us = 60_000_000.0 }

type conn = {
  id : int;
  ctrl : Socket.t;
  data : Socket.t;
  queue : item Queue.t;
  admitted : bool;
  mutable queued_bytes : int;
  mutable draining : bool;
  mutable drain_timer : Simclock.timer option;
  mutable dead : bool;
  mutable framed : bool;
      (* the client negotiated v2 framed streams (a flagged control
         message carried [Messages.flag_rx_framing]); every reply TSDU
         on this connection gets a [Framing] prelude *)
}

(* The state a node crash does NOT erase: the served files (they live on
   disk) and the at-most-once dedup cache with its conservation ledger.
   A restarted server instance is built over the same store, so a replay
   of an already-executed idempotency id is answered from the cache
   instead of re-executed.  The cache is bounded: FIFO eviction at
   [dedup_cap] ids. *)
type store = {
  s_files : (string, file) Hashtbl.t;
  dedup_cap : int;
  dedup : (int, Messages.status) Hashtbl.t;
  dedup_order : int Queue.t;
  s_ledger : M.ledger;  (* dedup hits and executions *)
  mutable id_requests_seen : int;  (* id-carrying requests decoded *)
  mutable dedup_sheds : int;  (* id-carrying requests shed, not cached *)
}

let create_store ?(dedup_cap = 1024) () =
  if dedup_cap < 1 then invalid_arg "Server.create_store: dedup_cap must be >= 1";
  { s_files = Hashtbl.create 4;
    dedup_cap;
    dedup = Hashtbl.create 64;
    dedup_order = Queue.create ();
    s_ledger = M.ledger store_family;
    id_requests_seen = 0;
    dedup_sheds = 0 }

(* Cache the terminal status of an executed request.  Sheds (Busy) and
   rejections are never cached: they are re-derivable and a retry with
   the same id must be free to succeed. *)
let store_cache_put st ~req_id status =
  if not (Hashtbl.mem st.dedup req_id) then begin
    if Queue.length st.dedup_order >= st.dedup_cap then begin
      let evicted = Queue.pop st.dedup_order in
      Hashtbl.remove st.dedup evicted
    end;
    Hashtbl.replace st.dedup req_id status;
    Queue.add req_id st.dedup_order
  end

type t = {
  clock : Simclock.t;
  engine : Engine.t;
  retry_us : float;
  limits : limits;
  owner : int;  (* Simclock owner tag on every drain timer *)
  store : store;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  mutable next_req_id : int;
  mutable live_connections : int;
  mutable total_queued_bytes : int;
  mutable peak_queued_bytes : int;
  ledger : M.ledger;
  mutable probe_before : unit -> unit;
  mutable probe_after : wire_len:int -> elapsed_us:float -> syscopy_us:float -> unit;
}

let machine t = (Engine.sim t.engine).Ilp_memsim.Sim.machine

let count_shed t reason =
  M.bump t.ledger s_sheds.(shed_reason_index reason) 1;
  (* Sheds can precede admission, so there may be no connection yet;
     conn 0 stands for "the server itself". *)
  Recorder.note Recorder.Shed ~conn:0 ~arg:(shed_reason_index reason)
    ~ts:(Machine.micros (machine t));
  if Trace.enabled () then
    Trace.instant ~arg:(shed_reason_index reason) Trace.Rpc_shed
      ~packet:(Trace.current_packet ())
      ~ts:(Machine.micros (machine t))

let charge_queue t conn bytes =
  conn.queued_bytes <- conn.queued_bytes + bytes;
  t.total_queued_bytes <- t.total_queued_bytes + bytes;
  M.set g_queued_bytes t.total_queued_bytes;
  if t.total_queued_bytes > t.peak_queued_bytes then
    t.peak_queued_bytes <- t.total_queued_bytes

let release_queue t conn bytes =
  conn.queued_bytes <- conn.queued_bytes - bytes;
  t.total_queued_bytes <- t.total_queued_bytes - bytes;
  M.set g_queued_bytes t.total_queued_bytes

let item_bytes = function Data { seg; _ } -> seg.seg_len | Status _ -> 0

(* A connection whose sockets died (abort or close) will never accept its
   queued replies: abandon them, free the admission slot, and stop the
   drain loop instead of rescheduling forever. *)
let mark_dead t conn =
  if not conn.dead then begin
    conn.dead <- true;
    Option.iter Simclock.cancel conn.drain_timer;
    conn.drain_timer <- None;
    if conn.admitted then begin
      t.live_connections <- t.live_connections - 1;
      M.set g_connections t.live_connections
    end;
    let abandoned = Queue.length conn.queue in
    Queue.iter
      (fun item ->
        release_queue t conn (item_bytes item);
        match item with
        | Data _ -> M.bump t.ledger s_replies_abandoned 1
        | Status _ -> M.bump t.ledger s_statuses_abandoned 1)
      conn.queue;
    Queue.clear conn.queue;
    conn.draining <- false;
    if abandoned > 0 then
      Recorder.note Recorder.Abandon ~conn:(Socket.local_port conn.ctrl)
        ~arg:abandoned ~ts:(Machine.micros (machine t));
    if Trace.enabled () && abandoned > 0 then
      Trace.instant ~arg:abandoned Trace.Rpc_abandon
        ~packet:(Trace.current_packet ())
        ~ts:(Machine.micros (machine t))
  end

let send_reply t conn hdr ~payload_addr =
  let body = Messages.reply_segments hdr ~payload_addr in
  let ps = Engine.prepare_stream_segments t.engine body in
  let wire_len = ps.Engine.stream_len in
  (* Framed connections put [seg_unit] prelude bytes on the wire ahead
     of the TSDU; the throughput probe sees what actually went out. *)
  let sent_len =
    if conn.framed then ps.Engine.seg_unit + wire_len else wire_len
  in
  t.probe_before ();
  let before = Machine.micros (machine t) in
  ignore (Socket.take_syscopy_send_us conn.data);
  let sent =
    if conn.framed then begin
      (* A framing-negotiated connection: every reply TSDU — even one
         that would fit a single segment — goes out as a framed stream,
         because the peer's receive path parses a prelude at the start
         of each TSDU. *)
      let total, fill =
        Framing.framed_stream ~seg_unit:ps.Engine.seg_unit
          ~stream_len:wire_len
          ~checksummed:(Engine.mode t.engine = Engine.Ilp)
          ~fill_range:ps.Engine.fill_range
      in
      Socket.send_stream conn.data ~seg_unit:ps.Engine.seg_unit ~len:total
        ~fill
    end
    else
      (* Replies that fit one segment take the legacy single-TPDU path
         (byte- and charge-identical to a whole-message prepare); a reply
         larger than the connection's MSS streams as a pipelined TSDU of
         MSS-sized segments instead of being dropped. *)
      match
        Socket.send_message conn.data ~len:wire_len ~fill:(fun mem ~dst ->
            ps.Engine.fill_range mem ~dst ~off:0 ~len:wire_len)
      with
      | Error Socket.Message_too_big ->
          Socket.send_stream conn.data ~seg_unit:ps.Engine.seg_unit
            ~len:wire_len ~fill:ps.Engine.fill_range
      | r -> r
  in
  match sent with
  | Ok () ->
      let elapsed_us = Machine.micros (machine t) -. before in
      let syscopy_us = Socket.take_syscopy_send_us conn.data in
      M.bump t.ledger s_replies_sent 1;
      t.probe_after ~wire_len:sent_len ~elapsed_us ~syscopy_us;
      `Sent
  | Error (Socket.Buffer_full | Socket.Window_full | Socket.Not_established) ->
      `Backpressure
  | Error Socket.Message_too_big ->
      (* Still too big for the stream path (exceeds the engine's
         [max_message]): drop the reply rather than loop forever. *)
      `Drop

let send_segment t conn seg =
  send_reply t conn
    { Messages.status = Messages.Ok;
      copy = seg.copy;
      file_offset = seg.offset;
      total_len = seg.file.len;
      data_len = seg.seg_len }
    ~payload_addr:(seg.file.addr + seg.offset)

let status_hdr ?(copy = 0) ?(file_offset = 0) ?(total_len = 0) status =
  { Messages.status; copy; file_offset; total_len; data_len = 0 }

let send_status t conn hdr = send_reply t conn hdr ~payload_addr:0

(* Drop every remaining data segment of [req_id] from the queue (it is
   being shed as a whole) and answer with one Busy instead. *)
let shed_request t conn ~req_id =
  let keep = Queue.create () in
  Queue.iter
    (fun item ->
      match item with
      | Data d when d.req_id = req_id -> release_queue t conn d.seg.seg_len
      | _ -> Queue.add item keep)
    conn.queue;
  Queue.clear conn.queue;
  Queue.transfer keep conn.queue;
  Queue.add (Status (status_hdr Messages.Busy)) conn.queue

let rec drain t conn =
  conn.drain_timer <- None;
  if Socket.failure conn.data <> None || Socket.state conn.data = Socket.Closed
  then mark_dead t conn
  else
    match Queue.peek_opt conn.queue with
    | None -> conn.draining <- false
    | Some (Status hdr) -> (
        match send_status t conn hdr with
        | `Sent | `Drop ->
            ignore (Queue.pop conn.queue);
            drain t conn
        | `Backpressure -> reschedule t conn)
    | Some (Data { seg; req_id; enqueued_at }) ->
        if
          Simclock.now t.clock -. enqueued_at > t.limits.max_request_age_us
        then begin
          count_shed t Request_too_old;
          shed_request t conn ~req_id;
          drain t conn
        end
        else (
          match send_segment t conn seg with
          | `Sent | `Drop ->
              ignore (Queue.pop conn.queue);
              release_queue t conn seg.seg_len;
              drain t conn
          | `Backpressure -> reschedule t conn)

and reschedule t conn =
  conn.draining <- true;
  conn.drain_timer <-
    Some
      (Simclock.schedule t.clock ~owner:t.owner ~after:t.retry_us (fun () ->
           drain t conn))

let kick t conn = if not conn.draining then drain t conn

let enqueue_hdr t conn hdr =
  if not conn.dead then begin
    Queue.add (Status hdr) conn.queue;
    kick t conn
  end

let enqueue_status t conn status = enqueue_hdr t conn (status_hdr status)

(* Pure CRC32 over the stored file's prefix — the server's side of the
   client's resume handshake.  Uncharged: the probe models a disk/page
   cache read, not a data manipulation on the measured path. *)
let file_prefix_crc t file ~len =
  let mem = (Engine.sim t.engine).Ilp_memsim.Sim.mem in
  let raw = Ilp_memsim.Mem.raw mem in
  Ilp_checksum.Crc32.finish
    (Ilp_checksum.Crc32.fold_bytes ~crc:Ilp_checksum.Crc32.init raw
       ~off:file.addr ~len)

let handle_probe t conn p =
  M.bump t.ledger s_probes 1;
  match Hashtbl.find_opt t.store.s_files p.Messages.p_file_name with
  | None -> enqueue_status t conn Messages.Not_found
  | Some file ->
      let hdr st =
        status_hdr ~file_offset:p.Messages.p_offset ~total_len:file.len st
      in
      if p.Messages.p_offset < 0 || p.Messages.p_offset > file.len then begin
        M.bump t.ledger s_bad_requests 1;
        enqueue_hdr t conn (hdr Messages.Refused)
      end
      else if file_prefix_crc t file ~len:p.Messages.p_offset = p.Messages.p_crc
      then enqueue_hdr t conn (hdr Messages.Ok)
      else enqueue_hdr t conn (hdr Messages.Refused)

let handle_req t conn req =
  let idd = req.Messages.req_id <> 0 in
  if idd then t.store.id_requests_seen <- t.store.id_requests_seen + 1;
  (* An id-carrying request that is shed or rejected is NOT cached (a
     retry with the same id must be free to succeed), but it is counted,
     so the conservation law [executions + dedup_hits + dedup_sheds =
     id_requests_seen] holds at every instant. *)
  let shed_idd () = if idd then t.store.dedup_sheds <- t.store.dedup_sheds + 1 in
  match
    if idd then Hashtbl.find_opt t.store.dedup req.Messages.req_id else None
  with
  | Some cached ->
      (* At-most-once replay: answer from the cache with a data-less
         status; the work is not re-executed. *)
      M.bump t.store.s_ledger s_dedup_hits 1;
      enqueue_status t conn cached
  | None ->
      if not conn.admitted then begin
        count_shed t Too_many_connections;
        shed_idd ();
        enqueue_status t conn Messages.Busy
      end
      else (
        match Hashtbl.find_opt t.store.s_files req.Messages.file_name with
        | None ->
            shed_idd ();
            enqueue_status t conn Messages.Not_found
        | Some file ->
            let start_copy = req.Messages.start_copy in
            let start_offset = req.Messages.start_offset in
            if
              start_copy < 0 || start_offset < 0 || start_offset > file.len
              || (start_copy > 0 && start_copy >= req.Messages.copies)
            then begin
              (* A resume point outside the file is a malformed request,
                 not a load shed. *)
              M.bump t.ledger s_bad_requests 1;
              shed_idd ();
              enqueue_status t conn Messages.Refused
            end
            else
              let request_bytes =
                (req.Messages.copies - start_copy) * file.len - start_offset
              in
              if request_bytes > t.limits.max_conn_queue_bytes then begin
                (* Could never fit: permanent refusal, not a retryable shed. *)
                count_shed t Oversized_request;
                shed_idd ();
                enqueue_status t conn Messages.Refused
              end
              else if
                conn.queued_bytes + request_bytes > t.limits.max_conn_queue_bytes
              then begin
                count_shed t Conn_queue_full;
                shed_idd ();
                enqueue_status t conn Messages.Busy
              end
              else if
                t.total_queued_bytes + request_bytes
                > t.limits.max_total_queue_bytes
              then begin
                count_shed t Server_queue_full;
                shed_idd ();
                enqueue_status t conn Messages.Busy
              end
              else begin
                if idd then begin
                  M.bump t.store.s_ledger s_executions 1;
                  store_cache_put t.store ~req_id:req.Messages.req_id Messages.Ok
                end;
                if request_bytes <= 0 then
                  (* Nothing left to send (resume point at EOF): still
                     answer, so the client is never left waiting. *)
                  enqueue_hdr t conn
                    (status_hdr ~copy:start_copy ~file_offset:start_offset
                       ~total_len:file.len Messages.Ok)
                else begin
                  let req_id = t.next_req_id in
                  t.next_req_id <- t.next_req_id + 1;
                  let enqueued_at = Simclock.now t.clock in
                  let max_reply = max 16 req.Messages.max_reply in
                  for copy = start_copy to req.Messages.copies - 1 do
                    let offset =
                      ref (if copy = start_copy then start_offset else 0)
                    in
                    while !offset < file.len do
                      let seg_len = min max_reply (file.len - !offset) in
                      Queue.add
                        (Data
                           { seg = { copy; offset = !offset; seg_len; file };
                             req_id;
                             enqueued_at })
                        conn.queue;
                      charge_queue t conn seg_len;
                      offset := !offset + seg_len
                    done
                  done;
                  kick t conn
                end
              end)

let handle_request t conn ~len =
  M.bump t.ledger s_requests_received 1;
  match
    let length_at_end = Engine.header_style t.engine = Engine.Trailer in
    let crc_trailer = Engine.crc32 t.engine in
    match Engine.data_path t.engine with
    | Engine.Legacy ->
        Result.bind (Engine.read_plaintext t.engine ~len)
          (Messages.decode_ctrl ~length_at_end ~crc_trailer)
    | Engine.Pooled ->
        (* Single-copy: decode the request in place from a pooled TSDU
           buffer, released as soon as the decode finishes (the request's
           fields are scalars plus the short file name). *)
        Result.bind (Engine.read_plaintext_pooled t.engine ~len)
          (fun (buf, plen) ->
            let r =
              Messages.decode_ctrl_bytes ~length_at_end ~crc_trailer buf
                ~len:plen
            in
            Engine.release_plaintext t.engine buf;
            r)
  with
  | Error _ ->
      M.bump t.ledger s_bad_requests 1;
      enqueue_status t conn Messages.Not_found
  | Ok (c, flags) ->
      (* A flagged control message negotiates capabilities for the whole
         connection — before any reply is built, so even this message's
         own reply honours them.  A reconnecting client's first message
         may be a probe, hence probes carry the flag word too. *)
      if flags land Messages.flag_rx_framing <> 0 then conn.framed <- true;
      (match c with
      | Messages.Probe p -> handle_probe t conn p
      | Messages.Request req -> handle_req t conn req)

let create ~clock ~engine ?(retry_us = 150.0) ?(limits = default_limits)
    ?(store = create_store ()) () =
  { clock;
    engine;
    retry_us;
    limits;
    owner = Simclock.fresh_owner clock;
    store;
    conns = Hashtbl.create 8;
    next_conn_id = 0;
    next_req_id = 0;
    live_connections = 0;
    total_queued_bytes = 0;
    peak_queued_bytes = 0;
    ledger = M.ledger family;
    probe_before = (fun () -> ());
    probe_after = (fun ~wire_len:_ ~elapsed_us:_ ~syscopy_us:_ -> ()) }

let attach t ~ctrl ~data =
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  let admitted = t.live_connections < t.limits.max_connections in
  let conn =
    { id; ctrl; data; queue = Queue.create (); admitted;
      queued_bytes = 0; draining = false; drain_timer = None; dead = false;
      framed = false }
  in
  if admitted then begin
    t.live_connections <- t.live_connections + 1;
    M.set g_connections t.live_connections
  end;
  Hashtbl.replace t.conns id conn;
  (* Requests arrive through the same manipulation stack as any message. *)
  (match Engine.rx_style t.engine with
  | Engine.Rx_integrated_style f -> Socket.set_rx_processing ctrl (Socket.Rx_integrated f)
  | Engine.Rx_deferred_style f -> Socket.set_rx_processing ctrl (Socket.Rx_separate f));
  Socket.set_on_message ctrl (fun ~src:_ ~len -> handle_request t conn ~len);
  (* Either socket dying ends the connection: abandon its queue and free
     the admission slot so a waiting client can be served. *)
  Socket.set_on_abort ctrl (fun _ -> mark_dead t conn);
  Socket.set_on_abort data (fun _ -> mark_dead t conn);
  id

let detach t ~id =
  match Hashtbl.find_opt t.conns id with
  | None -> ()
  | Some conn ->
      mark_dead t conn;
      Hashtbl.remove t.conns id

let add_file t ~name ~addr ~len =
  Hashtbl.replace t.store.s_files name { addr; len }

(* Node crash: every connection dies with the process — queues abandoned,
   drain timers cancelled.  The [store] survives; a new instance built
   over it (Rpc_server.create ~store) is the restarted server. *)
let shutdown t =
  Hashtbl.iter (fun _ conn -> mark_dead t conn) t.conns;
  Hashtbl.reset t.conns

let pending_replies t =
  Hashtbl.fold (fun _ conn acc -> acc + Queue.length conn.queue) t.conns 0

let connections t = t.live_connections
let queued_bytes t = t.total_queued_bytes
let peak_queued_bytes t = t.peak_queued_bytes
let replies_sent t = M.count t.ledger s_replies_sent
let replies_abandoned t = M.count t.ledger s_replies_abandoned
let statuses_abandoned t = M.count t.ledger s_statuses_abandoned
let requests_received t = M.count t.ledger s_requests_received
let bad_requests t = M.count t.ledger s_bad_requests
let probes_received t = M.count t.ledger s_probes
let timer_owner t = t.owner
let store t = t.store
let dedup_hits st = M.count st.s_ledger s_dedup_hits
let executions st = M.count st.s_ledger s_executions
let id_requests_seen st = st.id_requests_seen
let dedup_sheds st = st.dedup_sheds
let dedup_cached st = Hashtbl.length st.dedup
let shed_count t reason = M.count t.ledger s_sheds.(shed_reason_index reason)
let sheds t = List.map (fun r -> (r, shed_count t r)) shed_reasons
let sheds_total t = List.fold_left (fun n r -> n + shed_count t r) 0 shed_reasons

let set_reply_probe t ~before ~after =
  t.probe_before <- before;
  t.probe_after <- after
