module Simclock = Ilp_netsim.Simclock
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module M = Ilp_obs.Metrics
module Recorder = Ilp_obs.Recorder

let family = M.family M.default
let s_busy_replies = M.slot family "rpc.client.busy_replies"
let s_retries = M.slot family "rpc.client.retries"
let s_reconnects = M.slot family "rpc.client.reconnects"
let s_resumes = M.slot family "rpc.client.resumes"

(* End-to-end request latency: from [request_file] (or a re-issue after
   reconnect) to the moment every copy of the transfer is verified.
   Only clocked clients observe it — without a Simclock there is no
   meaningful end-to-end time. *)
let m_latency = M.histogram M.default "rpc.latency_us"

type transfer = {
  expected : string;
  copies : int;
  mutable received : int array;  (* bytes received per copy *)
}

type failure =
  | Aborted of Socket.abort_reason
  | Server_busy
  | Protocol of string

let failure_to_string = function
  | Aborted r -> "transport aborted: " ^ Socket.abort_reason_to_string r
  | Server_busy -> "server busy: shed and retries exhausted"
  | Protocol e -> "protocol failure: " ^ e

type retry_policy = {
  max_attempts : int;
  base_backoff_us : float;
  max_backoff_us : float;
  deadline_us : float;
}

let default_retry =
  { max_attempts = 8;
    base_backoff_us = 500.0;
    max_backoff_us = 50_000.0;
    deadline_us = 5_000_000.0 }

type request_params = {
  name : string;
  req_copies : int;
  max_reply : int;
  req_expected : string;
}

type reconnect_summary = {
  resumed_from : (int * int) option;
      (* (copy, offset) the transfer will continue from; None = from scratch *)
  bytes_verified : int;
  retries_consumed : int;
}

type t = {
  engine : Engine.t;
  clock : Simclock.t option;
  retry : retry_policy;
  prng : int ref;
  owner : int;  (* Simclock owner tag on the backoff retry timer *)
  use_ids : bool;
  framed : bool;
      (* negotiate v2 ("Reverso") framed streams: every control message
         carries the framing flag and the data socket parses preludes *)
  mutable next_req_id : int;
  mutable cur_req_id : int;  (* id of the in-flight request; 0 = v1 *)
  mutable ctrl : Socket.t;
  mutable data : Socket.t;
  mutable transfer : transfer option;
  mutable last_request : request_params option;
  mutable awaiting_probe : bool;  (* a CRC resume probe is outstanding *)
  mutable resume_target : (int * int) option;  (* (copy, offset) it guards *)
  mutable bytes_received : int;
  mutable replies_received : int;
  mutable errors : string list;
  mutable rejected : bool;
  mutable aborted : Socket.abort_reason option;
  ledger : M.ledger;
  mutable attempts : int;  (* attempts since the last fresh request *)
  mutable first_attempt_at : float option;
  mutable busy_failed : bool;
  mutable retry_timer : Simclock.timer option;
  mutable request_started_at : float option;
}

let reconnects t = M.count t.ledger s_reconnects
let resumes t = M.count t.ledger s_resumes
let busy_replies t = M.count t.ledger s_busy_replies
let retries t = M.count t.ledger s_retries

let error t fmt = Printf.ksprintf (fun s -> t.errors <- s :: t.errors) fmt

(* A private xorshift for retry jitter, seeded at creation so runs are
   reproducible. *)
let prng_next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  st := if x = 0 then 1 else x;
  !st

let prng_float st = float_of_int (prng_next st land 0xffffff) /. 16777216.0

(* Flight-recorder identity and timestamps: client events are keyed by
   the control socket's local port; unclocked clients stamp 0. *)
let rec_conn t = Socket.local_port t.ctrl

let rec_ts t =
  match t.clock with Some c -> Simclock.now c | None -> 0.0

let fresh_id t =
  let id = t.next_req_id in
  t.next_req_id <- id + 1;
  id

(* First incomplete (copy, received-bytes) pair — the resume point; [None]
   when every copy is fully received.  [received.(c)] is a verified
   contiguous prefix (enforced below), so it doubles as the offset. *)
let resume_point t =
  match t.transfer with
  | None -> None
  | Some tr ->
      let len = String.length tr.expected in
      let rec find c =
        if c >= tr.copies then None
        else if tr.received.(c) < len then Some (c, tr.received.(c))
        else find (c + 1)
      in
      find 0

let send_ctrl t body =
  let prepared = Engine.prepare_send_segments t.engine body in
  Socket.send_message t.ctrl ~len:prepared.Engine.len ~fill:prepared.Engine.fill

(* Every control message a framing-negotiated client sends carries the
   flag — the first one a (possibly restarted) server sees on a
   connection may be a request or a probe, and the server must know
   before building its first reply. *)
let ctrl_flags t = if t.framed then Messages.flag_rx_framing else 0

(* A from-scratch issue: resets the transfer state (the server will
   execute from byte zero).  Keeps [cur_req_id]: a retry of the same
   logical request carries the same idempotency id. *)
let issue t p =
  t.transfer <-
    Some
      { expected = p.req_expected;
        copies = p.req_copies;
        received = Array.make p.req_copies 0 };
  t.bytes_received <- 0;
  t.replies_received <- 0;
  t.rejected <- false;
  send_ctrl t
    (Messages.request_segments ~flags:(ctrl_flags t)
       (Messages.request ~req_id:t.cur_req_id ~file_name:p.name
          ~copies:p.req_copies ~max_reply:p.max_reply ()))

(* A Busy reply (or a full send window on a retry) backs off and re-issues
   the request: exponential backoff with jitter, bounded by attempts and a
   total deadline.  Past either bound the failure becomes typed
   [Server_busy] — never an untyped stall. *)
let rec schedule_retry t =
  match (t.clock, t.last_request) with
  | None, _ | _, None -> t.busy_failed <- true
  | Some clock, Some p ->
      let now = Simclock.now clock in
      let started =
        match t.first_attempt_at with
        | Some s -> s
        | None ->
            t.first_attempt_at <- Some now;
            now
      in
      if
        t.attempts >= t.retry.max_attempts
        || now -. started >= t.retry.deadline_us
      then t.busy_failed <- true
      else begin
        t.attempts <- t.attempts + 1;
        M.bump t.ledger s_retries 1;
        Recorder.note Recorder.Retry ~conn:(rec_conn t) ~arg:t.attempts ~ts:now;
        let backoff =
          min t.retry.max_backoff_us
            (t.retry.base_backoff_us
            *. (2.0 ** float_of_int (t.attempts - 1)))
        in
        let jitter = backoff *. 0.5 *. prng_float t.prng in
        t.retry_timer <-
          Some
            (Simclock.schedule clock ~owner:t.owner ~after:(backoff +. jitter)
               (fun () ->
                 t.retry_timer <- None;
                 if (not t.busy_failed) && t.aborted = None then
                   match issue t p with
                   | Ok () -> ()
                   | Error
                       ( Socket.Window_full | Socket.Buffer_full
                       | Socket.Not_established ) ->
                       schedule_retry t
                   | Error Socket.Message_too_big ->
                       error t "request does not fit one segment"))
      end

(* Resume the transfer at [(start_copy, start_offset)] under a fresh
   idempotency id — fresh because a resume is a new logical request: the
   previous id may be cached on the server, and a cached answer would be
   a data-less status, not the missing bytes. *)
let rec start_resume t ~start_copy ~start_offset =
  match t.last_request with
  | None -> Ok ()
  | Some p -> (
      t.cur_req_id <- (if t.use_ids then fresh_id t else 0);
      t.rejected <- false;
      match
        send_ctrl t
          (Messages.request_segments ~flags:(ctrl_flags t)
             (Messages.request ~req_id:t.cur_req_id ~start_copy ~start_offset
                ~file_name:p.name ~copies:p.req_copies ~max_reply:p.max_reply ()))
      with
      | Ok () ->
          M.bump t.ledger s_resumes 1;
          Recorder.note Recorder.Resume ~conn:(rec_conn t) ~arg:start_offset
            ~ts:(rec_ts t);
          Ok ()
      | Error
          ( Socket.Window_full | Socket.Buffer_full | Socket.Not_established )
        as e -> (
          match t.clock with
          | Some clock ->
              t.retry_timer <-
                Some
                  (Simclock.schedule clock ~owner:t.owner
                     ~after:t.retry.base_backoff_us (fun () ->
                       t.retry_timer <- None;
                       if t.aborted = None then
                         ignore (start_resume t ~start_copy ~start_offset)));
              Ok ()
          | None -> e)
      | Error Socket.Message_too_big as e ->
          error t "resume request does not fit one segment";
          e)

(* Allocation-free slice equality:
   [expected.[off..off+len-1] = data.[doff..doff+len-1]] without the
   [String.sub] the legacy compare paid per chunk.  Bounds are the
   caller's responsibility. *)
let slice_matches expected ~off data ~doff ~len =
  let rec go i =
    i = len
    || (String.unsafe_get expected (off + i) = String.unsafe_get data (doff + i)
       && go (i + 1))
  in
  go 0

(* Status dispatch shared by both data paths; the payload is the span
   [data.[doff..doff+dlen-1]] (a whole decoded string on the legacy path,
   a window into the pooled TSDU buffer on the single-copy path). *)
let consume_reply t hdr ~data ~doff ~dlen =
  match hdr.Messages.status with
  | Messages.Not_found | Messages.Refused ->
      t.awaiting_probe <- false;
      t.resume_target <- None;
      t.rejected <- true
  | Messages.Busy ->
      M.bump t.ledger s_busy_replies 1;
      schedule_retry t
  | Messages.Ok when dlen = 0 ->
      (* A data-less Ok is pure control: the verdict of an outstanding
         CRC resume probe, or a status-only answer (the server's dedup
         cache replaying an executed id, or a resume-at-EOF ack). *)
      if t.awaiting_probe then begin
        t.awaiting_probe <- false;
        match t.resume_target with
        | Some (c, off) ->
            (* Prefix verified against the restarted server's file:
               resume exactly there, never from byte zero. *)
            t.resume_target <- None;
            ignore (start_resume t ~start_copy:c ~start_offset:off)
        | None -> ()
      end
      else (
        (* A replayed id's cached status carries no data: whatever bytes
           that execution sent are gone.  Re-issue from the verified
           prefix under a fresh id (which cannot be cached, so it will
           execute). *)
        match resume_point t with
        | None -> ()  (* transfer already complete — nothing to redo *)
        | Some (c, off) -> ignore (start_resume t ~start_copy:c ~start_offset:off))
  | Messages.Ok -> (
      match t.transfer with
      | None -> error t "unsolicited reply"
      | Some tr ->
          let off = hdr.Messages.file_offset in
          let copy = hdr.Messages.copy in
          if copy < 0 || copy >= tr.copies then error t "bad copy index %d" copy
          else if off < 0 || off + dlen > String.length tr.expected then
            error t "reply out of bounds: offset %d len %d" off dlen
          else if off <> tr.received.(copy) then
            (* Strict contiguity: TCP delivers in order and the server
               sends each copy sequentially from the requested resume
               point, so any gap or overlap (e.g. a restarted server
               wrongly re-sending from byte zero) is a protocol error,
               not something to paper over. *)
            error t "non-contiguous reply: offset %d, expected %d (copy %d)"
              off tr.received.(copy) copy
          else if not (slice_matches tr.expected ~off data ~doff ~len:dlen) then
            error t "payload mismatch at offset %d (copy %d)" off copy
          else begin
            tr.received.(copy) <- tr.received.(copy) + dlen;
            t.bytes_received <- t.bytes_received + dlen;
            (* Transfer just completed: observe the end-to-end latency
               once, against the clock the request was issued under. *)
            let len = String.length tr.expected in
            if tr.received.(copy) = len then
              match (t.request_started_at, t.clock) with
              | Some started, Some clock
                when Array.for_all (fun n -> n = len) tr.received ->
                  t.request_started_at <- None;
                  M.observe m_latency
                    (int_of_float (Simclock.now clock -. started))
              | _ -> ()
          end)

let handle_reply t ~len =
  t.replies_received <- t.replies_received + 1;
  let length_at_end = Engine.header_style t.engine = Engine.Trailer in
  match Engine.data_path t.engine with
  | Engine.Legacy -> (
      match Engine.read_plaintext t.engine ~len with
      | Error e -> error t "unreadable reply: %s" e
      | Ok plaintext -> (
          match Messages.decode_reply ~length_at_end plaintext with
          | Error e -> error t "undecodable reply: %s" e
          | Ok (hdr, data) ->
              consume_reply t hdr ~data ~doff:0 ~dlen:(String.length data)))
  | Engine.Pooled -> (
      (* Single-copy: the TSDU lands in a pooled buffer, the reply is
         decoded in place, the payload compared in place, and the buffer
         released on every path — including decode errors. *)
      match Engine.read_plaintext_pooled t.engine ~len with
      | Error e -> error t "unreadable reply: %s" e
      | Ok (buf, plen) ->
          (match Messages.decode_reply_view ~length_at_end buf ~len:plen with
          | Error e -> error t "undecodable reply: %s" e
          | Ok (hdr, data_off) ->
              consume_reply t hdr
                ~data:(Bytes.unsafe_to_string buf)
                ~doff:data_off ~dlen:hdr.Messages.data_len);
          Engine.release_plaintext t.engine buf)

(* Both connections feed the same failure slot: losing either one ends the
   transfer, and the first recorded reason is the one reported. *)
let wire_sockets t =
  (match Engine.rx_style t.engine with
  | Engine.Rx_integrated_style f -> Socket.set_rx_processing t.data (Socket.Rx_integrated f)
  | Engine.Rx_deferred_style f -> Socket.set_rx_processing t.data (Socket.Rx_separate f));
  (* Covers reconnection too: a fresh data socket must parse preludes
     from its very first reply. *)
  Socket.set_rx_framing t.data t.framed;
  Socket.set_on_message t.data (fun ~src:_ ~len -> handle_reply t ~len);
  let record reason =
    if t.aborted = None then t.aborted <- Some reason;
    (* The transfer is over on this socket pair: a pending backoff retry
       would only re-issue into a dead connection. *)
    Option.iter Simclock.cancel t.retry_timer;
    t.retry_timer <- None
  in
  Socket.set_on_abort t.ctrl record;
  Socket.set_on_abort t.data record

let create ?clock ?(retry = default_retry) ?(seed = 1) ?(idempotent = false)
    ?(framed = false) ~engine ~ctrl ~data () =
  let t =
    { engine;
      clock;
      retry;
      prng = ref (((seed * 0x9e3779b1) lxor 0x2545f491) lor 1);
      owner =
        (match clock with
        | Some c -> Simclock.fresh_owner c
        | None -> Simclock.anonymous);
      use_ids = idempotent;
      framed;
      (* Nonzero, and disjoint between clients created with distinct
         seeds — the dedup cache is keyed on the id alone. *)
      next_req_id = ((seed land 0x3ff) * 0x100000) + 1;
      cur_req_id = 0;
      ctrl;
      data;
      transfer = None;
      last_request = None;
      awaiting_probe = false;
      resume_target = None;
      bytes_received = 0;
      replies_received = 0;
      errors = [];
      rejected = false;
      aborted = None;
      ledger = M.ledger family;
      attempts = 0;
      first_attempt_at = None;
      busy_failed = false;
      retry_timer = None;
      request_started_at = None }
  in
  wire_sockets t;
  t

let request_file t ~name ~copies ~max_reply ~expected =
  let p = { name; req_copies = copies; max_reply; req_expected = expected } in
  t.last_request <- Some p;
  t.attempts <- 0;
  t.first_attempt_at <- None;
  t.busy_failed <- false;
  t.awaiting_probe <- false;
  t.resume_target <- None;
  t.cur_req_id <- (if t.use_ids then fresh_id t else 0);
  t.request_started_at <-
    (match t.clock with Some c -> Some (Simclock.now c) | None -> None);
  issue t p

let reconnect t ~ctrl ~data =
  t.ctrl <- ctrl;
  t.data <- data;
  wire_sockets t;
  Option.iter Simclock.cancel t.retry_timer;
  t.retry_timer <- None;
  t.aborted <- None;
  t.errors <- [];
  t.awaiting_probe <- false;
  t.resume_target <- None;
  (* A new connection epoch gets a fresh retry budget; [retries] keeps
     the cumulative count for the summary. *)
  t.attempts <- 0;
  t.first_attempt_at <- None;
  t.busy_failed <- false;
  M.bump t.ledger s_reconnects 1;
  Recorder.note Recorder.Reconnect ~conn:(rec_conn t) ~arg:(reconnects t)
    ~ts:(rec_ts t);
  let summary resumed_from =
    { resumed_from;
      bytes_verified = t.bytes_received;
      retries_consumed = retries t }
  in
  match t.last_request with
  | None -> Ok (summary None)
  | Some p -> (
      match resume_point t with
      | None ->
          (* Every copy already verified: nothing to re-issue. *)
          Ok (summary None)
      | Some (0, 0) -> (
          (* Nothing received yet.  Re-issue under the SAME id: if the
             lost server had already executed it, the restarted one
             answers from the dedup cache (a data-less Ok) and the
             client then resumes under a fresh id; if not, it simply
             executes. *)
          match issue t p with
          | Ok () -> Ok (summary None)
          | Error _ as e -> e)
      | Some (c, 0) -> (
          (* Crash landed exactly on a copy boundary: no partial prefix
             to verify, resume directly. *)
          match start_resume t ~start_copy:c ~start_offset:0 with
          | Ok () -> Ok (summary (Some (c, 0)))
          | Error _ as e -> e)
      | Some (c, off) -> (
          (* Verify the received prefix against the (possibly restarted)
             server's file before resuming mid-copy: probe with the
             prefix CRC; the verdict arrives as a data-less reply and
             triggers the resume request. *)
          t.awaiting_probe <- true;
          t.resume_target <- Some (c, off);
          let crc =
            Ilp_checksum.Crc32.finish
              (Ilp_checksum.Crc32.fold_string ~crc:Ilp_checksum.Crc32.init
                 p.req_expected ~off:0 ~len:off)
          in
          let probe =
            { Messages.p_file_name = p.name;
              p_offset = off;
              p_crc = crc;
              p_req_id = (if t.use_ids then fresh_id t else 0) }
          in
          match send_ctrl t (Messages.probe_segments ~flags:(ctrl_flags t) probe) with
          | Ok () -> Ok (summary (Some (c, off)))
          | Error _ as e ->
              t.awaiting_probe <- false;
              t.resume_target <- None;
              e))

let transfer_complete t =
  match t.transfer with
  | None -> false
  | Some tr ->
      (not t.rejected)
      && (not t.busy_failed)
      && t.errors = []
      && t.aborted = None
      && Array.for_all (fun n -> n = String.length tr.expected) tr.received

let failure t =
  match t.aborted with
  | Some r -> Some (Aborted r)
  | None ->
      if t.busy_failed then Some Server_busy
      else
        match List.rev t.errors with [] -> None | e :: _ -> Some (Protocol e)

let bytes_received t = t.bytes_received
let replies_received t = t.replies_received
let errors t = List.rev t.errors
let rejected t = t.rejected
let timer_owner t = t.owner
