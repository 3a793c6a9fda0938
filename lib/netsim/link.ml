(* A small deterministic splitmix64-style generator so that impairment
   patterns are reproducible across runs and platforms. *)
module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int (seed lxor 0x9e3779b9) }

  let next t =
    t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform float in [0, 1). *)
  let float t =
    let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
    float_of_int bits /. 9007199254740992.0

  (* Uniform int in [0, bound). *)
  let int t bound = int_of_float (float t *. float_of_int bound)
end

(* Each link's counts live in its ledger; the registry counters sum them
   over all links. *)
module M = Ilp_obs.Metrics

let family = M.family M.default
let s_sent = M.slot family "link.sent"
let s_delivered = M.slot family "link.delivered"
let s_dropped = M.slot family "link.dropped"
let s_duplicated = M.slot family "link.duplicated"
let s_corrupted = M.slot family "link.corrupted"
let s_truncated = M.slot family "link.truncated"
let s_padded = M.slot family "link.padded"
let s_burst_dropped = M.slot family "link.burst_dropped"
let s_delay_spikes = M.slot family "link.delay_spikes"
let s_tampered = M.slot family "link.tampered"

type gilbert = {
  p_enter_bad : float;  (* per-packet P(good -> bad) *)
  p_exit_bad : float;   (* per-packet P(bad -> good) *)
  loss_in_bad : float;  (* per-packet loss probability while in bad state *)
}

type impairments = {
  delay_us : float;
  jitter_us : float;
  loss_rate : float;
  dup_rate : float;
  corrupt_rate : float;
  corrupt_bits : int;
  truncate_rate : float;
  pad_rate : float;
  pad_max : int;
  delay_spike_rate : float;
  delay_spike_us : float;
  gilbert : gilbert option;
}

let fault_free =
  { delay_us = 50.0; jitter_us = 0.0; loss_rate = 0.0; dup_rate = 0.0;
    corrupt_rate = 0.0; corrupt_bits = 1; truncate_rate = 0.0;
    pad_rate = 0.0; pad_max = 0; delay_spike_rate = 0.0;
    delay_spike_us = 0.0; gilbert = None }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  truncated : int;
  padded : int;
  burst_dropped : int;
  delay_spikes : int;
  tampered : int;
}

type t = {
  clock : Simclock.t;
  imp : impairments;
  prng : Prng.t;
  deliver : Datagram.t -> unit;
  impair_only : Datagram.t -> bool;
  tamper : (Datagram.t -> Datagram.t list) option;
  mutable in_bad_state : bool;
  ledger : M.ledger;
}

let check_rate name r =
  if r < 0.0 || r > 1.0 then invalid_arg ("Link.create: " ^ name)

let validate imp =
  check_rate "loss_rate" imp.loss_rate;
  check_rate "dup_rate" imp.dup_rate;
  check_rate "corrupt_rate" imp.corrupt_rate;
  check_rate "truncate_rate" imp.truncate_rate;
  check_rate "pad_rate" imp.pad_rate;
  check_rate "delay_spike_rate" imp.delay_spike_rate;
  if imp.corrupt_bits < 1 then invalid_arg "Link.create: corrupt_bits";
  if imp.pad_max < 0 then invalid_arg "Link.create: pad_max";
  (match imp.gilbert with
  | None -> ()
  | Some g ->
      check_rate "gilbert.p_enter_bad" g.p_enter_bad;
      check_rate "gilbert.p_exit_bad" g.p_exit_bad;
      check_rate "gilbert.loss_in_bad" g.loss_in_bad)

let create clock ?(delay_us = 50.0) ?(jitter_us = 0.0) ?(loss_rate = 0.0)
    ?(dup_rate = 0.0) ?(seed = 42) ?impairments
    ?(impair_only = fun _ -> true) ?tamper ~deliver () =
  let imp =
    match impairments with
    | Some imp -> imp
    | None -> { fault_free with delay_us; jitter_us; loss_rate; dup_rate }
  in
  validate imp;
  { clock; imp; prng = Prng.create seed; deliver; impair_only; tamper;
    in_bad_state = false; ledger = M.ledger family }

(* Flip [bits] randomly chosen bits of the payload.  A one-bit flip is
   always caught by the Internet checksum; multi-bit flips can collide. *)
let corrupt_payload t payload bits =
  let b = Bytes.of_string payload in
  let len = Bytes.length b in
  for _ = 1 to bits do
    let bit = Prng.int t.prng (len * 8) in
    let byte = bit lsr 3 in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit land 7))))
  done;
  Bytes.to_string b

(* Mutate the wire bytes according to the impairment draws.  Draw order is
   fixed (corrupt, truncate, pad) so a given seed produces one trace. *)
let mangle t payload =
  let imp = t.imp in
  let payload =
    if imp.corrupt_rate > 0.0 && String.length payload > 0
       && Prng.float t.prng < imp.corrupt_rate then begin
      M.bump t.ledger s_corrupted 1;
      corrupt_payload t payload imp.corrupt_bits
    end
    else payload
  in
  let payload =
    if imp.truncate_rate > 0.0 && String.length payload > 0
       && Prng.float t.prng < imp.truncate_rate then begin
      M.bump t.ledger s_truncated 1;
      String.sub payload 0 (Prng.int t.prng (String.length payload))
    end
    else payload
  in
  if imp.pad_rate > 0.0 && imp.pad_max > 0
     && Prng.float t.prng < imp.pad_rate then begin
    M.bump t.ledger s_padded 1;
    let extra = 1 + Prng.int t.prng imp.pad_max in
    payload ^ String.init extra (fun _ -> Char.chr (Int64.to_int (Prng.next t.prng) land 0xff))
  end
  else payload

(* Two-state Gilbert-Elliott channel: returns true when the burst model
   drops this packet.  State transitions are drawn per packet. *)
let gilbert_drops t =
  match t.imp.gilbert with
  | None -> false
  | Some g ->
      if t.in_bad_state then begin
        if Prng.float t.prng < g.p_exit_bad then t.in_bad_state <- false
      end
      else if Prng.float t.prng < g.p_enter_bad then t.in_bad_state <- true;
      t.in_bad_state && Prng.float t.prng < g.loss_in_bad

let enqueue t dgram =
  let imp = t.imp in
  let extra =
    if imp.jitter_us > 0.0 then Prng.float t.prng *. imp.jitter_us else 0.0
  in
  let extra =
    if imp.delay_spike_rate > 0.0 && Prng.float t.prng < imp.delay_spike_rate
    then begin
      M.bump t.ledger s_delay_spikes 1;
      extra +. imp.delay_spike_us
    end
    else extra
  in
  ignore
    (Simclock.schedule t.clock ~after:(imp.delay_us +. extra) (fun () ->
         M.bump t.ledger s_delivered 1;
         t.deliver dgram))

(* Run one datagram through the impairment pipeline.  Datagrams outside
   [impair_only]'s scope skip every draw (so a direction filter leaves
   the seeded random stream of the impaired direction untouched) and are
   delivered after the base delay. *)
let send_one t dgram =
  if not (t.impair_only dgram) then
    ignore
      (Simclock.schedule t.clock ~after:t.imp.delay_us (fun () ->
           M.bump t.ledger s_delivered 1;
           t.deliver dgram))
  else if t.imp.loss_rate > 0.0 && Prng.float t.prng < t.imp.loss_rate then
    M.bump t.ledger s_dropped 1
  else if gilbert_drops t then begin
    M.bump t.ledger s_dropped 1;
    M.bump t.ledger s_burst_dropped 1
  end
  else begin
    let payload = mangle t dgram.Datagram.payload in
    let dgram =
      if payload == dgram.Datagram.payload then dgram
      else { dgram with Datagram.payload }
    in
    enqueue t dgram;
    if t.imp.dup_rate > 0.0 && Prng.float t.prng < t.imp.dup_rate then begin
      M.bump t.ledger s_duplicated 1;
      enqueue t dgram
    end
  end

let send t dgram =
  M.bump t.ledger s_sent 1;
  match t.tamper with
  | None -> send_one t dgram
  | Some f ->
      (* The tamper hook is a lying peer's NIC, not the wire: it runs
         before any impairment, may rewrite, drop ([]) or inject extra
         datagrams, and each of its outputs then takes the normal
         impairment path.  Only actual rewrites count as tampering. *)
      let out = f dgram in
      (match out with
      | [ d ] when d == dgram -> ()
      | _ -> M.bump t.ledger s_tampered 1);
      List.iter (send_one t) out

let sent t = M.count t.ledger s_sent
let delivered t = M.count t.ledger s_delivered
let dropped t = M.count t.ledger s_dropped
let duplicated t = M.count t.ledger s_duplicated

let stats t =
  let n = M.count t.ledger in
  { sent = n s_sent; delivered = n s_delivered; dropped = n s_dropped;
    duplicated = n s_duplicated; corrupted = n s_corrupted;
    truncated = n s_truncated; padded = n s_padded;
    burst_dropped = n s_burst_dropped; delay_spikes = n s_delay_spikes;
    tampered = n s_tampered }

let add_stats a b =
  { sent = a.sent + b.sent; delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped; duplicated = a.duplicated + b.duplicated;
    corrupted = a.corrupted + b.corrupted; truncated = a.truncated + b.truncated;
    padded = a.padded + b.padded; burst_dropped = a.burst_dropped + b.burst_dropped;
    delay_spikes = a.delay_spikes + b.delay_spikes;
    tampered = a.tampered + b.tampered }

let zero_stats =
  { sent = 0; delivered = 0; dropped = 0; duplicated = 0; corrupted = 0;
    truncated = 0; padded = 0; burst_dropped = 0; delay_spikes = 0;
    tampered = 0 }
