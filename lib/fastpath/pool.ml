(* Size-classed reusable buffer pool.  Free lists hold power-of-two-sized
   Bytes values; acquire rounds the request up to its class and reuses a
   free buffer when one is available, falling back to a fresh allocation
   when the class is empty (pool exhaustion is a performance event, never
   a failure).  Release returns a buffer to its class, dropping it to the
   GC when the class is already at capacity.  The acquired/released
   counters make leak assertions one subtraction. *)

module M = Ilp_obs.Metrics

(* Each pool's counts live in its ledger; the registry counters sum them
   over all pools. *)
let family = M.family M.default
let s_acquired = M.slot family "pool.acquired"
let s_released = M.slot family "pool.released"
let s_fresh = M.slot family "pool.fresh_allocs"
let s_dropped = M.slot family "pool.dropped"
let m_acquire_bytes = M.histogram M.default "pool.acquire_bytes"

let min_size = 64
let n_classes = 19 (* 64 B .. 16 MiB *)

let max_size = min_size lsl (n_classes - 1)

type stats = {
  acquired : int;
  released : int;
  outstanding : int;
  fresh_allocs : int;  (* acquires the free lists could not serve *)
  dropped : int;  (* releases past class capacity (or oversized) *)
}

type t = {
  free : Bytes.t list array;
  counts : int array;
  class_cap : int;
  ledger : M.ledger;
}

let create ?(class_cap = 8) () =
  if class_cap < 0 then invalid_arg "Pool.create: class_cap must be >= 0";
  { free = Array.make n_classes [];
    counts = Array.make n_classes 0;
    class_cap;
    ledger = M.ledger family }

let class_size i = min_size lsl i

(* Smallest class holding [len] bytes. *)
let class_index len =
  let rec go i = if class_size i >= len || i = n_classes - 1 then i else go (i + 1) in
  go 0

let fresh t len =
  M.bump t.ledger s_fresh 1;
  Memtraffic.alloc Memtraffic.Pool len;
  Bytes.create len

let acquire t len =
  if len < 0 then invalid_arg "Pool.acquire: negative length";
  M.bump t.ledger s_acquired 1;
  M.observe m_acquire_bytes len;
  if len > max_size then fresh t len
  else
    let i = class_index len in
    match t.free.(i) with
    | b :: rest ->
        t.free.(i) <- rest;
        t.counts.(i) <- t.counts.(i) - 1;
        b
    | [] -> fresh t (class_size i)

let release t b =
  M.bump t.ledger s_released 1;
  let n = Bytes.length b in
  if n < min_size || n > max_size then M.bump t.ledger s_dropped 1
  else
    let i = class_index n in
    (* Only exact class-sized buffers rejoin a free list: an odd-sized
       stranger would silently shrink the class's capacity guarantee. *)
    if n <> class_size i || t.counts.(i) >= t.class_cap then
      M.bump t.ledger s_dropped 1
    else begin
      t.free.(i) <- b :: t.free.(i);
      t.counts.(i) <- t.counts.(i) + 1
    end

let outstanding t = M.count t.ledger s_acquired - M.count t.ledger s_released

let stats t =
  { acquired = M.count t.ledger s_acquired;
    released = M.count t.ledger s_released;
    outstanding = outstanding t;
    fresh_allocs = M.count t.ledger s_fresh;
    dropped = M.count t.ledger s_dropped }
