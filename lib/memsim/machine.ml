(* What [exec] remembers about one code region: the L1I tag of each of
   its lines, computed once, and the way each line was last found in or
   filled into ([-1] before its first fetch). *)
type memo = { first : int; tags : int array; ways : int array }

(* Keyed by address and length: one region reached through two
   allocators shares a memo, and every field of the key is immutable. *)
module Memos = Hashtbl.Make (struct
  type t = Code.region

  let equal (a : t) (b : t) = a.Code.base = b.Code.base && a.Code.len = b.Code.len
  let hash (r : t) = ((r.Code.base lsr 6) + (r.Code.len * 65599)) land max_int
end)

type t = {
  cfg : Config.t;
  l1d_write_through : bool;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t option;
  stats : Stats.t;
  (* [cycles; stall; ifetch_stall] — a flat float array is unboxed, so
     charging cycles on the per-byte hot path allocates nothing, where a
     [mutable ... : float] record field boxes every update. *)
  counters : float array;
  l1_hit_cycles : float;
  l2_hit_cycles : float;
  mem_cycles : float;
  store_buffer_cycles : float;
  compute_scale : float;
  memos : memo Memos.t;
}

let create cfg =
  { cfg;
    l1d_write_through =
      cfg.Config.l1d.Cache.write_policy = Cache.Write_through;
    l1d = Cache.create cfg.Config.l1d;
    l1i = Cache.create cfg.Config.l1i;
    l2 = Option.map Cache.create cfg.Config.l2;
    stats = Stats.create ();
    counters = Array.make 3 0.0;
    l1_hit_cycles = float_of_int (Config.l1_hit_cycles cfg);
    l2_hit_cycles = float_of_int (Config.l2_hit_cycles cfg);
    mem_cycles = float_of_int (Config.mem_cycles cfg);
    store_buffer_cycles = float_of_int (Config.store_buffer_cycles cfg);
    compute_scale = cfg.Config.compute_scale;
    memos = Memos.create 64 }

let config t = t.cfg

(* Cost of reaching below the first-level cache: either an L2 access (with
   its own possible miss to memory) or memory directly.  [kind]/[size] are
   only used to attribute second-level misses in the ledger. *)
let charge_stall t kind c =
  let ctr = t.counters in
  ctr.(0) <- ctr.(0) +. c;
  ctr.(1) <- ctr.(1) +. c;
  if kind = Stats.Ifetch then ctr.(2) <- ctr.(2) +. c

(* Write-buffer drain cost for a [size]-byte store.  Computed and charged
   inside one function: a float computed at a call site is boxed to be
   passed as an argument, and on a write-through cache this runs for every
   simulated store. *)
let charge_store_drain t size =
  let c = t.store_buffer_cycles *. float_of_int size /. 4.0 in
  let ctr = t.counters in
  ctr.(0) <- ctr.(0) +. c;
  ctr.(1) <- ctr.(1) +. c

let below_l1 t kind ~size ~addr ~write =
  match t.l2 with
  | None -> charge_stall t kind t.mem_cycles
  | Some l2 ->
      let o = Cache.access l2 ~addr ~write in
      if (Cache.hit o) then charge_stall t kind t.l2_hit_cycles
      else begin
        Stats.record_miss t.stats kind ~size ~level:2;
        charge_stall t kind t.mem_cycles;
        if (Cache.writeback o) then charge_stall t kind t.mem_cycles
      end

(* One first-level line touch of a [size]-byte access, fully charged;
   returns the L1 outcome. *)
let data_line t kind ~size ~write a =
  let o = Cache.access t.l1d ~addr:a ~write in
  if Cache.hit o then charge_stall t kind t.l1_hit_cycles
  else begin
    Stats.record_miss t.stats kind ~size ~level:1;
    if write && not (Cache.filled o) then
      (* Store-around: the drain charge in [data_access] covers it. *)
      (if not t.l1d_write_through then charge_store_drain t size)
    else begin
      below_l1 t kind ~size ~addr:a ~write:false;
      if Cache.writeback o then below_l1 t Stats.Write ~size ~addr:a ~write:true
    end
  end;
  o

(* Returned by [data_access] for an access that straddles lines: it has no
   single outcome, so {!copy} never replays from it. *)
let straddled = -1

let data_access t kind ~addr ~size =
  Stats.record_access t.stats kind ~size;
  let write = kind = Stats.Write in
  (* In a write-through cache every store drains through the write buffer
     whether it hits or misses; the buffer merges consecutive stores to a
     line, so the amortised cost scales with the bytes written
     (store_buffer_ns is the drain cost of a 4-byte store).  A store miss
     is additionally counted in the ledger — that is the quantity the
     paper's cachesim reports — but a byte-wise store stream is only
     marginally slower than a word-wise one, not 4x. *)
  if write && t.l1d_write_through then charge_store_drain t size;
  let line = Cache.line_size t.l1d in
  let first = addr land lnot (line - 1) in
  let last = (addr + size - 1) land lnot (line - 1) in
  if first = last then data_line t kind ~size ~write first
  else begin
    (* A [for] loop, not a [ref] cursor: this runs for every simulated
       access and a ref cell is a minor-heap allocation per call. *)
    for j = 0 to (last - first) / line do
      ignore (data_line t kind ~size ~write (first + (j * line)))
    done;
    straddled
  end

let read t ~addr ~size = ignore (data_access t Stats.Read ~addr ~size)
let write t ~addr ~size = ignore (data_access t Stats.Write ~addr ~size)

(* One instruction line looked up in full: the L1I search and, on a
   miss, the fill from below.  Returns the way the line now occupies.
   The access itself is counted by the caller. *)
let fill_line t a =
  let o = Cache.access t.l1i ~addr:a ~write:false in
  if not (Cache.hit o) then begin
    Stats.record_miss t.stats Stats.Ifetch ~size:4 ~level:1;
    below_l1 t Stats.Ifetch ~size:4 ~addr:a ~write:false
  end;
  Cache.way o

let fetch_line t ~addr =
  Stats.record_access t.stats Stats.Ifetch ~size:4;
  ignore (fill_line t (addr land lnot (Cache.line_size t.l1i - 1)))

let memo_of t (region : Code.region) =
  let line = Cache.line_size t.l1i in
  let first = region.Code.base land lnot (line - 1) in
  let last = (region.Code.base + region.Code.len - 1) land lnot (line - 1) in
  let n = ((last - first) / line) + 1 in
  let memo =
    { first;
      tags = Array.init n (fun j -> Cache.tag t.l1i ~addr:(first + (j * line)));
      ways = Array.make n (-1) }
  in
  Memos.add t.memos region memo;
  memo

(* Lines [j..] of [memo] in order: each run of lines still in their
   memoized ways is replayed as read hits by [Cache.rehit], which charge
   nothing; the line that ends a run takes the full path and records the
   way it now occupies.  Misses thus run in line order, so the cycle
   charges add up in their original order: the result is bit for bit
   that of [fetch_line] on every line. *)
let rec settle t memo ~line j =
  let j = Cache.rehit t.l1i ~tags:memo.tags ~ways:memo.ways j in
  if j < Array.length memo.tags then begin
    memo.ways.(j) <- fill_line t (memo.first + (j * line));
    settle t memo ~line (j + 1)
  end

let exec t (region : Code.region) =
  if region.Code.len > 0 then begin
    let memo = try Memos.find t.memos region with Not_found -> memo_of t region in
    Stats.add_accesses t.stats Stats.Ifetch ~size:4 (Array.length memo.tags);
    settle t memo ~line:(Cache.line_size t.l1i) 0
  end

let compute t ops =
  if ops > 0 then
    t.counters.(0) <- t.counters.(0) +. (float_of_int ops *. t.compute_scale)

(* Units of [size] bytes that still fit in [addr]'s line after the one
   at [addr]. *)
let room ~line ~size addr =
  ((addr land lnot (line - 1)) + line - addr - size) / size

(* [times] more copy pairs, each exactly as the pair just simulated: the
   read hits way [way r]; the write repeats [w], a hit or a store-around
   miss.  The ledger and the LRU state take bulk updates; the cycle
   counters take the per-pair float additions one by one in their
   original order, since float addition does not reassociate. *)
let replay t ~size ~r ~w ~times =
  Stats.add_accesses t.stats Stats.Read ~size times;
  Stats.add_accesses t.stats Stats.Write ~size times;
  let w_hit = Cache.hit w in
  if not w_hit then Stats.add_misses t.stats Stats.Write ~size ~level:1 times;
  Cache.retouch t.l1d ~first:(Cache.way r)
    ~second:(if w_hit then Cache.way w else -1) ~times;
  let wt = t.l1d_write_through in
  let hit_c = t.l1_hit_cycles in
  let drain = t.store_buffer_cycles *. float_of_int size /. 4.0 in
  let ctr = t.counters in
  for _ = 1 to times do
    ctr.(0) <- ctr.(0) +. hit_c;
    ctr.(1) <- ctr.(1) +. hit_c;
    if wt then begin
      ctr.(0) <- ctr.(0) +. drain;
      ctr.(1) <- ctr.(1) +. drain
    end;
    if w_hit then begin
      ctr.(0) <- ctr.(0) +. hit_c;
      ctr.(1) <- ctr.(1) +. hit_c
    end
    else if not wt then begin
      ctr.(0) <- ctr.(0) +. drain;
      ctr.(1) <- ctr.(1) +. drain
    end;
    ctr.(0) <- ctr.(0) +. t.compute_scale (* [compute t 1] *)
  done

(* Copy pairs [i, n) of [size]-byte units.  Pair [i] is simulated in
   full.  If its read and its write each stayed in one line and the write
   allocated nothing, no line can enter or leave the cache until the copy
   crosses into another line: every later pair there hits on the read and
   repeats the write's outcome, so those pairs are replayed. *)
let rec copy_units t ~src ~dst ~size ~line i n =
  if i < n then begin
    let s = src + (i * size) and d = dst + (i * size) in
    let r = data_access t Stats.Read ~addr:s ~size in
    let w = data_access t Stats.Write ~addr:d ~size in
    compute t 1;
    let times =
      if r = straddled || w = straddled || Cache.filled w then 0
      else min (n - i - 1) (min (room ~line ~size s) (room ~line ~size d))
    in
    if times > 0 then replay t ~size ~r ~w ~times;
    copy_units t ~src ~dst ~size ~line (i + 1 + times) n
  end

let copy t ~src ~dst ~len ~unit_len =
  let line = Cache.line_size t.l1d in
  let full = len / unit_len in
  copy_units t ~src ~dst ~size:unit_len ~line 0 full;
  let tail = full * unit_len in
  copy_units t ~src:(src + tail) ~dst:(dst + tail) ~size:1 ~line 0 (len - tail)

let charge_cycles t c = t.counters.(0) <- t.counters.(0) +. c

let charge_micros t us =
  if us <> 0.0 then
    t.counters.(0) <- t.counters.(0) +. (us *. t.cfg.Config.clock_mhz)

let cycles t = t.counters.(0)
let stall_cycles t = t.counters.(1)
let ifetch_stall_cycles t = t.counters.(2)
let stall_micros t = t.counters.(1) /. t.cfg.Config.clock_mhz
let micros t = t.counters.(0) /. t.cfg.Config.clock_mhz
let stats t = t.stats

let reset_counters t =
  Array.fill t.counters 0 3 0.0;
  Stats.reset t.stats

let flush_caches t =
  Cache.flush t.l1d;
  Cache.flush t.l1i;
  Option.iter Cache.flush t.l2
