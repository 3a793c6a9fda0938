type write_policy = Write_back | Write_through

type config = {
  size : int;
  line : int;
  assoc : int;
  write_policy : write_policy;
  write_allocate : bool;
}

let direct_mapped ~size ~line =
  { size; line; assoc = 1; write_policy = Write_back; write_allocate = true }

let set_associative ~size ~line ~assoc =
  { size; line; assoc; write_policy = Write_back; write_allocate = true }

type t = {
  cfg : config;
  sets : int;
  line_shift : int;
  (* Way state, indexed [set * assoc + way]. *)
  tags : int array;
  valid : bool array;
  dirty : bool array;
  age : int array; (* larger = more recently used *)
  mutable tick : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  if not (is_power_of_two cfg.line) then invalid_arg "Cache.create: line size";
  if cfg.assoc < 1 then invalid_arg "Cache.create: associativity";
  if cfg.size mod (cfg.line * cfg.assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let sets = cfg.size / (cfg.line * cfg.assoc) in
  let ways = sets * cfg.assoc in
  { cfg;
    sets;
    line_shift = log2 cfg.line;
    tags = Array.make ways 0;
    valid = Array.make ways false;
    dirty = Array.make ways false;
    age = Array.make ways 0;
    tick = 0 }

let config t = t.cfg

(* Outcomes are packed into an int so that [access] — the innermost loop
   of every simulated byte — allocates nothing.  A record here costs one
   minor-heap block per cache-line touch, which at ~19M words per 64 KiB
   message drowns the data-path allocation signal the memory-traffic
   benchmark exists to measure. *)
type outcome = int

let hit_bit = 1
let writeback_bit = 2
let filled_bit = 4
(* Above the three flags: the index of the way the access touched. *)
let way_shift = 3
let hit (o : outcome) = o land hit_bit <> 0
let writeback (o : outcome) = o land writeback_bit <> 0
let filled (o : outcome) = o land filled_bit <> 0
let way (o : outcome) = o lsr way_shift

(* No tuples, options or refs below: [access] runs once per cache line of
   every simulated byte, so its helpers return plain ints ([find_way]
   yields -1 for "not resident"). *)

let locate_set t addr = (addr lsr t.line_shift) mod t.sets
let locate_tag t addr = (addr lsr t.line_shift) / t.sets

(* The lookup loops recurse through top-level functions: a [let rec]
   nested inside a function captures its environment and allocates a
   closure on every call. *)

let rec find_from valid tags base tag assoc w =
  if w = assoc then -1
  else if valid.(base + w) && tags.(base + w) = tag then base + w
  else find_from valid tags base tag assoc (w + 1)

let find_way t set tag =
  find_from t.valid t.tags (set * t.cfg.assoc) tag t.cfg.assoc 0

(* Victim selection: an invalid way if any, otherwise the least recently
   used one. *)
let rec victim_from valid age base assoc w best best_key =
  if w = assoc then best
  else
    let i = base + w in
    let key = if valid.(i) then age.(i) else min_int + w in
    if key < best_key then victim_from valid age base assoc (w + 1) i key
    else victim_from valid age base assoc (w + 1) best best_key

let victim_way t set =
  let base = set * t.cfg.assoc in
  victim_from t.valid t.age base t.cfg.assoc 0 base max_int

let touch t i =
  t.tick <- t.tick + 1;
  t.age.(i) <- t.tick

let access t ~addr ~write =
  let set = locate_set t addr in
  let tag = locate_tag t addr in
  let i = find_way t set tag in
  if i >= 0 then begin
    touch t i;
    if write then begin
      match t.cfg.write_policy with
      | Write_back -> t.dirty.(i) <- true
      | Write_through -> ()
    end;
    (i lsl way_shift) lor hit_bit
  end
  else if write && not t.cfg.write_allocate then
    (* Store-around: the write goes straight to the next level. *)
    0
  else begin
    let i = victim_way t set in
    let wb = t.valid.(i) && t.dirty.(i) in
    t.tags.(i) <- tag;
    t.valid.(i) <- true;
    t.dirty.(i) <- (write && t.cfg.write_policy = Write_back);
    touch t i;
    (i lsl way_shift) lor (if wb then writeback_bit lor filled_bit else filled_bit)
  end

(* [n] touches of [first] then [second] in turn leave exactly these ages:
   the tick advances once per touch and only each way's last touch shows. *)
let retouch t ~first ~second ~times =
  if second < 0 then begin
    t.tick <- t.tick + times;
    t.age.(first) <- t.tick
  end
  else begin
    t.tick <- t.tick + (2 * times);
    t.age.(first) <- t.tick - 1;
    t.age.(second) <- t.tick
  end

let present t ~addr = find_way t (locate_set t addr) (locate_tag t addr) >= 0

let flush t =
  Array.fill t.valid 0 (Array.length t.valid) false;
  Array.fill t.dirty 0 (Array.length t.dirty) false

let line_size t = t.cfg.line
