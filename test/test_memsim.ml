(* Unit and property tests for the memory-hierarchy simulator. *)

open Ilp_memsim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counting () =
  let s = Stats.create () in
  Stats.record_access s Stats.Read ~size:4;
  Stats.record_access s Stats.Read ~size:4;
  Stats.record_access s Stats.Read ~size:1;
  Stats.record_access s Stats.Write ~size:8;
  check "reads" 3 (Stats.accesses s Stats.Read);
  check "writes" 1 (Stats.accesses s Stats.Write);
  check "reads of size 4" 2 (Stats.accesses_of_size s Stats.Read ~size:4);
  check "reads of size 1" 1 (Stats.accesses_of_size s Stats.Read ~size:1);
  check "read bytes" 9 (Stats.bytes s Stats.Read);
  check "write bytes" 8 (Stats.bytes s Stats.Write)

let test_stats_misses () =
  let s = Stats.create () in
  Stats.record_access s Stats.Write ~size:1;
  Stats.record_miss s Stats.Write ~size:1 ~level:1;
  Stats.record_miss s Stats.Write ~size:1 ~level:2;
  check "level 1" 1 (Stats.misses s Stats.Write ~level:1);
  check "level 2" 1 (Stats.misses s Stats.Write ~level:2);
  check "per size" 1 (Stats.misses_of_size s Stats.Write ~size:1 ~level:1);
  checkf "ratio" 1.0 (Stats.miss_ratio s Stats.Write ~level:1);
  checkf "data ratio" 1.0 (Stats.data_miss_ratio s)

let test_stats_ratio_empty () =
  let s = Stats.create () in
  checkf "empty ratio" 0.0 (Stats.miss_ratio s Stats.Read ~level:1);
  checkf "empty data ratio" 0.0 (Stats.data_miss_ratio s)

let test_stats_invalid_size () =
  Alcotest.check_raises "size 3" (Invalid_argument "Stats: unsupported access size 3")
    (fun () -> Stats.record_access (Stats.create ()) Stats.Read ~size:3)

let test_stats_accumulate_diff () =
  let a = Stats.create () and b = Stats.create () in
  Stats.record_access a Stats.Read ~size:4;
  Stats.record_access b Stats.Read ~size:4;
  Stats.record_access b Stats.Read ~size:4;
  Stats.accumulate ~into:a b;
  check "accumulated" 3 (Stats.accesses a Stats.Read);
  let d = Stats.diff a b in
  check "diff" 1 (Stats.accesses d Stats.Read);
  let snap = Stats.copy a in
  Stats.record_access a Stats.Write ~size:1;
  let d2 = Stats.diff a snap in
  check "diff after copy: write delta" 1 (Stats.accesses d2 Stats.Write);
  check "diff after copy: read delta" 0 (Stats.accesses d2 Stats.Read)

let test_stats_scale_reset () =
  let s = Stats.create () in
  for _ = 1 to 10 do
    Stats.record_access s Stats.Read ~size:2
  done;
  let doubled = Stats.scale s 2.0 in
  check "scaled" 20 (Stats.accesses doubled Stats.Read);
  Stats.reset s;
  check "reset" 0 (Stats.accesses s Stats.Read)

(* ------------------------------------------------------------------ *)
(* Cache *)

let dm ~size ~line = Cache.create (Cache.direct_mapped ~size ~line)

let test_cache_cold_miss_then_hit () =
  let c = dm ~size:256 ~line:16 in
  let o1 = Cache.access c ~addr:0 ~write:false in
  checkb "cold miss" false (Cache.hit o1);
  checkb "filled" true (Cache.filled o1);
  let o2 = Cache.access c ~addr:12 ~write:false in
  checkb "same line hits" true (Cache.hit o2);
  let o3 = Cache.access c ~addr:16 ~write:false in
  checkb "next line misses" false (Cache.hit o3)

let test_cache_direct_mapped_conflict () =
  let c = dm ~size:256 ~line:16 in
  ignore (Cache.access c ~addr:0 ~write:false);
  (* 256 bytes direct-mapped: address 256 maps to the same set as 0. *)
  ignore (Cache.access c ~addr:256 ~write:false);
  checkb "original evicted" false (Cache.present c ~addr:0);
  checkb "newcomer present" true (Cache.present c ~addr:256)

let test_cache_lru () =
  let c = Cache.create (Cache.set_associative ~size:64 ~line:16 ~assoc:2) in
  (* 2 sets; addresses 0, 32, 64 share set 0 (line 16, sets 2). *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:32 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false) (* refresh 0 *);
  ignore (Cache.access c ~addr:64 ~write:false) (* evicts 32, the LRU *);
  checkb "0 kept" true (Cache.present c ~addr:0);
  checkb "32 evicted" false (Cache.present c ~addr:32);
  checkb "64 present" true (Cache.present c ~addr:64)

let test_cache_writeback_on_dirty_eviction () =
  let c = dm ~size:256 ~line:16 in
  ignore (Cache.access c ~addr:0 ~write:true);
  let o = Cache.access c ~addr:256 ~write:false in
  checkb "dirty eviction writes back" true (Cache.writeback o);
  (* A clean line must not write back. *)
  ignore (Cache.access c ~addr:512 ~write:false);
  let o2 = Cache.access c ~addr:0 ~write:false in
  checkb "clean eviction silent" false (Cache.writeback o2)

let test_cache_store_around () =
  let cfg =
    { (Cache.direct_mapped ~size:256 ~line:16) with
      Cache.write_policy = Cache.Write_through;
      write_allocate = false }
  in
  let c = Cache.create cfg in
  let o = Cache.access c ~addr:0 ~write:true in
  checkb "write miss does not fill" false (Cache.filled o);
  checkb "line still absent" false (Cache.present c ~addr:0);
  (* A read brings the line in; later writes hit. *)
  ignore (Cache.access c ~addr:0 ~write:false);
  let o2 = Cache.access c ~addr:4 ~write:true in
  checkb "write hit after read" true (Cache.hit o2)

let test_cache_write_through_never_dirty () =
  let cfg =
    { (Cache.direct_mapped ~size:256 ~line:16) with
      Cache.write_policy = Cache.Write_through }
  in
  let c = Cache.create cfg in
  ignore (Cache.access c ~addr:0 ~write:true);
  let o = Cache.access c ~addr:256 ~write:false in
  checkb "write-through eviction has no writeback" false (Cache.writeback o)

let test_cache_flush () =
  let c = dm ~size:256 ~line:16 in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.flush c;
  checkb "flushed" false (Cache.present c ~addr:0)

let test_cache_bad_geometry () =
  Alcotest.check_raises "line not power of two"
    (Invalid_argument "Cache.create: line size") (fun () ->
      ignore (Cache.create (Cache.direct_mapped ~size:256 ~line:12)));
  Alcotest.check_raises "indivisible size"
    (Invalid_argument "Cache.create: size not divisible by line*assoc") (fun () ->
      ignore (Cache.create (Cache.set_associative ~size:250 ~line:16 ~assoc:2)))

let prop_cache_capacity =
  QCheck.Test.make ~count:100 ~name:"resident lines never exceed capacity"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 4095))
    (fun addrs ->
      let c = Cache.create (Cache.set_associative ~size:256 ~line:16 ~assoc:2) in
      List.iter (fun a -> ignore (Cache.access c ~addr:a ~write:false)) addrs;
      let resident = ref 0 in
      for line = 0 to 255 do
        if Cache.present c ~addr:(line * 16) then incr resident
      done;
      !resident <= 16)

let prop_cache_present_after_read =
  QCheck.Test.make ~count:100 ~name:"a read access makes the line present"
    QCheck.(int_bound 100_000)
    (fun addr ->
      let c = dm ~size:1024 ~line:32 in
      ignore (Cache.access c ~addr ~write:false);
      Cache.present c ~addr)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_machines () =
  check "seven machines" 7 (List.length Config.all);
  check "figure 9 set" 4 (List.length Config.figure9);
  List.iter
    (fun (m : Config.t) ->
      checkb (m.Config.name ^ " clock positive") true (m.Config.clock_mhz > 0.0);
      checkb
        (m.Config.name ^ " L2 hit cheaper than memory")
        true
        (Config.l2_hit_cycles m <= Config.mem_cycles m))
    Config.all

let test_config_by_name () =
  checkb "found" true (Config.by_name "ss10-30" <> None);
  checkb "case insensitive" true (Config.by_name "AXP3000/800" <> None);
  checkb "missing" true (Config.by_name "vax" = None)

let test_config_ss10_30_has_no_l2 () =
  checkb "no L2" true (Config.ss10_30.Config.l2 = None);
  List.iter
    (fun (m : Config.t) ->
      if m.Config.name <> "SS10-30" then
        checkb (m.Config.name ^ " has L2") true (m.Config.l2 <> None))
    Config.all

(* ------------------------------------------------------------------ *)
(* Machine *)

let tiny () = Machine.create (Config.custom ())

let test_machine_read_miss_costs () =
  let m = tiny () in
  Machine.read m ~addr:0 ~size:4;
  let after_miss = Machine.cycles m in
  checkb "miss costs cycles" true (after_miss > 0.0);
  Machine.read m ~addr:4 ~size:4;
  checkf "hit costs nothing extra (l1_hit_ns = 0)" after_miss (Machine.cycles m)

let test_machine_straddling_access () =
  let m = tiny () in
  (* Line size 16: an 8-byte read at 12 touches two lines. *)
  Machine.read m ~addr:12 ~size:8;
  check "two level-1 misses" 2 (Stats.misses (Machine.stats m) Stats.Read ~level:1);
  check "one recorded access" 1 (Stats.accesses (Machine.stats m) Stats.Read)

let test_machine_exec_warm () =
  let m = tiny () in
  let st = Machine.stats m in
  let fetches () = Stats.accesses st Stats.Ifetch in
  let misses () = Stats.misses st Stats.Ifetch ~level:1 in
  let code = Code.allocator () in
  (* Four 16-byte lines of the direct-mapped 256-byte L1I. *)
  let region = Code.alloc code ~len:64 and n = 4 in
  Machine.exec m region;
  let c1 = Machine.cycles m in
  checkb "cold ifetch costs" true (c1 > 0.0);
  check "cold exec misses every line" n (misses ());
  Machine.exec m region;
  checkf "warm ifetch free" c1 (Machine.cycles m);
  check "warm re-exec counts every line" (2 * n) (fetches ());
  check "warm re-exec misses none" n (misses ());
  Machine.flush_caches m;
  Machine.exec m region;
  check "exec after a flush misses every line again" (2 * n) (misses ());
  (* 256 bytes on, the next region maps onto the first two lines' sets. *)
  ignore (Code.alloc code ~len:(256 - 64));
  let alias = Code.alloc code ~len:32 in
  check "aliasing base" (region.Code.base + 256) alias.Code.base;
  Machine.exec m alias;
  Machine.exec m region;
  check "evicted lines miss again, the others hit" ((2 * n) + 2 + 2) (misses ());
  check "every line counted" ((4 * n) + 2) (fetches ())

let test_machine_exec_zero_alloc () =
  List.iter
    (fun (cfg : Config.t) ->
      let m = Machine.create cfg in
      let code = Code.allocator () in
      let hot = Code.alloc code ~len:3072 in
      (* Larger than either L1I: under LRU every line misses every time. *)
      let big = Code.alloc code ~len:(32 * 1024) in
      let per_call what region =
        Machine.exec m region;
        let n = 1_000 in
        let misses0 = Stats.misses (Machine.stats m) Stats.Ifetch ~level:1 in
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          Machine.exec m region
        done;
        let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
        let missed = Stats.misses (Machine.stats m) Stats.Ifetch ~level:1 - misses0 in
        checkb
          (Printf.sprintf "%s: %s exec allocates (%.4f words/call)" cfg.Config.name what
             per_call)
          true (per_call <= 0.01);
        missed
      in
      check (cfg.Config.name ^ ": warm exec misses nothing") 0 (per_call "warm" hot);
      let lines = 32 * 1024 / cfg.Config.l1i.Cache.line in
      check (cfg.Config.name ^ ": oversized exec misses every line") (1_000 * lines)
        (per_call "missing" big))
    [ Config.ss10_30; Config.axp3000_800 ]

let test_machine_compute_scale () =
  let m = Machine.create (Config.custom ~compute_scale:2.0 ()) in
  Machine.compute m 10;
  checkf "scaled ops" 20.0 (Machine.cycles m)

let test_machine_charge_micros () =
  let m = Machine.create (Config.custom ~clock_mhz:50.0 ()) in
  Machine.charge_micros m 3.0;
  checkf "micros round trip" 3.0 (Machine.micros m)

let test_machine_reset () =
  let m = tiny () in
  Machine.read m ~addr:0 ~size:4;
  Machine.reset_counters m;
  checkf "cycles zeroed" 0.0 (Machine.cycles m);
  check "stats zeroed" 0 (Stats.accesses (Machine.stats m) Stats.Read);
  (* Cache state survives a counter reset. *)
  Machine.read m ~addr:0 ~size:4;
  check "still warm" 0 (Stats.misses (Machine.stats m) Stats.Read ~level:1)

let test_machine_write_through_drain () =
  (* SS10-30's L1D is write-through: every write costs the drain, hit or
     miss. *)
  let m = Machine.create Config.ss10_30 in
  Machine.read m ~addr:0 ~size:4;
  let base = Machine.cycles m in
  Machine.write m ~addr:0 ~size:4 (* hits (line resident) but drains *);
  checkb "write hit still drains" true (Machine.cycles m > base)

let test_machine_store_around_counts_miss () =
  let m = Machine.create Config.ss10_30 in
  Machine.write m ~addr:4096 ~size:1;
  check "1-byte write miss recorded" 1
    (Stats.misses_of_size (Machine.stats m) Stats.Write ~size:1 ~level:1);
  (* The store did not allocate: a second write misses again. *)
  Machine.write m ~addr:4097 ~size:1;
  check "still missing" 2 (Stats.misses (Machine.stats m) Stats.Write ~level:1)

let test_machine_l2_cheaper_than_memory () =
  let with_l2 = Machine.create Config.ss10_41 in
  let without = Machine.create Config.ss10_30 in
  (* Warm the L2 of the first machine, then miss L1 but hit L2. *)
  Machine.read with_l2 ~addr:0 ~size:4;
  Machine.read without ~addr:0 ~size:4;
  (* Evict from L1 by conflict: SuperSPARC L1D is 16 KB 4-way with 32 B
     lines -> 128 sets; five addresses 4096 bytes apart map to one set. *)
  for i = 1 to 8 do
    Machine.read with_l2 ~addr:(i * 4096) ~size:4;
    Machine.read without ~addr:(i * 4096) ~size:4
  done;
  Machine.reset_counters with_l2;
  Machine.reset_counters without;
  Machine.read with_l2 ~addr:0 ~size:4;
  Machine.read without ~addr:0 ~size:4;
  check "both miss L1" (Stats.misses (Machine.stats without) Stats.Read ~level:1)
    (Stats.misses (Machine.stats with_l2) Stats.Read ~level:1);
  if Stats.misses (Machine.stats with_l2) Stats.Read ~level:1 = 1 then
    checkb "L2 hit cheaper than DRAM" true
      (Machine.cycles with_l2 *. Config.ss10_41.Config.clock_mhz
       /. Config.ss10_30.Config.clock_mhz
      < Machine.cycles without +. 0.001)

(* ------------------------------------------------------------------ *)
(* Mem *)

let test_mem_roundtrips () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.set_u8 mem 100 0xAB;
  check "u8" 0xAB (Mem.get_u8 mem 100);
  Mem.set_u16 mem 102 0xBEEF;
  check "u16" 0xBEEF (Mem.get_u16 mem 102);
  Mem.set_u32 mem 104 0xDEADBEEF;
  check "u32" 0xDEADBEEF (Mem.get_u32 mem 104);
  Mem.set_u64 mem 112 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Mem.get_u64 mem 112)

let test_mem_big_endian () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.set_u32 mem 200 0x01020304;
  check "network byte order" 0x01 (Mem.peek_u8 mem 200);
  check "lsb last" 0x04 (Mem.peek_u8 mem 203)

let test_mem_peek_poke_uncharged () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.poke_u32 mem 300 42;
  ignore (Mem.peek_u32 mem 300);
  Mem.poke_string mem ~pos:308 "hello";
  ignore (Mem.peek_bytes mem ~pos:308 ~len:5);
  checkf "no cycles" 0.0 (Machine.cycles sim.Sim.machine);
  check "no accesses" 0 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read)

let test_mem_blit () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.poke_string mem ~pos:400 "abcdefghij";
  Mem.blit mem ~src:400 ~dst:500 ~len:10 ~unit_len:4;
  Alcotest.(check string)
    "copied" "abcdefghij"
    (Bytes.to_string (Mem.peek_bytes mem ~pos:500 ~len:10));
  (* 2 word accesses + 2 byte accesses on each side. *)
  check "reads" 4 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read);
  check "writes" 4 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Write)

let test_mem_blit_overlap_forward () =
  List.iter
    (fun unit_len ->
      let sim = Sim.create (Config.custom ()) in
      let mem = sim.Sim.mem in
      Mem.poke_string mem ~pos:600 "abcdefgh";
      (* [602, 608) onto [600, 606): the ranges share [602, 606), and a
         forward copy with dst < src reads each byte before overwriting it. *)
      Mem.blit mem ~src:602 ~dst:600 ~len:6 ~unit_len;
      Alcotest.(check string)
        (Printf.sprintf "shifted down, unit %d" unit_len)
        "cdefghgh"
        (Bytes.to_string (Mem.peek_bytes mem ~pos:600 ~len:8)))
    [ 1; 4 ]

let test_mem_blit_overlap_backward_refused () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.poke_string mem ~pos:600 "abcdefgh";
  Alcotest.check_raises "dst inside (src, src + len)"
    (Invalid_argument "Mem.blit: dst overlaps src") (fun () ->
      Mem.blit mem ~src:600 ~dst:602 ~len:6 ~unit_len:1);
  Alcotest.(check string)
    "nothing copied" "abcdefgh"
    (Bytes.to_string (Mem.peek_bytes mem ~pos:600 ~len:8));
  checkf "nothing charged" 0.0 (Machine.cycles sim.Sim.machine);
  (* Adjacent and identical ranges are not refused. *)
  Mem.blit mem ~src:600 ~dst:604 ~len:4 ~unit_len:4;
  Mem.blit mem ~src:600 ~dst:600 ~len:8 ~unit_len:2;
  Alcotest.(check string)
    "adjacent copy" "abcdabcd"
    (Bytes.to_string (Mem.peek_bytes mem ~pos:600 ~len:8))

let test_mem_blit_zero_alloc () =
  let sim = Sim.create Config.ss10_30 in
  let mem = sim.Sim.mem in
  let n = 2_000 in
  for _ = 1 to 16 do
    Mem.blit mem ~src:8194 ~dst:16384 ~len:1467 ~unit_len:4
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Mem.blit mem ~src:8194 ~dst:16384 ~len:1467 ~unit_len:4
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  checkb
    (Printf.sprintf "blit allocates (%.4f words/call)" per_call)
    true (per_call <= 0.01)

(* [Mem.blit] charges by line stretch; it must match, bit for bit, the
   per-unit copy loop kept here as the oracle. *)

let oracle_blit sim ~src ~dst ~len ~unit_len =
  let m = sim.Sim.machine and data = Mem.raw sim.Sim.mem in
  let unit_copy off size =
    Machine.read m ~addr:(src + off) ~size;
    Machine.write m ~addr:(dst + off) ~size;
    Machine.compute m 1;
    Bytes.blit data (src + off) data (dst + off) size
  in
  let full = len / unit_len in
  for i = 0 to full - 1 do
    unit_copy (i * unit_len) unit_len
  done;
  for off = full * unit_len to len - 1 do
    unit_copy off 1
  done

let oracle_machines =
  let small_dm = Cache.direct_mapped ~size:256 ~line:16 in
  Array.of_list
    (Config.all
    @ [ Config.custom ();
        Config.custom ~name:"custom-wb-dm-l2" ~l1d:small_dm
          ~l2:(Some (Cache.direct_mapped ~size:1024 ~line:32))
          ~compute_scale:2.4 ();
        Config.custom ~name:"custom-wb-store-around"
          ~l1d:{ (Cache.set_associative ~size:256 ~line:16 ~assoc:2) with
                 write_allocate = false }
          () ])

(* Address offsets that map to the same set in some cache of the
   machines above: the tiny L1s, the 4-way and direct-mapped L1Ds, and
   the Alpha and SPARC L2s. *)
let alias_strides = [| 0; 128; 4096; 8192; 524288; 1048576 |]
let oracle_span = 2 * 1024 * 1024
let oracle_mem_size = oracle_span + 65536

type oracle_op =
  | Copy of { src : int; dst : int; len : int; unit_len : int }
  | Load of int * int
  | Store of int * int

let print_op = function
  | Copy { src; dst; len; unit_len } ->
      Printf.sprintf "copy %d->%d len %d unit %d" src dst len unit_len
  | Load (a, s) -> Printf.sprintf "load %d/%d" a s
  | Store (a, s) -> Printf.sprintf "store %d/%d" a s

let gen_data_op =
  let open QCheck.Gen in
  let near =
    map3
      (fun base stride k -> (base + (stride * k)) mod oracle_span)
      (int_bound 16383) (oneofa alias_strides) (int_range 0 2)
  in
  let unit = oneofl [ 1; 2; 4; 8 ] in
  let copy =
    near >>= fun src ->
    oneofa alias_strides >>= fun stride ->
    int_range 0 2 >>= fun k ->
    int_range (-40) 40 >>= fun delta ->
    frequency [ (4, int_bound 300); (1, int_bound 3000) ] >>= fun len ->
    unit >|= fun unit_len ->
    let dst = max 0 ((src + (stride * k) + delta) mod oracle_span) in
    (* Mem.blit refuses dst inside (src, src + len): swap such pairs. *)
    let src, dst = if dst > src && dst < src + len then (dst, src) else (src, dst) in
    Copy { src; dst; len; unit_len }
  in
  let single f = map2 f near unit in
  frequency
    [ (3, copy); (1, single (fun a s -> Load (a, s))); (1, single (fun a s -> Store (a, s))) ]

let gen_oracle_case =
  QCheck.Gen.(
    pair (int_bound (Array.length oracle_machines - 1)) (list_size (int_range 1 10) gen_data_op))

let arb_oracle_case =
  QCheck.make gen_oracle_case ~print:(fun (mi, ops) ->
      Printf.sprintf "%s: %s" oracle_machines.(mi).Config.name
        (String.concat "; " (List.map print_op ops)))

let ledger m =
  let st = Machine.stats m in
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun size ->
          [ Stats.accesses_of_size st kind ~size;
            Stats.misses_of_size st kind ~size ~level:1;
            Stats.misses_of_size st kind ~size ~level:2 ])
        [ 1; 2; 4; 8 ])
    [ Stats.Read; Stats.Write; Stats.Ifetch ]

let clocks m =
  List.map Int64.bits_of_float
    [ Machine.cycles m; Machine.stall_cycles m; Machine.ifetch_stall_cycles m ]

let same_state what a b =
  let ma = a.Sim.machine and mb = b.Sim.machine in
  if clocks ma <> clocks mb then
    QCheck.Test.fail_reportf "%s: cycles %h/%h/%h vs oracle %h/%h/%h" what
      (Machine.cycles mb) (Machine.stall_cycles mb) (Machine.ifetch_stall_cycles mb)
      (Machine.cycles ma) (Machine.stall_cycles ma) (Machine.ifetch_stall_cycles ma);
  if ledger ma <> ledger mb then QCheck.Test.fail_reportf "%s: Stats ledger differs" what;
  if not (Bytes.equal (Mem.raw a.Sim.mem) (Mem.raw b.Sim.mem)) then
    QCheck.Test.fail_reportf "%s: memory bytes differ" what

(* Reads that push other tags through the sets a copy touched, then read
   the copy's lines again: which lines survive depends on the LRU ages
   and on dirtiness (writebacks are charged). *)
let lru_probe sim ops =
  let m = sim.Sim.machine in
  List.iter
    (function
      | Copy { src; dst; len; _ } ->
          List.iter
            (fun a ->
              Array.iter
                (fun stride ->
                  for k = 1 to 5 do
                    Machine.read m ~addr:((a + (stride * k)) mod oracle_span) ~size:4
                  done)
                alias_strides;
              Machine.read m ~addr:a ~size:4)
            [ src; dst; src + (len / 2); dst + (len / 2) ]
      | Load _ | Store _ -> ())
    ops

(* An oracle machine and a subject machine with identical memory. *)
let oracle_pair cfg =
  let oracle = Sim.create ~mem_size:oracle_mem_size cfg in
  let subject = Sim.create ~mem_size:oracle_mem_size cfg in
  let fill =
    Bytes.init oracle_mem_size (fun i -> Char.chr (((i * 7) + (i lsr 8)) land 0xff))
  in
  Mem.poke_bytes oracle.Sim.mem ~pos:0 fill;
  Mem.poke_bytes subject.Sim.mem ~pos:0 fill;
  (oracle, subject)

let apply_data_op oracle subject = function
  | Copy { src; dst; len; unit_len } ->
      oracle_blit oracle ~src ~dst ~len ~unit_len;
      Mem.blit subject.Sim.mem ~src ~dst ~len ~unit_len
  | Load (addr, size) ->
      Machine.read oracle.Sim.machine ~addr ~size;
      Machine.read subject.Sim.machine ~addr ~size
  | Store (addr, size) ->
      Machine.write oracle.Sim.machine ~addr ~size;
      Machine.write subject.Sim.machine ~addr ~size

let prop_blit_bit_exact =
  QCheck.Test.make ~count:150 ~name:"blit charges bit-exactly as the per-unit loop"
    arb_oracle_case (fun (mi, ops) ->
      let oracle, subject = oracle_pair oracle_machines.(mi) in
      List.iteri
        (fun i op ->
          apply_data_op oracle subject op;
          same_state (Printf.sprintf "after op %d (%s)" i (print_op op)) oracle subject)
        ops;
      lru_probe oracle ops;
      lru_probe subject ops;
      same_state "after the LRU probe" oracle subject;
      true)

(* [Machine.exec] settles lines through its per-region memo; it must
   match, bit for bit, the per-line loop kept here as the oracle. *)

let oracle_exec m (region : Code.region) =
  if region.Code.len > 0 then begin
    let line = (Machine.config m).Config.l1i.Cache.line in
    let first = region.Code.base land lnot (line - 1) in
    let last = (region.Code.base + region.Code.len - 1) land lnot (line - 1) in
    for j = 0 to (last - first) / line do
      Machine.fetch_line m ~addr:(first + (j * line))
    done
  end

(* Where a code region goes: [After pad] skips [pad] bytes past the
   previous region; [Aliased] starts it at the next multiple of 8192 bytes
   from the previous region's base, which is the same set of every
   modelled L1I (8 KB direct-mapped, 20 KB 5-way, 256 B direct-mapped). *)
type placement = After of int | Aliased

(* Regions from two allocators.  Both first regions sit at the
   allocators' common base; the second allocator's takes the first
   allocator's length when [same_first]. *)
type code_layout = {
  a : (placement * int) list;
  b : (placement * int) list;
  same_first : bool;
}

let alias_period = 8192

let place_regions specs =
  let code = Code.allocator () in
  let prev = ref None in
  List.map
    (fun (placement, len) ->
      (match (placement, !prev) with
      | _, None | After 0, _ -> ()
      | After pad, Some _ -> ignore (Code.alloc code ~len:pad)
      | Aliased, Some (r : Code.region) ->
          let next = (r.Code.base + r.Code.len + 63) land lnot 63 in
          let target =
            r.Code.base
            + ((next - r.Code.base + alias_period - 1) / alias_period * alias_period)
          in
          if target > next then ignore (Code.alloc code ~len:(target - next)));
      let r = Code.alloc code ~len in
      prev := Some r;
      r)
    specs

let build_regions l =
  let b =
    match (l.same_first, l.a, l.b) with
    | true, (_, len) :: _, (p, _) :: rest -> (p, len) :: rest
    | _ -> l.b
  in
  Array.of_list (place_regions l.a @ place_regions b)

type exec_op = Exec of int | Flush | Reset | Data of oracle_op

let print_exec_op regions = function
  | Exec k ->
      let r = regions.(k mod Array.length regions) in
      Printf.sprintf "exec %#x+%d" r.Code.base r.Code.len
  | Flush -> "flush"
  | Reset -> "reset"
  | Data op -> print_op op

let gen_exec_case =
  let open QCheck.Gen in
  let len =
    frequency [ (3, int_bound 512); (2, int_bound 4096); (1, int_bound 65536) ]
  in
  let placement =
    frequency
      [ (2, return (After 0)); (1, map (fun k -> After (64 * k)) (int_bound 128));
        (2, return Aliased) ]
  in
  let specs n = list_size (int_range 1 n) (pair placement len) in
  let layout =
    map3 (fun a b same_first -> { a; b; same_first }) (specs 8) (specs 3) bool
  in
  let op =
    frequency
      [ (6, map (fun k -> Exec k) (int_bound 63)); (1, return Flush); (1, return Reset);
        (3, map (fun d -> Data d) gen_data_op) ]
  in
  triple (int_bound (Array.length oracle_machines - 1)) layout
    (list_size (int_range 1 25) op)

let arb_exec_case =
  QCheck.make gen_exec_case ~print:(fun (mi, layout, ops) ->
      let regions = build_regions layout in
      Printf.sprintf "%s: regions %s; ops %s" oracle_machines.(mi).Config.name
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun (r : Code.region) -> Printf.sprintf "%#x+%d" r.Code.base r.Code.len)
                 regions)))
        (String.concat "; " (List.map (print_exec_op regions) ops)))

let prop_exec_bit_exact =
  QCheck.Test.make ~count:150 ~name:"exec charges bit-exactly as the per-line loop"
    arb_exec_case (fun (mi, layout, ops) ->
      let regions = build_regions layout in
      let oracle, subject = oracle_pair oracle_machines.(mi) in
      let both f =
        f oracle.Sim.machine;
        f subject.Sim.machine
      in
      let exec r =
        oracle_exec oracle.Sim.machine r;
        Machine.exec subject.Sim.machine r
      in
      List.iteri
        (fun i op ->
          (match op with
          | Exec k -> exec regions.(k mod Array.length regions)
          | Flush -> both Machine.flush_caches
          | Reset -> both Machine.reset_counters
          | Data d -> apply_data_op oracle subject d);
          same_state
            (Printf.sprintf "after op %d (%s)" i (print_exec_op regions op))
            oracle subject)
        ops;
      (* I-cache LRU probe: the regions alias one another, so which lines
         survive a pass depends on the ages the ops above left. *)
      Array.iter exec regions;
      for k = Array.length regions - 1 downto 0 do
        exec regions.(k)
      done;
      Array.iter exec regions;
      same_state "after the I-cache LRU probe" oracle subject;
      let data = List.filter_map (function Data d -> Some d | _ -> None) ops in
      lru_probe oracle data;
      lru_probe subject data;
      same_state "after the data LRU probe" oracle subject;
      true)

let prop_mem_u32_roundtrip =
  QCheck.Test.make ~count:200 ~name:"u32 set/get round trip"
    QCheck.(pair (int_bound 0xffffffff) (int_bound 1000))
    (fun (v, addr) ->
      let sim = Sim.create (Config.custom ()) in
      Mem.set_u32 sim.Sim.mem (addr * 4) v;
      Mem.get_u32 sim.Sim.mem (addr * 4) = v)

(* ------------------------------------------------------------------ *)
(* Alloc *)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1 ~limit:1024 in
  let p1 = Alloc.alloc a ~align:8 10 in
  check "aligned to 8" 0 (p1 mod 8);
  let p2 = Alloc.alloc a ~align:64 1 in
  check "aligned to 64" 0 (p2 mod 64);
  checkb "monotone" true (p2 > p1)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~limit:64 in
  ignore (Alloc.alloc a 60);
  checkb "remaining small" true (Alloc.remaining a <= 4);
  (match Alloc.alloc a 100 with
  | _ -> Alcotest.fail "expected exhaustion"
  | exception Failure _ -> ());
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Alloc.alloc: alignment must be a power of two") (fun () ->
      ignore (Alloc.alloc a ~align:3 1))

let test_sim_cold_start () =
  let sim = Sim.create (Config.custom ()) in
  ignore (Mem.get_u32 sim.Sim.mem 64);
  Sim.cold_start sim;
  checkf "counters cleared" 0.0 (Machine.cycles sim.Sim.machine);
  ignore (Mem.get_u32 sim.Sim.mem 64);
  check "cache flushed too" 1
    (Stats.misses (Machine.stats sim.Sim.machine) Stats.Read ~level:1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "memsim"
    [ ( "stats",
        [ Alcotest.test_case "counting" `Quick test_stats_counting;
          Alcotest.test_case "misses" `Quick test_stats_misses;
          Alcotest.test_case "empty ratios" `Quick test_stats_ratio_empty;
          Alcotest.test_case "invalid size" `Quick test_stats_invalid_size;
          Alcotest.test_case "accumulate/diff" `Quick test_stats_accumulate_diff;
          Alcotest.test_case "scale/reset" `Quick test_stats_scale_reset ] );
      ( "cache",
        [ Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "direct-mapped conflict" `Quick
            test_cache_direct_mapped_conflict;
          Alcotest.test_case "LRU replacement" `Quick test_cache_lru;
          Alcotest.test_case "dirty writeback" `Quick
            test_cache_writeback_on_dirty_eviction;
          Alcotest.test_case "store-around" `Quick test_cache_store_around;
          Alcotest.test_case "write-through never dirty" `Quick
            test_cache_write_through_never_dirty;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
          qc prop_cache_capacity;
          qc prop_cache_present_after_read ] );
      ( "config",
        [ Alcotest.test_case "machines" `Quick test_config_machines;
          Alcotest.test_case "by_name" `Quick test_config_by_name;
          Alcotest.test_case "SS10-30 lacks L2" `Quick test_config_ss10_30_has_no_l2 ] );
      ( "machine",
        [ Alcotest.test_case "read miss costs" `Quick test_machine_read_miss_costs;
          Alcotest.test_case "straddling access" `Quick test_machine_straddling_access;
          Alcotest.test_case "warm ifetch" `Quick test_machine_exec_warm;
          Alcotest.test_case "exec allocates nothing" `Quick test_machine_exec_zero_alloc;
          qc prop_exec_bit_exact;
          Alcotest.test_case "compute scale" `Quick test_machine_compute_scale;
          Alcotest.test_case "charge micros" `Quick test_machine_charge_micros;
          Alcotest.test_case "reset keeps caches" `Quick test_machine_reset;
          Alcotest.test_case "write-through drain" `Quick
            test_machine_write_through_drain;
          Alcotest.test_case "store-around miss count" `Quick
            test_machine_store_around_counts_miss;
          Alcotest.test_case "L2 cheaper than memory" `Quick
            test_machine_l2_cheaper_than_memory ] );
      ( "mem",
        [ Alcotest.test_case "round trips" `Quick test_mem_roundtrips;
          Alcotest.test_case "big endian" `Quick test_mem_big_endian;
          Alcotest.test_case "peek/poke uncharged" `Quick test_mem_peek_poke_uncharged;
          Alcotest.test_case "blit" `Quick test_mem_blit;
          Alcotest.test_case "blit overlap" `Quick test_mem_blit_overlap_forward;
          Alcotest.test_case "blit refuses dst inside src" `Quick
            test_mem_blit_overlap_backward_refused;
          Alcotest.test_case "blit allocates nothing" `Quick test_mem_blit_zero_alloc;
          qc prop_blit_bit_exact;
          qc prop_mem_u32_roundtrip ] );
      ( "alloc",
        [ Alcotest.test_case "alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "sim cold start" `Quick test_sim_cold_start ] ) ]
