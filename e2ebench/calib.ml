(* A fixed calibration kernel, timed in small slices between the steps of
   the measured phase so that host-time figures can be scaled to a
   reference host speed.

   The shared host the benchmark was tuned on changes speed by up to
   1.6x for seconds to minutes at a time; a compute-bound kernel slows
   down with it (correlation 0.84 with the stack's own op-group times,
   where a memory-bound kernel reached only 0.46), so the slowdown is the
   processor's clock or its share of a core, not memory bandwidth.

   The kernel uses nothing from the stack, so no change to the stack can
   speed it up or slow it down, and it allocates nothing, so it does not
   disturb the stack's garbage collector. *)

let table_words = 1 lsl 12
let buf_len = 1 lsl 13

let table =
  let st = ref 0x2545F491 in
  Array.init table_words (fun _ ->
      let s = !st in
      let s = s lxor (s lsl 13) land 0xffffffff in
      let s = s lxor (s lsr 17) in
      let s = s lxor (s lsl 5) land 0xffffffff in
      st := s;
      s)

let buf = Bytes.init buf_len (fun i -> Char.chr (i * 131 land 0xff))

(* One round, ~10 us: a data-dependent walk with a branch per step and a
   word loop over bytes.  The result depends on all the work. *)
let round seed =
  let acc = ref seed in
  let i = ref (seed land (table_words - 1)) in
  for _ = 1 to 512 do
    let v = Array.unsafe_get table !i in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor (v lsr 3);
    i := (v + !acc) land (table_words - 1)
  done;
  let h = ref !acc in
  let j = ref 0 in
  while !j + 8 <= buf_len do
    h := (!h lxor Int64.to_int (Bytes.get_int64_le buf !j)) * 0x01000193;
    j := !j + 8
  done;
  !h

let sink = ref 0

(* Host nanoseconds [rounds] rounds take. *)
let time rounds =
  let t0 = Tracer.now_ns () in
  for r = 1 to rounds do
    sink := !sink lxor round (r + !sink)
  done;
  Tracer.now_ns () - t0
