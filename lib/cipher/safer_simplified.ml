(* [k] holds the 8 key bytes the closure cores read.  [enc] and [dec]
   fold each byte position's key step into its table substitution, so the
   native batch kernels make one lookup per byte; each is 8 tables of 256
   bytes indexed [i * 256 + x]:
   - [enc]: [exp[x xor k_i]] at positions 0,3,4,7 and [log[(x + k_i) mod 256]]
     at 1,2,5,6 — the key layer, then the substitution;
   - [dec]: [log[x] xor k_i] at 0,3,4,7 and [(exp[x] - k_i) mod 256] at
     1,2,5,6 — the inverse substitution, then the inverse key layer. *)
type key = { k : int array; enc : string; dec : string }

let key_bytes user =
  if String.length user <> 8 then
    invalid_arg "Safer_simplified.expand_key: key must be 8 bytes";
  Array.init 8 (fun j -> Char.code user.[j])

(* Positions whose key step is xor (and whose substitution is [exp] when
   encrypting); the others add the key and substitute [log]. *)
let xor_position i = i = 0 || i = 3 || i = 4 || i = 7

let expand_key user =
  let k = key_bytes user in
  let exp = Safer.exp_table and log = Safer.log_table in
  let table f = String.init 2048 (fun j -> Char.chr (f (j lsr 8) (j land 0xff))) in
  { k;
    enc =
      table (fun i x ->
          if xor_position i then exp.(x lxor k.(i)) else log.((x + k.(i)) land 0xff));
    dec =
      table (fun i x ->
          if xor_position i then log.(x) lxor k.(i) else (exp.(x) - k.(i)) land 0xff) }

(* One SAFER round reduced to its essence; [kread]/[exp]/[log]/[ops] as in
   {!Safer}.  The mixed patterns follow the full cipher's byte positions. *)

(* The PHT butterflies live at top level: defined inside the core they
   would capture [s] and allocate a closure per block. *)
let pht s i j =
  let x = s.(i) and y = s.(j) in
  s.(i) <- ((2 * x) + y) land 0xff;
  s.(j) <- (x + y) land 0xff

let ipht s i j =
  let x = s.(i) and y = s.(j) in
  s.(i) <- (x - y) land 0xff;
  s.(j) <- ((2 * y) - x) land 0xff

let encrypt_core ~kread ~exp ~log ~ops s =
  s.(0) <- s.(0) lxor kread 0;
  s.(1) <- (s.(1) + kread 1) land 0xff;
  s.(2) <- (s.(2) + kread 2) land 0xff;
  s.(3) <- s.(3) lxor kread 3;
  s.(4) <- s.(4) lxor kread 4;
  s.(5) <- (s.(5) + kread 5) land 0xff;
  s.(6) <- (s.(6) + kread 6) land 0xff;
  s.(7) <- s.(7) lxor kread 7;
  ops 16;
  s.(0) <- exp s.(0);
  s.(1) <- log s.(1);
  s.(2) <- log s.(2);
  s.(3) <- exp s.(3);
  s.(4) <- exp s.(4);
  s.(5) <- log s.(5);
  s.(6) <- log s.(6);
  s.(7) <- exp s.(7);
  ops 8;
  pht s 0 1; pht s 2 3; pht s 4 5; pht s 6 7;
  ops 12

let decrypt_core ~kread ~exp ~log ~ops ~spill s =
  ipht s 0 1; ipht s 2 3; ipht s 4 5; ipht s 6 7;
  ops 12;
  (* Decryption holds more live values than encryption (the paper's stated
     reason for its higher receive-side miss count); the spill hook lets
     the charged instance write intermediates to memory. *)
  spill s;
  s.(0) <- log s.(0);
  s.(1) <- exp s.(1);
  s.(2) <- exp s.(2);
  s.(3) <- log s.(3);
  s.(4) <- log s.(4);
  s.(5) <- exp s.(5);
  s.(6) <- exp s.(6);
  s.(7) <- log s.(7);
  ops 8;
  let sub x k = (x - k) land 0xff in
  s.(0) <- s.(0) lxor kread 0;
  s.(1) <- sub s.(1) (kread 1);
  s.(2) <- sub s.(2) (kread 2);
  s.(3) <- s.(3) lxor kread 3;
  s.(4) <- s.(4) lxor kread 4;
  s.(5) <- sub s.(5) (kread 5);
  s.(6) <- sub s.(6) (kread 6);
  s.(7) <- s.(7) lxor kread 7;
  ops 16

(* Run a core on one block through a caller-supplied scratch array, so a
   long-lived charged instance reuses one scratch instead of allocating
   per block. *)
let run_block core s b off =
  for i = 0 to 7 do
    s.(i) <- Char.code (Bytes.get b (off + i))
  done;
  core s;
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr s.(i))
  done

let with_block f b off = run_block f (Array.make 8 0) b off

let pure_exp x = Safer.exp_table.(x)
let pure_log x = Safer.log_table.(x)
let no_ops (_ : int) = ()
let no_spill (_ : int array) = ()

let check_batch name b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds")

(* Position [i]'s folded lookup of byte [x] in table [t].  The index is
   below 2048 = [String.length t] because [x] is a byte. *)
let[@inline] lut t i x = Char.code (String.unsafe_get t ((i lsl 8) lor x))

let[@inline] get b o = Char.code (Bytes.unsafe_get b o)
let[@inline] set b o v = Bytes.unsafe_set b o (Char.unsafe_chr v)

(* The native kernels: per block 8 loads, 8 folded lookups, the four PHT
   butterflies and 8 stores (decryption runs the inverse butterflies
   first).  No closure, scratch array or allocation; after [check_batch]
   every access is in bounds. *)
let encrypt_blocks key b ~off ~count =
  check_batch "Safer_simplified.encrypt_blocks" b ~off ~count;
  let t = key.enc in
  for blk = 0 to count - 1 do
    let o = off + (blk lsl 3) in
    let y0 = lut t 0 (get b o) and y1 = lut t 1 (get b (o + 1)) in
    let y2 = lut t 2 (get b (o + 2)) and y3 = lut t 3 (get b (o + 3)) in
    let y4 = lut t 4 (get b (o + 4)) and y5 = lut t 5 (get b (o + 5)) in
    let y6 = lut t 6 (get b (o + 6)) and y7 = lut t 7 (get b (o + 7)) in
    set b o (((2 * y0) + y1) land 0xff);
    set b (o + 1) ((y0 + y1) land 0xff);
    set b (o + 2) (((2 * y2) + y3) land 0xff);
    set b (o + 3) ((y2 + y3) land 0xff);
    set b (o + 4) (((2 * y4) + y5) land 0xff);
    set b (o + 5) ((y4 + y5) land 0xff);
    set b (o + 6) (((2 * y6) + y7) land 0xff);
    set b (o + 7) ((y6 + y7) land 0xff)
  done

let decrypt_blocks key b ~off ~count =
  check_batch "Safer_simplified.decrypt_blocks" b ~off ~count;
  let t = key.dec in
  for blk = 0 to count - 1 do
    let o = off + (blk lsl 3) in
    let x0 = get b o and x1 = get b (o + 1) in
    let x2 = get b (o + 2) and x3 = get b (o + 3) in
    let x4 = get b (o + 4) and x5 = get b (o + 5) in
    let x6 = get b (o + 6) and x7 = get b (o + 7) in
    set b o (lut t 0 ((x0 - x1) land 0xff));
    set b (o + 1) (lut t 1 (((2 * x1) - x0) land 0xff));
    set b (o + 2) (lut t 2 ((x2 - x3) land 0xff));
    set b (o + 3) (lut t 3 (((2 * x3) - x2) land 0xff));
    set b (o + 4) (lut t 4 ((x4 - x5) land 0xff));
    set b (o + 5) (lut t 5 (((2 * x5) - x4) land 0xff));
    set b (o + 6) (lut t 6 ((x6 - x7) land 0xff));
    set b (o + 7) (lut t 7 (((2 * x7) - x6) land 0xff))
  done

let encrypt_block key b off =
  with_block (encrypt_core ~kread:(Array.get key.k) ~exp:pure_exp ~log:pure_log ~ops:no_ops) b off

let decrypt_block key b off =
  with_block
    (decrypt_core ~kread:(Array.get key.k) ~exp:pure_exp ~log:pure_log ~ops:no_ops
       ~spill:no_spill)
    b off

let map_string f key s =
  let n = String.length s in
  if n mod 8 <> 0 then invalid_arg "Safer_simplified: input not a multiple of 8 bytes";
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    f key b !off;
    off := !off + 8
  done;
  Bytes.unsafe_to_string b

let encrypt_string key s = map_string encrypt_block key s
let decrypt_string key s = map_string decrypt_block key s

let charged (sim : Ilp_memsim.Sim.t) ?(spill_bytes = 4) ~key () =
  (* The spill hook moves register bytes [s.(0..spill_bytes-1)]: refuse a
     count beyond the 8-byte block before anything is allocated. *)
  if spill_bytes < 0 || spill_bytes > 8 then
    invalid_arg "Safer_simplified.charged: spill_bytes must be in 0..8";
  let open Ilp_memsim in
  let k = key_bytes key in
  let exp_base = Alloc.alloc sim.alloc ~align:64 256 in
  let log_base = Alloc.alloc sim.alloc ~align:64 256 in
  let key_base = Alloc.alloc sim.alloc ~align:8 8 in
  let scratch = Alloc.alloc sim.alloc ~align:8 (max 1 spill_bytes) in
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (exp_base + i) v) Safer.exp_table;
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (log_base + i) v) Safer.log_table;
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (key_base + i) v) k;
  let kread i = Mem.get_u8 sim.mem (key_base + i) in
  let exp x = Mem.get_u8 sim.mem (exp_base + x) in
  let log x = Mem.get_u8 sim.mem (log_base + x) in
  let ops n = Machine.compute sim.machine n in
  let spill s =
    for i = 0 to spill_bytes - 1 do
      Mem.set_u8 sim.mem (scratch + i) s.(i);
      s.(i) <- Mem.get_u8 sim.mem (scratch + i)
    done
  in
  let code_encrypt = Code.alloc sim.code ~len:1280 in
  let code_decrypt = Code.alloc sim.code ~len:1600 in
  (* One scratch per direction for the instance's lifetime (the simulated
     machine is sequential), instead of an allocation per block. *)
  let s_enc = Array.make 8 0 and s_dec = Array.make 8 0 in
  let enc_core = encrypt_core ~kread ~exp ~log ~ops in
  let dec_core = decrypt_core ~kread ~exp ~log ~ops ~spill in
  { Block_cipher.name = "SAFER-simplified";
    block_len = 8;
    encrypt = (fun b off -> run_block enc_core s_enc b off);
    decrypt = (fun b off -> run_block dec_core s_dec b off);
    encrypt_blocks =
      Some
        (fun b off count ->
          for i = 0 to count - 1 do
            run_block enc_core s_enc b (off + (i * 8))
          done);
    decrypt_blocks =
      Some
        (fun b off count ->
          for i = 0 to count - 1 do
            run_block dec_core s_dec b (off + (i * 8))
          done);
    code_encrypt;
    code_decrypt;
    store_unit = 1 }
