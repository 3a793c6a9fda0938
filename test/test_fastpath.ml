(* The native (un-simulated) fast path: word-wise blit, SWAR simple
   cipher, batched SAFER/DES kernels, and the fused wire codec.  The load-
   bearing property throughout is byte-identity with the reference
   implementations — the fast path must change timing, never bytes. *)

module FP = Ilp_fastpath
module Internet = Ilp_checksum.Internet
open Ilp_cipher

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"

let ciphers_with k =
  [ FP.Cipher.Simple;
    FP.Cipher.Safer_simplified (Safer_simplified.expand_key k);
    FP.Cipher.Safer (Safer.expand_key k);
    FP.Cipher.Des (Des.expand_key k) ]

let ciphers () = ciphers_with key

(* Reference ECB through the pure string ciphers. *)
let reference_encrypt cipher s =
  match cipher with
  | FP.Cipher.Simple -> Simple_cipher.encrypt_string s
  | FP.Cipher.Safer_simplified k -> Safer_simplified.encrypt_string k s
  | FP.Cipher.Safer k -> Safer.encrypt_string k s
  | FP.Cipher.Des k -> Des.encrypt_string k s

let random_msg len =
  String.init len (fun i -> Char.chr ((i * 131 + 17) land 0xff))

(* ------------------------------------------------------------------ *)
(* Words *)

let prop_blit_equals_bytes_blit =
  QCheck.Test.make ~count:300 ~name:"word blit = Bytes.blit on random slices"
    QCheck.(triple (string_of_size Gen.(int_range 0 120)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let dst_off = a mod 8 in
      let dst = Bytes.make (dst_off + len + 8) 'x' in
      let expected = Bytes.copy dst in
      FP.Words.blit ~src:(Bytes.of_string s) ~src_off:off ~dst ~dst_off ~len;
      Bytes.blit_string s off expected dst_off len;
      Bytes.equal dst expected)

let test_blit_bounds () =
  let src = Bytes.create 16 and dst = Bytes.create 8 in
  match FP.Words.blit ~src ~src_off:0 ~dst ~dst_off:0 ~len:16 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Cipher kernels *)

let reference_decrypt cipher s =
  match cipher with
  | FP.Cipher.Simple -> Simple_cipher.decrypt_string s
  | FP.Cipher.Safer_simplified k -> Safer_simplified.decrypt_string k s
  | FP.Cipher.Safer k -> Safer.decrypt_string k s
  | FP.Cipher.Des k -> Des.decrypt_string k s

(* Random key, random plaintext and random "ciphertext" (decrypt must
   match the reference on any input, not only on what encrypt produced),
   each run placed at a random offset between guard bytes that must come
   back untouched. *)
let prop_native_matches_reference =
  let blocks = QCheck.Gen.(map (fun n -> n * 8) (int_range 0 64)) in
  let gen =
    QCheck.Gen.(
      quad (string_size (return 8))
        (blocks >>= fun len -> string_size (return len))
        (blocks >>= fun len -> string_size (return len))
        (int_range 0 23))
  in
  QCheck.Test.make ~count:100
    ~name:"native kernels = pure ECB (all ciphers)"
    (QCheck.make gen) (fun (k, plain, junk, off) ->
      let guard = 8 in
      let run kernel reference s c =
        let len = String.length s in
        let b = Bytes.make (off + len + guard) '\xa5' in
        Bytes.blit_string s 0 b off len;
        kernel c b ~off ~count:(len / 8);
        Bytes.sub_string b off len = reference c s
        && Bytes.sub_string b 0 off = String.make off '\xa5'
        && Bytes.sub_string b (off + len) guard = String.make guard '\xa5'
      in
      List.for_all
        (fun c ->
          run FP.Cipher.encrypt_blocks reference_encrypt plain c
          && run FP.Cipher.decrypt_blocks reference_decrypt junk c
          && run FP.Cipher.decrypt_blocks reference_decrypt (reference_encrypt c plain) c)
        (ciphers_with k))

let test_swar_known_bytes () =
  (* Spot-check the SWAR lanes against the scalar byte function at the
     carry and borrow corners. *)
  let corner = Bytes.of_string "\x00\xff\x7f\x80\x3b\x3c\xc3\x55" in
  let expected =
    let r = Bytes.copy corner in
    Simple_cipher.encrypt_block r 0;
    Bytes.to_string r
  in
  let b = Bytes.copy corner in
  FP.Cipher.encrypt_blocks FP.Cipher.Simple b ~off:0 ~count:1;
  check_s "encrypt corners" expected (Bytes.to_string b);
  FP.Cipher.decrypt_blocks FP.Cipher.Simple b ~off:0 ~count:1;
  check_s "decrypt inverts" (Bytes.to_string corner) (Bytes.to_string b)

(* The native SAFER-simplified data path allocates nothing per call:
   the batch kernels and the fused wire passes over one 1448-byte MSS. *)
let test_native_path_zero_alloc () =
  let len = 1448 and n = 2_000 in
  let skey = Safer_simplified.expand_key key in
  let fp = FP.Wire.create ~cipher:(FP.Cipher.Safer_simplified skey) ~max_len:len () in
  let msg = Bytes.of_string (random_msg len) in
  let wire = Bytes.create len and out = Bytes.create len in
  let probe name f =
    for _ = 1 to 16 do
      f ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
    checkb (Printf.sprintf "%s allocates (%.4f words/call)" name per_call) true
      (per_call <= 0.01)
  in
  probe "encrypt_blocks" (fun () ->
      Safer_simplified.encrypt_blocks skey wire ~off:0 ~count:(len / 8));
  probe "decrypt_blocks" (fun () ->
      Safer_simplified.decrypt_blocks skey wire ~off:0 ~count:(len / 8));
  probe "Wire.send_ilp" (fun () ->
      ignore (FP.Wire.send_ilp fp ~src:msg ~src_off:0 ~len ~dst:wire ~dst_off:0));
  probe "Wire.recv_ilp" (fun () ->
      ignore (FP.Wire.recv_ilp fp ~src:wire ~src_off:0 ~len ~dst:out ~dst_off:0))

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let wire_pair cipher len =
  let fp = FP.Wire.create ~cipher ~max_len:len () in
  let msg = Bytes.of_string (random_msg len) in
  let sep = Bytes.create len and ilp = Bytes.create len in
  let acc_sep = FP.Wire.send_separate fp ~src:msg ~src_off:0 ~len ~dst:sep ~dst_off:0 in
  let acc_ilp = FP.Wire.send_ilp fp ~src:msg ~src_off:0 ~len ~dst:ilp ~dst_off:0 in
  (fp, msg, sep, ilp, acc_sep, acc_ilp)

let test_send_paths_agree () =
  List.iter
    (fun cipher ->
      (* Straddle several fused chunks. *)
      List.iter
        (fun len ->
          let _, msg, sep, ilp, acc_sep, acc_ilp = wire_pair cipher len in
          checkb "wire bytes identical" true (Bytes.equal sep ilp);
          check "checksums agree" (Internet.finish acc_sep) (Internet.finish acc_ilp);
          check_s "wire is the reference ECB"
            (reference_encrypt cipher (Bytes.to_string msg))
            (Bytes.to_string sep))
        [ 0; 8; 4096; 4104; 10000 ])
    (ciphers ())

let test_recv_paths_agree () =
  List.iter
    (fun cipher ->
      List.iter
        (fun len ->
          let fp, msg, sep, _, acc_send, _ = wire_pair cipher len in
          (* ILP receive: non-destructive on the segment. *)
          let out_ilp = Bytes.create len in
          let acc_ilp = FP.Wire.recv_ilp fp ~src:sep ~src_off:0 ~len ~dst:out_ilp ~dst_off:0 in
          checkb "ilp recovers plaintext" true (Bytes.equal out_ilp msg);
          check "ilp checksum = send checksum" (Internet.finish acc_send)
            (Internet.finish acc_ilp);
          (* Separate receive: decrypts the staged copy in place. *)
          let staged = Bytes.copy sep in
          let out_sep = Bytes.create len in
          let acc_sep =
            FP.Wire.recv_separate fp ~src:staged ~src_off:0 ~len ~dst:out_sep ~dst_off:0
          in
          checkb "separate recovers plaintext" true (Bytes.equal out_sep msg);
          check "separate checksum = send checksum" (Internet.finish acc_send)
            (Internet.finish acc_sep))
        [ 0; 8; 4104; 10000 ])
    (ciphers ())

let prop_wire_roundtrip_at_offsets =
  QCheck.Test.make ~count:60 ~name:"wire roundtrip at random offsets"
    QCheck.(triple (map (fun n -> n * 8) (int_range 1 40)) small_nat small_nat)
    (fun (len, a, b) ->
      let src_off = a mod 16 and dst_off = b mod 16 in
      let cipher = FP.Cipher.Safer_simplified (Safer_simplified.expand_key key) in
      let fp = FP.Wire.create ~cipher ~max_len:(len + 32) () in
      let msg = random_msg len in
      let src = Bytes.make (src_off + len) '\000' in
      Bytes.blit_string msg 0 src src_off len;
      let wire = Bytes.make (dst_off + len) '\000' in
      let acc = FP.Wire.send_ilp fp ~src ~src_off ~len ~dst:wire ~dst_off in
      let out = Bytes.create len in
      let acc' = FP.Wire.recv_ilp fp ~src:wire ~src_off:dst_off ~len ~dst:out ~dst_off:0 in
      Bytes.to_string out = msg && Internet.finish acc = Internet.finish acc')

let test_wire_validation () =
  let fp = FP.Wire.create ~cipher:FP.Cipher.Simple ~max_len:64 () in
  let b = Bytes.create 64 in
  (match FP.Wire.send_ilp fp ~src:b ~src_off:0 ~len:12 ~dst:b ~dst_off:0 with
  | _ -> Alcotest.fail "expected Invalid_argument (unaligned)"
  | exception Invalid_argument _ -> ());
  let big = Bytes.create 128 in
  match FP.Wire.send_separate fp ~src:big ~src_off:0 ~len:128 ~dst:big ~dst_off:0 with
  | _ -> Alcotest.fail "expected Invalid_argument (max_len)"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Engine backends: for the same message, a [Native] engine must put
   byte-identical ciphertext on the wire and compute the same checksum as
   the [Simulated] engine it mirrors. *)

module Engine = Ilp_core.Engine
module Sim = Ilp_memsim.Sim
module Mem = Ilp_memsim.Mem
module Alloc = Ilp_memsim.Alloc
module Config = Ilp_memsim.Config

type cipher_kind = K_simple | K_simplified | K_safer | K_des

let charged_of_kind sim = function
  | K_simple -> Simple_cipher.charged sim
  | K_simplified -> Safer_simplified.charged sim ~key ()
  | K_safer -> Safer.charged sim ~key ()
  | K_des -> Des.charged sim ~key ()

let native_of_kind = function
  | K_simple -> FP.Cipher.Simple
  | K_simplified -> FP.Cipher.Safer_simplified (Safer_simplified.expand_key key)
  | K_safer -> FP.Cipher.Safer (Safer.expand_key key)
  | K_des -> FP.Cipher.Des (Des.expand_key key)

(* Build one engine, send one message, return the wire bytes, the fill
   checksum, and the received plaintext (driving the engine's own rx). *)
let one_transfer ~mode ~backend_native kind =
  let sim = Sim.create (Config.custom ()) in
  let cipher = charged_of_kind sim kind in
  let backend =
    if backend_native then Engine.Native (native_of_kind kind) else Engine.Simulated
  in
  let eng = Engine.create sim ~cipher ~mode ~backend () in
  let payload = random_msg 600 in
  let payload_addr = Alloc.alloc sim.Sim.alloc ~align:8 (String.length payload) in
  Mem.poke_string sim.Sim.mem ~pos:payload_addr payload;
  let prepared =
    Engine.prepare_send eng ~prefix:"HDRWORDSABCD" ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.len in
  let acc_opt = prepared.Engine.fill sim.Sim.mem ~dst:wire in
  let wire_bytes = Mem.peek_bytes sim.Sim.mem ~pos:wire ~len:prepared.Engine.len in
  let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e in
  (match Engine.rx_style eng with
  | Engine.Rx_integrated_style rx ->
      ignore (ok_or_fail (rx sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.len))
  | Engine.Rx_deferred_style rx ->
      ok_or_fail (rx sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.len));
  let plaintext = ok_or_fail (Engine.read_plaintext eng ~len:prepared.Engine.len) in
  (Bytes.to_string wire_bytes, acc_opt, plaintext)

let test_backends_byte_identical () =
  List.iter
    (fun kind ->
      List.iter
        (fun mode ->
          let wire_sim, acc_sim, plain_sim =
            one_transfer ~mode ~backend_native:false kind
          in
          let wire_nat, acc_nat, plain_nat =
            one_transfer ~mode ~backend_native:true kind
          in
          checkb "wire bytes identical across backends" true (wire_sim = wire_nat);
          check_s "plaintext identical across backends" plain_sim plain_nat;
          match (mode, acc_sim, acc_nat) with
          | Engine.Ilp, Some a, Some b ->
              check "fill checksums agree" (Internet.finish a) (Internet.finish b)
          | Engine.Separate, None, None -> ()
          | _ -> Alcotest.fail "fill checksum presence differs across backends")
        [ Engine.Ilp; Engine.Separate ])
    [ K_simple; K_simplified; K_safer; K_des ]

let test_native_rx_checksum_agrees () =
  (* The native integrated receive must return the same accumulator the
     native send computed (TCP compares exactly these two). *)
  let sim = Sim.create (Config.custom ()) in
  let cipher = charged_of_kind sim K_simplified in
  let eng =
    Engine.create sim ~cipher ~mode:Engine.Ilp
      ~backend:(Engine.Native (native_of_kind K_simplified)) ()
  in
  let payload = random_msg 512 in
  let payload_addr = Alloc.alloc sim.Sim.alloc ~align:8 (String.length payload) in
  Mem.poke_string sim.Sim.mem ~pos:payload_addr payload;
  let prepared =
    Engine.prepare_send eng ~prefix:"PRFX" ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.len in
  let send_acc =
    match prepared.Engine.fill sim.Sim.mem ~dst:wire with
    | Some acc -> acc
    | None -> Alcotest.fail "native ILP fill must return a checksum"
  in
  let rx_acc =
    match Engine.rx_integrated eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.len with
    | Ok acc -> acc
    | Error e -> Alcotest.fail e
  in
  check "rx acc = send acc" (Internet.finish send_acc) (Internet.finish rx_acc)

(* ------------------------------------------------------------------ *)
(* Buffer pool *)

let test_pool_reuse () =
  let p = FP.Pool.create () in
  let b1 = FP.Pool.acquire p 100 in
  checkb "capacity covers request" true (Bytes.length b1 >= 100);
  FP.Pool.release p b1;
  let b2 = FP.Pool.acquire p 100 in
  checkb "released buffer is physically recycled" true (b1 == b2);
  FP.Pool.release p b2;
  let s = FP.Pool.stats p in
  check "acquired" 2 s.FP.Pool.acquired;
  check "released" 2 s.FP.Pool.released;
  check "outstanding" 0 s.FP.Pool.outstanding;
  check "one fresh alloc for two acquires" 1 s.FP.Pool.fresh_allocs;
  check "nothing dropped" 0 s.FP.Pool.dropped

let test_pool_exhaustion_fallback () =
  (* class_cap:0 disables retention: the pool degrades to plain
     allocation but still completes every request and stays balanced. *)
  let p = FP.Pool.create ~class_cap:0 () in
  let bufs = List.init 5 (fun _ -> FP.Pool.acquire p 64) in
  List.iter
    (fun b -> checkb "fallback still serves capacity" true (Bytes.length b >= 64))
    bufs;
  List.iter (FP.Pool.release p) bufs;
  let b' = FP.Pool.acquire p 64 in
  List.iter (fun b -> checkb "never recycles at cap 0" true (not (b == b'))) bufs;
  FP.Pool.release p b';
  let s = FP.Pool.stats p in
  check "every acquire was a fresh alloc" 6 s.FP.Pool.fresh_allocs;
  check "every release was dropped" 6 s.FP.Pool.dropped;
  check "no leaks under exhaustion" 0 (FP.Pool.outstanding p)

let test_pool_class_cap_bound () =
  let p = FP.Pool.create ~class_cap:2 () in
  let bufs = List.init 4 (fun _ -> FP.Pool.acquire p 256) in
  List.iter (FP.Pool.release p) bufs;
  let s = FP.Pool.stats p in
  check "class retains at most cap buffers" 2 s.FP.Pool.dropped;
  check "balanced" 0 s.FP.Pool.outstanding

let test_pool_odd_size_dropped () =
  let p = FP.Pool.create () in
  FP.Pool.release p (Bytes.create 100);
  let s = FP.Pool.stats p in
  check "non-class-sized buffer dropped" 1 s.FP.Pool.dropped;
  let b = FP.Pool.acquire p 100 in
  checkb "odd buffer was not retained" true (Bytes.length b > 100);
  FP.Pool.release p b

(* ------------------------------------------------------------------ *)
(* Scatter-gather sends: sendv must be byte- and checksum-identical to
   rendering the iovec contiguously and running the contiguous send. *)

(* Cut [msg] into iovec segments at pseudo-random boundaries derived from
   [seed], alternating bytes-with-offset and string segments. *)
let iovec_of_string msg seed =
  let n = String.length msg in
  let rec cut pos k acc =
    if pos >= n then List.rev acc
    else
      let len = 1 + ((seed * 7 + (k * 13)) mod 97) in
      let len = min len (n - pos) in
      let seg =
        if (k + seed) land 1 = 0 then
          FP.Wire.Io_string { s = msg; off = pos; len }
        else
          let pad = (seed + k) land 7 in
          let buf = Bytes.make (pad + len + 3) '\xaa' in
          Bytes.blit_string msg pos buf pad len;
          FP.Wire.Io_bytes { buf; off = pad; len }
      in
      cut (pos + len) (k + 1) (seg :: acc)
  in
  cut 0 0 []

let prop_sendv_equals_contiguous =
  QCheck.Test.make ~count:80
    ~name:"sendv_{ilp,separate} = contiguous send_ilp on random splits"
    QCheck.(pair (map (fun n -> n * 8) (int_range 0 80)) small_nat)
    (fun (len, seed) ->
      let cipher = FP.Cipher.Safer_simplified (Safer_simplified.expand_key key) in
      let fp = FP.Wire.create ~cipher ~max_len:(max 8 len) () in
      let msg = random_msg len in
      let iov = iovec_of_string msg seed in
      FP.Wire.iovec_len iov = len
      &&
      let flat = Bytes.of_string msg in
      let ref_wire = Bytes.create len in
      let ref_acc =
        FP.Wire.send_ilp fp ~src:flat ~src_off:0 ~len ~dst:ref_wire ~dst_off:0
      in
      let wi = Bytes.create len and ws = Bytes.create len in
      let ai = FP.Wire.sendv_ilp fp ~iov ~dst:wi ~dst_off:0 in
      let as_ = FP.Wire.sendv_separate fp ~iov ~dst:ws ~dst_off:0 in
      Bytes.equal wi ref_wire && Bytes.equal ws ref_wire
      && Internet.finish ai = Internet.finish ref_acc
      && Internet.finish as_ = Internet.finish ref_acc)

(* ------------------------------------------------------------------ *)
(* Staging buffer: drawn lazily from the pool, returned on release. *)

let test_staging_from_pool () =
  let pool = FP.Pool.create () in
  let cipher = FP.Cipher.Simple in
  let fp = FP.Wire.create ~cipher ~pool ~max_len:256 () in
  check "nothing drawn at create" 0 (FP.Pool.outstanding pool);
  let msg = Bytes.of_string (random_msg 64) in
  let dst = Bytes.create 64 in
  (* The ILP paths never stage. *)
  ignore (FP.Wire.send_ilp fp ~src:msg ~src_off:0 ~len:64 ~dst ~dst_off:0);
  ignore
    (FP.Wire.sendv_ilp fp
       ~iov:[ FP.Wire.Io_bytes { buf = msg; off = 0; len = 64 } ]
       ~dst ~dst_off:0);
  check "ILP sends draw nothing" 0 (FP.Pool.outstanding pool);
  ignore (FP.Wire.send_separate fp ~src:msg ~src_off:0 ~len:64 ~dst ~dst_off:0);
  check "first separate send draws the staging buffer" 1
    (FP.Pool.outstanding pool);
  ignore (FP.Wire.send_separate fp ~src:msg ~src_off:0 ~len:64 ~dst ~dst_off:0);
  check "staging buffer is drawn once" 1 (FP.Pool.outstanding pool);
  FP.Wire.release fp;
  check "release returns it" 0 (FP.Pool.outstanding pool);
  FP.Wire.release fp;
  check "release is idempotent" 0 (FP.Pool.outstanding pool);
  (* A later separate send simply redraws. *)
  let out = Bytes.create 64 in
  let acc = FP.Wire.send_separate fp ~src:msg ~src_off:0 ~len:64 ~dst:out ~dst_off:0 in
  check "redraw works" 1 (FP.Pool.outstanding pool);
  checkb "redrawn staging produces correct wire bytes" true (Bytes.equal out dst);
  let acc' = FP.Wire.send_ilp fp ~src:msg ~src_off:0 ~len:64 ~dst ~dst_off:0 in
  check "checksums still agree after redraw" (Internet.finish acc')
    (Internet.finish acc);
  FP.Wire.release fp;
  check "no leaks at teardown" 0 (FP.Pool.outstanding pool)

(* ------------------------------------------------------------------ *)
(* Memtraffic: the per-direction ledger split *)

module Mt = FP.Memtraffic
module M = Ilp_obs.Metrics

let test_memtraffic_rx_split () =
  let before = Mt.snapshot () in
  Mt.copied Mt.Tcp 100;
  Mt.copied_rx Mt.Tcp 40;
  Mt.copied_rx Mt.Cipher 24;
  Mt.alloc Mt.Rpc 64;
  Mt.alloc_rx Mt.Rpc 32;
  Mt.inplace_rx Mt.Cipher 16;
  Mt.read_rx Mt.Checksum 48;
  let d = Mt.diff (Mt.snapshot ()) before in
  (* The rx variants charge both the direction-blind totals and the rx
     sub-ledger; tx is the remainder. *)
  check "copied total" 164 (Mt.copied_total d);
  check "copied rx" 64 (Mt.copied_rx_total d);
  check "copied tx is the remainder" 100 (Mt.copied_tx_total d);
  check "allocated rx" 32 (Mt.allocated_rx_total d);
  check "allocated tx" 64 (Mt.allocated_tx_total d);
  check "reads include rx charges" (100 + 40 + 24 + 16 + 48) (Mt.reads_total d);
  let r, w, c, a = Mt.of_layer d Mt.Tcp in
  check "tcp reads" 140 r;
  check "tcp writes" 140 w;
  check "tcp copies" 140 c;
  check "tcp allocs" 0 a;
  let r, w, c, a = Mt.of_layer_rx d Mt.Tcp in
  check "tcp rx reads" 40 r;
  check "tcp rx writes" 40 w;
  check "tcp rx copies" 40 c;
  check "tcp rx allocs" 0 a;
  let r, w, c, _ = Mt.of_layer_rx d Mt.Cipher in
  check "cipher rx reads (copy + inplace)" 40 r;
  check "cipher rx writes" 40 w;
  check "cipher rx copies" 24 c;
  let r, w, _, _ = Mt.of_layer_rx d Mt.Checksum in
  check "checksum rx fold is read-only" 48 r;
  check "checksum rx fold writes nothing" 0 w

let test_memtraffic_rx_metrics_mirrored () =
  let before = M.snapshot M.default in
  Mt.copied_rx Mt.Tcp 56;
  Mt.alloc_rx Mt.Rpc 16;
  let after = M.snapshot M.default in
  check "rx copied metric" 56 (M.counter_diff after before "mem.rx.tcp.copied_bytes");
  check "direction-blind metric charged too" 56
    (M.counter_diff after before "mem.tcp.copied_bytes");
  check "rx alloc metric" 16
    (M.counter_diff after before "mem.rx.rpc.allocated_bytes");
  check "rx alloc block counted" 1
    (M.counter_diff after before "mem.rx.rpc.alloc_blocks")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fastpath"
    [ ( "words",
        [ qc prop_blit_equals_bytes_blit;
          Alcotest.test_case "bounds" `Quick test_blit_bounds ] );
      ( "cipher",
        [ qc prop_native_matches_reference;
          Alcotest.test_case "SWAR corners" `Quick test_swar_known_bytes;
          Alcotest.test_case "native SAFER-simplified path allocates nothing"
            `Quick test_native_path_zero_alloc ] );
      ( "wire",
        [ Alcotest.test_case "send paths agree" `Quick test_send_paths_agree;
          Alcotest.test_case "recv paths agree" `Quick test_recv_paths_agree;
          Alcotest.test_case "validation" `Quick test_wire_validation;
          qc prop_wire_roundtrip_at_offsets;
          qc prop_sendv_equals_contiguous;
          Alcotest.test_case "staging drawn from pool" `Quick
            test_staging_from_pool ] );
      ( "pool",
        [ Alcotest.test_case "acquire/release reuse" `Quick test_pool_reuse;
          Alcotest.test_case "exhaustion fallback (cap 0)" `Quick
            test_pool_exhaustion_fallback;
          Alcotest.test_case "class cap bounds retention" `Quick
            test_pool_class_cap_bound;
          Alcotest.test_case "odd-sized release dropped" `Quick
            test_pool_odd_size_dropped ] );
      ( "memtraffic",
        [ Alcotest.test_case "per-direction ledger split" `Quick
            test_memtraffic_rx_split;
          Alcotest.test_case "rx metrics mirrored" `Quick
            test_memtraffic_rx_metrics_mirrored ] );
      ( "engine backends",
        [ Alcotest.test_case "byte-identical wire output" `Quick
            test_backends_byte_identical;
          Alcotest.test_case "native rx checksum" `Quick
            test_native_rx_checksum_agrees ] ) ]
