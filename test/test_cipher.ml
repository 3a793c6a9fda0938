(* Cipher tests: published vectors, inverse properties, charged-vs-pure
   agreement, and avalanche sanity. *)

open Ilp_cipher
module Sim = Ilp_memsim.Sim
module Config = Ilp_memsim.Config
module Machine = Ilp_memsim.Machine
module Stats = Ilp_memsim.Stats

let check_s = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

let hex s =
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

let bits_differing a b =
  let count = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code b.[i] in
      for bit = 0 to 7 do
        if (x lsr bit) land 1 = 1 then incr count
      done)
    a;
  !count

let key8 = QCheck.(string_of_size (Gen.return 8))
let block8 = QCheck.(string_of_size (Gen.return 8))

(* ------------------------------------------------------------------ *)
(* DES *)

let test_des_fips_vector () =
  (* The classic FIPS worked example. *)
  let key = Des.expand_key (hex "133457799BBCDFF1") in
  check_s "encrypt" "85e813540f0ab405"
    (to_hex (Des.encrypt_string key (hex "0123456789ABCDEF")));
  check_s "decrypt" "0123456789abcdef"
    (to_hex (Des.decrypt_string key (hex "85E813540F0AB405")))

let test_des_known_weakish_key () =
  (* All-zero key, all-zero plaintext: standard reference value. *)
  let key = Des.expand_key (String.make 8 '\000') in
  check_s "zero/zero" "8ca64de9c1b123a7"
    (to_hex (Des.encrypt_string key (String.make 8 '\000')))

let prop_des_roundtrip =
  QCheck.Test.make ~count:150 ~name:"DES decrypt ∘ encrypt = id"
    QCheck.(pair key8 block8)
    (fun (k, p) ->
      let key = Des.expand_key k in
      Des.decrypt_string key (Des.encrypt_string key p) = p)

let test_des_charged_matches_pure () =
  let sim = Sim.create (Config.custom ()) in
  let c = Des.charged sim ~key:(hex "133457799BBCDFF1") () in
  let ct = Block_cipher.encrypt_string c (hex "0123456789ABCDEF") in
  check_s "charged = published" "85e813540f0ab405" (to_hex ct);
  checkb "roundtrip_ok" true (Block_cipher.roundtrip_ok c);
  checkb "sbox reads charged" true
    (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read > 0)

let test_des_bad_key_length () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Des.expand_key: key must be 8 bytes") (fun () ->
      ignore (Des.expand_key "short"))

(* ------------------------------------------------------------------ *)
(* SAFER K-64 *)

let test_safer_published_vector () =
  (* Massey's test vector: key (8,7,...,1), plaintext (1,2,...,8),
     6 rounds. *)
  let key = Safer.expand_key "\008\007\006\005\004\003\002\001" in
  check_s "encrypt" "c8f29cdd87783ed9"
    (to_hex (Safer.encrypt_string key "\001\002\003\004\005\006\007\008"));
  check_s "decrypt" "0102030405060708"
    (to_hex (Safer.decrypt_string key (hex "c8f29cdd87783ed9")))

let test_safer_tables () =
  check "exp 0" 1 Safer.exp_table.(0);
  check "exp 128 encodes 256" 0 Safer.exp_table.(128);
  check "log 1" 0 Safer.log_table.(1);
  check "log 0" 128 Safer.log_table.(0);
  (* The tables are mutually inverse bijections. *)
  for i = 0 to 255 do
    if Safer.log_table.(Safer.exp_table.(i)) <> i then
      Alcotest.failf "log(exp %d) <> %d" i i
  done

let prop_safer_roundtrip =
  QCheck.Test.make ~count:150 ~name:"SAFER decrypt ∘ encrypt = id (6 rounds)"
    QCheck.(pair key8 block8)
    (fun (k, p) ->
      let key = Safer.expand_key k in
      Safer.decrypt_string key (Safer.encrypt_string key p) = p)

let prop_safer_roundtrip_rounds =
  QCheck.Test.make ~count:60 ~name:"SAFER round trip for 1..10 rounds"
    QCheck.(triple (int_range 1 10) key8 block8)
    (fun (rounds, k, p) ->
      let key = Safer.expand_key ~rounds k in
      Safer.decrypt_string key (Safer.encrypt_string key p) = p)

let test_safer_avalanche () =
  let key = Safer.expand_key "\008\007\006\005\004\003\002\001" in
  let p1 = "\001\002\003\004\005\006\007\008" in
  let p2 = "\000\002\003\004\005\006\007\008" in
  let d = bits_differing (Safer.encrypt_string key p1) (Safer.encrypt_string key p2) in
  checkb "one flipped input bit changes many output bits" true (d >= 16)

let test_safer_charged_matches_pure () =
  let sim = Sim.create (Config.custom ()) in
  let c = Safer.charged sim ~key:"\008\007\006\005\004\003\002\001" () in
  check_s "charged = published" "c8f29cdd87783ed9"
    (to_hex (Block_cipher.encrypt_string c "\001\002\003\004\005\006\007\008"));
  checkb "roundtrip_ok" true (Block_cipher.roundtrip_ok c)

let test_safer_validation () =
  Alcotest.check_raises "rounds range"
    (Invalid_argument "Safer.expand_key: rounds") (fun () ->
      ignore (Safer.expand_key ~rounds:0 "12345678"));
  Alcotest.check_raises "key length"
    (Invalid_argument "Safer.expand_key: key must be 8 bytes") (fun () ->
      ignore (Safer.expand_key "123"))

(* ------------------------------------------------------------------ *)
(* Simplified SAFER *)

let prop_simplified_roundtrip =
  QCheck.Test.make ~count:200 ~name:"simplified SAFER decrypt ∘ encrypt = id"
    QCheck.(pair key8 block8)
    (fun (k, p) ->
      let key = Safer_simplified.expand_key k in
      Safer_simplified.decrypt_string key (Safer_simplified.encrypt_string key p) = p)

let test_simplified_charged_matches_pure () =
  let sim = Sim.create (Config.custom ()) in
  let key = "\x11\x22\x33\x44\x55\x66\x77\x88" in
  let c = Safer_simplified.charged sim ~key () in
  let pure = Safer_simplified.expand_key key in
  let pt = "blockdat" in
  check_s "charged encrypt = pure"
    (to_hex (Safer_simplified.encrypt_string pure pt))
    (to_hex (Block_cipher.encrypt_string c pt));
  checkb "roundtrip_ok (with decrypt spill)" true (Block_cipher.roundtrip_ok c)

let test_simplified_actually_encrypts () =
  let key = Safer_simplified.expand_key "\x11\x22\x33\x44\x55\x66\x77\x88" in
  checkb "not identity" true
    (Safer_simplified.encrypt_string key "AAAAAAAA" <> "AAAAAAAA")

let test_simplified_charged_traffic () =
  (* One block costs key-vector and table reads: the byte-vector-per-byte
     characteristic the paper's cache analysis hinges on. *)
  let sim = Sim.create (Config.custom ()) in
  let c = Safer_simplified.charged sim ~key:"\x11\x22\x33\x44\x55\x66\x77\x88" () in
  let b = Bytes.of_string "12345678" in
  Machine.reset_counters sim.Sim.machine;
  c.Block_cipher.encrypt b 0;
  let reads = Stats.accesses_of_size (Machine.stats sim.Sim.machine) Stats.Read ~size:1 in
  check "16 one-byte reads per block (8 key + 8 table)" 16 reads

let test_simplified_spill_bounds () =
  let sim = Sim.create (Config.custom ()) in
  let key = "\x11\x22\x33\x44\x55\x66\x77\x88" in
  List.iter
    (fun spill_bytes ->
      Alcotest.check_raises
        (Printf.sprintf "spill_bytes %d" spill_bytes)
        (Invalid_argument "Safer_simplified.charged: spill_bytes must be in 0..8")
        (fun () -> ignore (Safer_simplified.charged sim ~spill_bytes ~key ())))
    [ -1; 9; 64 ];
  List.iter
    (fun spill_bytes ->
      let c = Safer_simplified.charged sim ~spill_bytes ~key () in
      checkb
        (Printf.sprintf "roundtrip with spill_bytes %d" spill_bytes)
        true (Block_cipher.roundtrip_ok c))
    [ 0; 8 ]

(* Output bytes 2j and 2j+1 depend only on input bytes 2j and 2j+1 (key
   layer and table per byte, then one PHT per pair), so enumerating all
   65,536 values of each pair covers every input the batch kernels can
   see.  The other six bytes of each block carry a filler that varies per
   block, so a kernel that mixed pairs would also show.  The oracle is the
   closure core behind [encrypt_block]/[decrypt_block]. *)
let exhaustive_pairs name user_key =
  let key = Safer_simplified.expand_key user_key in
  let n = 65536 in
  let first_diff a b =
    let rec go blk =
      if Bytes.sub a (blk * 8) 8 <> Bytes.sub b (blk * 8) 8 then blk else go (blk + 1)
    in
    go 0
  in
  let agree what kernel oracle input =
    let native = Bytes.copy input and expected = Bytes.copy input in
    kernel key native ~off:0 ~count:n;
    for blk = 0 to n - 1 do
      oracle key expected (blk * 8)
    done;
    if not (Bytes.equal native expected) then begin
      let blk = first_diff native expected in
      Alcotest.failf "%s %s: block %s -> native %s, core %s" name what
        (to_hex (Bytes.sub_string input (blk * 8) 8))
        (to_hex (Bytes.sub_string native (blk * 8) 8))
        (to_hex (Bytes.sub_string expected (blk * 8) 8))
    end
  in
  for j = 0 to 3 do
    let input =
      Bytes.init (n * 8) (fun p ->
          let blk = p lsr 3 and i = p land 7 in
          if i = 2 * j then Char.chr (blk lsr 8)
          else if i = (2 * j) + 1 then Char.chr (blk land 0xff)
          else Char.chr (((blk * 167) + (i * 59)) land 0xff))
    in
    agree (Printf.sprintf "encrypt pair %d" j) Safer_simplified.encrypt_blocks
      Safer_simplified.encrypt_block input;
    agree (Printf.sprintf "decrypt pair %d" j) Safer_simplified.decrypt_blocks
      Safer_simplified.decrypt_block input
  done

let test_simplified_native_exhaustive () =
  let rng = Random.State.make [| 14; 0x5afe |] in
  let random_key () = String.init 8 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let keys =
    [ ("key 00..", String.make 8 '\x00');
      ("key ff..", String.make 8 '\xff');
      ("key 80..", String.make 8 '\x80') ]
    @ List.init 5 (fun i ->
          let k = random_key () in
          (Printf.sprintf "random key %d (%s)" i (to_hex k), k))
  in
  List.iter (fun (name, k) -> exhaustive_pairs name k) keys

(* ------------------------------------------------------------------ *)
(* Simple cipher *)

let prop_simple_roundtrip =
  QCheck.Test.make ~count:200 ~name:"simple cipher decrypt ∘ encrypt = id"
    block8
    (fun p -> Simple_cipher.decrypt_string (Simple_cipher.encrypt_string p) = p)

let test_simple_no_table_traffic () =
  let sim = Sim.create (Config.custom ()) in
  let c = Simple_cipher.charged sim in
  let b = Bytes.of_string "12345678" in
  Machine.reset_counters sim.Sim.machine;
  c.Block_cipher.encrypt b 0;
  check "no data reads at all" 0 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read);
  checkb "but ALU work happened" true (Machine.cycles sim.Sim.machine > 0.0)

let test_store_units () =
  let sim = Sim.create (Config.custom ()) in
  check "SAFER stores bytes" 1
    (Safer.charged sim ~key:"12345678" ()).Block_cipher.store_unit;
  check "simplified stores bytes" 1
    (Safer_simplified.charged sim ~key:"12345678" ()).Block_cipher.store_unit;
  check "simple stores words" 4 (Simple_cipher.charged sim).Block_cipher.store_unit

(* ------------------------------------------------------------------ *)
(* Batch block APIs *)

let multi8 = QCheck.(string_of_size Gen.(map (fun n -> n * 8) (int_range 0 16)))

(* Every charged cipher's batch kernel must agree with looping its own
   per-block function; the Block_cipher dispatch must also agree when the
   batch fields are stripped (fallback path). *)
let prop_batch_matches_per_block =
  QCheck.Test.make ~count:80 ~name:"batch kernels = per-block loop (all ciphers)"
    QCheck.(pair key8 multi8)
    (fun (k, s) ->
      let sim = Sim.create (Config.custom ()) in
      let ciphers =
        [ Des.charged sim ~key:k ();
          Safer.charged sim ~key:k ();
          Safer_simplified.charged sim ~key:k ();
          Simple_cipher.charged sim ]
      in
      List.for_all
        (fun c ->
          let count = String.length s / 8 in
          let batch = Bytes.of_string s in
          Block_cipher.encrypt_blocks c batch ~off:0 ~count;
          let expected = Block_cipher.encrypt_string c s in
          let ok_enc = Bytes.to_string batch = expected in
          Block_cipher.decrypt_blocks c batch ~off:0 ~count;
          let ok_dec = Bytes.to_string batch = s in
          let fallback = { c with Block_cipher.encrypt_blocks = None; decrypt_blocks = None } in
          let fb = Bytes.of_string s in
          Block_cipher.encrypt_blocks fallback fb ~off:0 ~count;
          ok_enc && ok_dec && Bytes.to_string fb = expected)
        ciphers)

let prop_pure_batch_matches_string =
  QCheck.Test.make ~count:80 ~name:"pure batch kernels = ECB over string"
    QCheck.(pair key8 multi8)
    (fun (k, s) ->
      let count = String.length s / 8 in
      let check2 enc dec expected =
        let b = Bytes.of_string s in
        enc b;
        let ok = Bytes.to_string b = expected in
        dec b;
        ok && Bytes.to_string b = s
      in
      let dk = Des.expand_key k in
      let sk = Safer.expand_key k in
      let pk = Safer_simplified.expand_key k in
      check2
        (fun b -> Des.encrypt_blocks dk b ~off:0 ~count)
        (fun b -> Des.decrypt_blocks dk b ~off:0 ~count)
        (Des.encrypt_string dk s)
      && check2
           (fun b -> Safer.encrypt_blocks sk b ~off:0 ~count)
           (fun b -> Safer.decrypt_blocks sk b ~off:0 ~count)
           (Safer.encrypt_string sk s)
      && check2
           (fun b -> Safer_simplified.encrypt_blocks pk b ~off:0 ~count)
           (fun b -> Safer_simplified.decrypt_blocks pk b ~off:0 ~count)
           (Safer_simplified.encrypt_string pk s)
      && check2
           (fun b -> Simple_cipher.encrypt_blocks b ~off:0 ~count)
           (fun b -> Simple_cipher.decrypt_blocks b ~off:0 ~count)
           (Simple_cipher.encrypt_string s))

let test_batch_out_of_bounds () =
  let key = Safer_simplified.expand_key "12345678" in
  let b = Bytes.create 16 in
  (match Safer_simplified.encrypt_blocks key b ~off:0 ~count:3 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let sim = Sim.create (Config.custom ()) in
  let c = Simple_cipher.charged sim in
  match Block_cipher.encrypt_blocks c b ~off:9 ~count:1 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_block_cipher_bad_length () =
  let sim = Sim.create (Config.custom ()) in
  let c = Simple_cipher.charged sim in
  (match Block_cipher.encrypt_string c "123" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (match Safer.encrypt_string (Safer.expand_key "12345678") "123456789" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "cipher"
    [ ( "des",
        [ Alcotest.test_case "FIPS worked example" `Quick test_des_fips_vector;
          Alcotest.test_case "zero key vector" `Quick test_des_known_weakish_key;
          Alcotest.test_case "charged matches pure" `Quick test_des_charged_matches_pure;
          Alcotest.test_case "bad key" `Quick test_des_bad_key_length;
          qc prop_des_roundtrip ] );
      ( "safer",
        [ Alcotest.test_case "published vector" `Quick test_safer_published_vector;
          Alcotest.test_case "exp/log tables" `Quick test_safer_tables;
          Alcotest.test_case "avalanche" `Quick test_safer_avalanche;
          Alcotest.test_case "charged matches pure" `Quick
            test_safer_charged_matches_pure;
          Alcotest.test_case "validation" `Quick test_safer_validation;
          qc prop_safer_roundtrip;
          qc prop_safer_roundtrip_rounds ] );
      ( "simplified",
        [ Alcotest.test_case "charged matches pure" `Quick
            test_simplified_charged_matches_pure;
          Alcotest.test_case "actually encrypts" `Quick test_simplified_actually_encrypts;
          Alcotest.test_case "per-byte memory traffic" `Quick
            test_simplified_charged_traffic;
          Alcotest.test_case "spill_bytes outside 0..8 refused" `Quick
            test_simplified_spill_bounds;
          Alcotest.test_case "native = core on every byte pair" `Quick
            test_simplified_native_exhaustive;
          qc prop_simplified_roundtrip ] );
      ( "simple",
        [ Alcotest.test_case "no table traffic" `Quick test_simple_no_table_traffic;
          Alcotest.test_case "store units" `Quick test_store_units;
          Alcotest.test_case "bad length" `Quick test_block_cipher_bad_length;
          qc prop_simple_roundtrip ] );
      ( "batch",
        [ Alcotest.test_case "out of bounds" `Quick test_batch_out_of_bounds;
          qc prop_batch_matches_per_block;
          qc prop_pure_batch_matches_string ] ) ]
