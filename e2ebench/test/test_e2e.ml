(* The benchmark's own tests, at reduced size: determinism per seed, a
   different loss pattern per seed on the lossy workload, the byte check
   biting on a corrupted expected payload, traced runs agreeing with
   untraced ones, and the registry reconciliation holding. *)

open E2e
module W = Worlds
module B = Bench

(* Small runs: [ops] ops in the measured phase, the virtual-clock window
   over all of them. *)
let small_ops = function W.Paper_sim -> 6 | W.Bulk_stream -> 24 | W.Rpc_fanin -> 80

let run ?tracer ?corrupt workload ~seed =
  let ops = small_ops workload in
  let w, _ = B.setup ?tracer ?corrupt ~sim_window:ops workload ~seed in
  let p = B.run_phase ?tracer w ~stop:(fun ~steps:_ ~elapsed_ns:_ -> w.W.meter.W.completed >= ops) in
  let outstanding = B.pool_outstanding_after_teardown w in
  (p, outstanding)

let deterministic (p, outstanding) = B.deterministic p ~pool_outstanding:outstanding

let metric name l = List.assoc name l

let clean (p, outstanding) =
  Alcotest.(check (list string)) "no failures" [] (B.world_failures p.B.world);
  Alcotest.(check (list string)) "registry agrees" [] (B.reconcile p);
  Alcotest.(check int) "pool balanced" 0 outstanding

let pairs = Alcotest.(list (pair string (float 0.0)))

let test_same_seed workload () =
  let a = run workload ~seed:7 and b = run workload ~seed:7 in
  clean a;
  clean b;
  Alcotest.check pairs "identical sim and count metrics" (deterministic a) (deterministic b)

let test_fanin_seeds () =
  let a = run W.Rpc_fanin ~seed:3 and b = run W.Rpc_fanin ~seed:4 in
  clean a;
  clean b;
  let da = deterministic a and db = deterministic b in
  Alcotest.(check bool) "different wires" true (metric "wire_digest" da <> metric "wire_digest" db);
  Alcotest.(check bool) "loss on both" true
    (metric "link.dropped_pct" da > 0.0 && metric "link.dropped_pct" db > 0.0);
  Alcotest.(check (float 0.0)) "no failed ops (a)" 0.0 (metric "ops_failed_pct" da);
  Alcotest.(check (float 0.0)) "no failed ops (b)" 0.0 (metric "ops_failed_pct" db)

let test_corrupt workload () =
  let ops = small_ops workload in
  let w, _ = B.setup ~corrupt:true ~sim_window:ops workload ~seed:5 in
  ignore (B.run_phase w ~stop:(fun ~steps ~elapsed_ns:_ -> steps > 10_000));
  Alcotest.(check bool) "the byte check fails" true (B.world_failures w <> [])

let test_traced workload () =
  let u = run workload ~seed:9 in
  let tr = Tracer.create ~capacity:(1 lsl 16) () in
  let t = run ~tracer:tr workload ~seed:9 in
  clean t;
  Alcotest.check pairs "traced = untraced" (deterministic u) (deterministic t);
  let totals = Tracer.totals tr in
  Alcotest.(check bool) "spans recorded" true (tr.Tracer.len > 0 && tr.Tracer.lost = 0);
  Alcotest.(check bool) "clock spans" true (totals.Tracer.calls.(Tracer.clock) > 0)

(* The tracer's self-time arithmetic on a hand-built nesting, including a
   provisional span whose closing hook never fires. *)
let test_tracer_nesting () =
  let tr = Tracer.create ~capacity:16 () in
  let a = Tracer.enter tr Tracer.clock ~op:0 ~arg:0 in
  let b = Tracer.enter tr Tracer.link_send ~op:0 ~arg:10 in
  Tracer.leave tr b;
  Tracer.enter_provisional tr Tracer.rpc_reply ~op:0 ~arg:0;
  let c = Tracer.enter tr Tracer.engine_rx ~op:0 ~arg:5 in
  Tracer.leave tr c;
  Tracer.leave tr a;
  let t = Tracer.totals tr in
  Alcotest.(check int) "failed attempt dropped" 0 t.Tracer.calls.(Tracer.rpc_reply);
  Alcotest.(check int) "sibling kept" 1 t.Tracer.calls.(Tracer.engine_rx);
  Alcotest.(check int) "stack unwound" (-1) tr.Tracer.top;
  let self = t.Tracer.self_ns.(Tracer.clock) and incl = t.Tracer.incl_ns.(Tracer.clock) in
  Alcotest.(check (float 0.0)) "self = inclusive - children" self
    (incl -. t.Tracer.incl_ns.(Tracer.link_send) -. t.Tracer.incl_ns.(Tracer.engine_rx))

let per_workload name f =
  List.map
    (fun w -> Alcotest.test_case (name ^ " " ^ W.workload_name w) `Quick (f w))
    W.workloads

let () =
  Alcotest.run "e2ebench"
    [ ("determinism", per_workload "same seed" test_same_seed);
      ("seeds", [ Alcotest.test_case "rpc-fanin loss pattern" `Quick test_fanin_seeds ]);
      ("verification", per_workload "corrupted payload" test_corrupt);
      ("tracing",
        Alcotest.test_case "nesting" `Quick test_tracer_nesting
        :: per_workload "traced = untraced" test_traced) ]
