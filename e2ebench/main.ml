(* The end-to-end stack benchmark.

     e2ebench --workload {paper-sim|bulk-stream|rpc-fanin} --seed N
              --seconds S --trace {0|1}

   Prints, as its last line, one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1.  Exits
   1 when a check fails, naming the workload and seed. *)

open E2e
module W = Worlds
module B = Bench
module T = Tracer

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2ebench: " ^ s); exit 2) fmt

(* Run the wiring-fidelity check in a child process, so its allocations
   and heap growth stay out of this process's measurements. *)
let fidelity workload ~seed =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match Fidelity.check workload ~seed with
        | [], note ->
            prerr_endline note;
            0
        | errors, _ ->
            List.iter (fun e -> prerr_endline ("fidelity: " ^ e)) errors;
            1
        | exception e ->
            prerr_endline ("fidelity: " ^ Printexc.to_string e);
            1
      in
      flush_all ();
      Unix._exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> true
      | _ -> false)

let spans_dir = ".bench_out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "paper-sim | bulk-stream | rpc-fanin");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced per-layer metrics") ]
    (fun a -> die "unexpected argument %s" a)
    "e2ebench --workload W --seed N --seconds S --trace 0|1";
  let wl =
    match W.workload_of_string !workload with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !seconds < 1 then die "--seconds must be positive";
  let seed = !seed and name = W.workload_name wl in
  let fail_run errors =
    List.iter (fun e -> Printf.eprintf "e2ebench %s seed %d: %s\n" name seed e) errors;
    Printf.eprintf "e2ebench %s seed %d: FAILED\n%!" name seed
  in
  if not (fidelity wl ~seed) then begin
    fail_run [ "wiring fidelity check failed" ];
    exit 1
  end;
  let budget_ns s = int_of_float (s *. 1e9) in
  let need = B.min_ops wl in
  (* Stop after the time budget once enough ops are in; give up at a hard
     cap well inside the run's time limit. *)
  let stop_after (w : W.world) secs ~steps:_ ~elapsed_ns =
    elapsed_ns >= budget_ns ((2.0 *. secs) +. 30.0)
    || (elapsed_ns >= budget_ns secs && w.W.meter.W.completed >= need)
  in
  let errors = ref [] in
  let check l = errors := !errors @ l in
  let phase_checks (p : B.phase) =
    let m = p.B.world.W.meter in
    if m.W.completed < need then
      check [ Printf.sprintf "only %d ops completed (need %d)" m.W.completed need ];
    check (B.world_failures p.B.world);
    check (B.reconcile p)
  in
  let metrics, attempted, failed =
    if !trace = 0 then begin
      let setups = ref [] and world = ref None in
      for _ = 1 to B.setup_repeats do
        Option.iter (fun (w : W.world) -> w.W.teardown ()) !world;
        Gc.full_major ();
        let w, s = B.setup wl ~seed in
        setups := s :: !setups;
        world := Some w
      done;
      let w = Option.get !world in
      let p = B.run_phase w ~stop:(stop_after w (float_of_int !seconds)) in
      phase_checks p;
      let sim = match B.sim_metrics p with Ok l -> l | Error e -> check [ e ]; [] in
      let outstanding = B.pool_outstanding_after_teardown w in
      if outstanding <> 0 then check [ Printf.sprintf "%d pooled buffers never returned" outstanding ];
      let heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      in
      let m = w.W.meter in
      ( B.host_metrics p
        @ [ ("heap_peak_MB", heap_mb, "MB");
            ("setup_s", B.median !setups, "s") ]
        @ sim,
        m.W.completed + m.W.failed,
        m.W.failed )
    end
    else begin
      (* Untraced reference for half the budget, then a traced world with
         the same seed stepped exactly as far: every deterministic output
         must agree between the two. *)
      Gc.full_major ();
      let untraced_steps, untraced_goodput, du =
        let u, _ = B.setup wl ~seed in
        let pu = B.run_phase u ~stop:(stop_after u (float_of_int !seconds /. 2.0)) in
        phase_checks pu;
        let outstanding = B.pool_outstanding_after_teardown u in
        (pu.B.steps, B.goodput pu, B.deterministic pu ~pool_outstanding:outstanding)
      in
      (* The untraced world is garbage now; collect it so both phases
         start from the same heap. *)
      Gc.full_major ();
      let tr = T.create () in
      let t, _ = B.setup ~tracer:tr wl ~seed in
      let pt = B.run_phase ~tracer:tr t ~stop:(fun ~steps ~elapsed_ns:_ -> steps >= untraced_steps) in
      phase_checks pt;
      let ot = B.pool_outstanding_after_teardown t in
      if ot <> 0 then check [ Printf.sprintf "%d pooled buffers never returned" ot ];
      List.iter2
        (fun (k, a) (_, b) ->
          if a <> b then
            check [ Printf.sprintf "traced run differs from untraced: %s %.17g vs %.17g" k b a ])
        du (B.deterministic pt ~pool_outstanding:ot);
      if tr.T.lost > 0 then Printf.eprintf "e2ebench: span log full, %d spans not recorded\n" tr.T.lost;
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         T.write_tsv ~from:pt.B.span_from tr
           (Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.tsv" name seed))
       with Sys_error e -> check [ "writing spans: " ^ e ]);
      let m = t.W.meter in
      ( B.span_metrics tr pt ~untraced_goodput @ B.count_metrics pt ~pool_outstanding:ot,
        m.W.completed + m.W.failed,
        m.W.failed )
    end
  in
  let correct = !errors = [] in
  if not correct then fail_run !errors;
  print_endline (B.result_json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
