(* nmbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--cli PATH]

   NAME is check-exhaustive, tolerance-sweep, serve-mix, or all. With
   --trace 0 the run is timed with tracing off and reports the
   end-to-end metrics; with --trace 1 it records layer spans (written to
   .bench_run/trace-NAME-seedN.jsonl) and reports the per-layer metrics.
   Every metric prints as a line with its unit; the last line is one
   JSON object {"correct", "attempted", "failed", "metrics"}. The exit
   code is non-zero when any output differs from its pinned value or
   any operation failed. `all` runs every workload in both modes, each
   in a fresh process so peak memory is per workload. *)

open Common

let workloads = [ "check-exhaustive"; "tolerance-sweep"; "serve-mix" ]

(* Every per-layer metric, in report order. A workload reports 0 for a
   layer it does not run. *)
let per_layer =
  [
    ("engine.region_ms", "ms");
    ("engine.states", "count");
    ("engine.edges", "count");
    ("engine.states_per_s", "1/s");
    ("engine.alloc_mb", "MB");
    ("engine.visited_b_per_state", "B/state");
    ("dgraph.deadlock_scan_ms", "ms");
    ("dgraph.find_cycle_ms", "ms");
    ("dgraph.longest_path_ms", "ms");
    ("dgraph.alloc_mb", "MB");
    ("region.graph_b_per_edge", "B/edge");
    ("faultspan.ms", "ms");
    ("faultspan.states", "count");
    ("certify.ms", "ms");
    ("certify.closure_ms", "ms");
    ("certify.convergence_ms", "ms");
    ("certify.recurrence_ms", "ms");
    ("adversary.ms", "ms");
    ("adversary.waves", "count");
    ("sweep.points", "count");
    ("sweep.reused", "count");
    ("guarded.compile_ms", "ms");
    ("lang.compile_ms", "ms");
    ("lang.digest_ms", "ms");
    ("lang.models_per_s", "1/s");
    ("serve.queue_wait_ms", "ms");
    ("serve.job_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.states_explored", "count");
    ("serve.transport_ms", "ms");
    ("serve.p99_ms", "ms");
    ("serve.backlog_max", "count");
    ("serve.gen_lag_ms", "ms");
    ("serve.op.check_ms", "ms");
    ("serve.op.certify_ms", "ms");
    ("serve.op.tolerance_ms", "ms");
    ("serve.op.storm_ms", "ms");
    ("serve.op.hit_ms", "ms");
    ("render.ms", "ms");
    ("trace.overhead_s", "s");
    ("trace.coverage", "ratio");
  ]

let layer_metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("metric missing from the per-layer list: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      m name unit_ (match List.assoc_opt name values with Some v -> v | None -> 0.))
    per_layer

(* Self time and share of the traced total per span name. *)
let print_self_times spans =
  let rows = Nmbench.Spans.by_name spans in
  let top =
    List.fold_left
      (fun acc s ->
        if s.Nmbench.Spans.parent = -1 then acc +. Nmbench.Spans.duration s else acc)
      0. spans
  in
  Printf.printf "  %-34s %8s %12s %12s %7s\n" "span" "count" "self_ms" "total_ms" "self%";
  List.iter
    (fun (name, self, total, n) ->
      if n <= 64 || self > 0.001 *. top then
        Printf.printf "  %-34s %8d %12.3f %12.3f %6.1f%%\n" name n (1000. *. self)
          (1000. *. total)
          (if top > 0. then 100. *. self /. top else 0.))
    rows

let run_one ~workload ~seed ~seconds ~trace ~cli =
  ensure_run_dir ();
  let trace_file =
    Filename.concat run_dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed)
  in
  let t, metrics =
    if not trace then
      let setup_s () = fresh_process_setup ~workload ~n:25 in
      match workload with
      | "check-exhaustive" -> Check_exhaustive.timed_run ~seed ~seconds ~setup_s:(setup_s ())
      | "tolerance-sweep" -> Tolerance_sweep.timed_run ~seed ~seconds ~setup_s:(setup_s ())
      | _ -> Serve_mix.timed_run ~cli ~seed ~seconds
    else
      let t, spans, values =
        match workload with
        | "check-exhaustive" -> Check_exhaustive.traced_run ~seed ~seconds ~trace_file
        | "tolerance-sweep" -> Tolerance_sweep.traced_run ~seed ~seconds ~trace_file
        | _ -> Serve_mix.traced_run ~cli ~seed ~seconds ~trace_file
      in
      Printf.printf "nmbench %s: %d spans written to %s\n" workload
        (List.length spans) trace_file;
      print_self_times spans;
      (t, layer_metrics values)
  in
  print_result ~workload ~trace t metrics

(* `all`: each workload and mode in a child process of its own. *)
let run_all ~seed ~seconds ~cli =
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun tr ->
          let args =
            [|
              Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
              "--seconds"; string_of_float seconds; "--trace"; tr; "--cli"; cli;
            |]
          in
          let pid =
            Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
              Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> ok := false)
        [ "0"; "1" ])
    workloads;
  !ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false in
  let cli = ref "_build/default/bin/nonmask_cli.exe" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  check-exhaustive | tolerance-sweep | serve-mix | all" );
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1  timed run, or traced per-layer run");
      ("--cli", Arg.Set_string cli, "PATH  the nonmask executable serve-mix spawns");
      ( "--setup-only",
        Arg.Set setup_only,
        " print one process's median set-up time (closed-loop workloads)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !setup_only then begin
    (match !workload with
    | "check-exhaustive" -> Printf.printf "%.17g\n" (Check_exhaustive.setup_time ())
    | "tolerance-sweep" -> Printf.printf "%.17g\n" (Tolerance_sweep.setup_time ())
    | w -> failwith ("no set-up probe for " ^ w));
    exit 0
  end;
  let ok =
    if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds ~cli:!cli
    else if List.mem !workload workloads then
      run_one ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~cli:!cli
    else begin
      prerr_endline ("nmbench: unknown workload " ^ !workload);
      false
    end
  in
  exit (if ok then 0 else 1)
