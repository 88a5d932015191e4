(* Shared plumbing for the workloads: timing, memory readings, the
   correctness tally, and the result printer. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let run_dir = ".bench_run"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

(* VmHWM of a process, in MB; [nan] when /proc is unreadable. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line -> (
            try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

let alloc_mb f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. a0) /. 1e6)

(* --- correctness tally ----------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

(* One operation: [ok] false counts it failed; a [wrong] output (a
   verdict, count or bound that differs from the pinned value) also makes
   the run incorrect. *)
let record t ?(wrong = false) ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if wrong then t.wrong <- t.wrong + 1;
    prerr_endline ("nmbench: FAILED: " ^ what)
  end

let expect t ~what expected actual =
  record t ~wrong:true
    ~what:(Printf.sprintf "%s: expected %s, got %s" what expected actual)
    (expected = actual)

(* --- output ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every metric as a readable line, then the one-line JSON result last. *)
let print_result ~workload ~trace t metrics =
  Printf.printf "nmbench %s (%s run): attempted %d, failed %d, fail_frac %.6f\n"
    workload
    (if trace then "traced" else "timed")
    t.attempted t.failed
    (if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted);
  List.iter
    (fun x -> Printf.printf "  %-28s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then prerr_endline "nmbench: a metric is not a finite number";
  let correct = t.wrong = 0 && finite in
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (if Float.is_finite x.value then json_number x.value else "null")
          x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 t.attempted) t.failed (String.concat ", " fields);
  correct && t.failed = 0

(* Median of [k] set-up repetitions, the first discarded as warm-up. *)
let median_setup ~k f =
  let times = Array.init k (fun _ -> snd (timed f)) in
  Nmbench.Stats.median (Array.sub times 1 (k - 1))

(* Set-up takes a fraction of a millisecond, and such short work runs
   tens of percent faster or slower depending on the process it lands
   in (its CPU and memory placement), while the CLI pays set-up once per
   process. So set-up time is the mean, over [n] fresh processes, of each
   one's median: the executable re-runs itself with --setup-only. *)
let fresh_process_setup ~workload ~n =
  let one () =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "--workload"; workload; "--setup-only" |]
    in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
    | Unix.WEXITED 0, Some v -> v
    | _ -> failwith "set-up probe failed"
  in
  Nmbench.Stats.mean (Array.init n (fun _ -> one ()))

(* Repeat [round] while the next one is expected to end within
   [seconds] (judged by the last one's length), at least [min_rounds]
   times; returns the per-round results in order. *)
let repeat_for ~seconds ?(min_rounds = 1) round =
  let t0 = now () in
  let rec go i last acc =
    if i >= min_rounds && now () -. t0 +. last > seconds then List.rev acc
    else
      let r, dt = timed (fun () -> round i) in
      go (i + 1) dt (r :: acc)
  in
  go 0 0. []

let median_of f rounds = Nmbench.Stats.median (Array.of_list (List.map f rounds))
