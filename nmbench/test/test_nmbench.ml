(* Self-tests for the benchmark's measurement arithmetic: percentiles,
   span self-times and coverage, open-loop schedules, and lateness
   accounting. *)

open Nmbench

let close_to ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- Stats ----------------------------------------------------------- *)

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  close_to "p50 of 1..100" 50. (Stats.nearest_rank 50. xs);
  close_to "p99 of 1..100" 99. (Stats.nearest_rank 99. xs);
  close_to "p100 of 1..100" 100. (Stats.nearest_rank 100. xs);
  close_to "p0 clamps to the minimum" 1. (Stats.nearest_rank 0. xs);
  close_to "p99 of one sample" 7. (Stats.nearest_rank 99. [| 7. |]);
  close_to "p99 of 10 samples is the maximum" 10.
    (Stats.nearest_rank 99. (Array.init 10 (fun i -> float_of_int (i + 1))));
  close_to "median, odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  close_to "median, even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check bool) "median of nothing" true (Float.is_nan (Stats.median [||]));
  close_to "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  close_to "input left unsorted" 100. xs.(0)

(* --- Spans ----------------------------------------------------------- *)

(* A clock that returns the scripted instants in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: tl ->
        q := tl;
        t
    | [] -> failwith "clock script exhausted"

let test_self_time () =
  (* op [0,10] with children a [1,4] and b [3,7]; b has a child c [5,6] *)
  let tr = Spans.create ~clock:(scripted [ 0.; 1.; 4.; 3.; 5.; 6.; 7.; 10. ]) () in
  Spans.with_span tr ~op:0 "op" (fun () ->
      Spans.with_span tr ~op:0 "a" (fun () -> ());
      Spans.with_span tr ~op:0 "b" (fun () -> Spans.with_span tr ~op:0 "c" (fun () -> ())));
  let all = Spans.spans tr in
  let idx = Spans.index all in
  let find n = List.find (fun s -> s.Spans.name = n) all in
  Alcotest.(check int) "four spans" 4 (List.length all);
  Alcotest.(check int) "c's parent is b" (find "b").id (find "c").parent;
  Alcotest.(check int) "op is top level" (-1) (find "op").parent;
  (* children a and b overlap on [3,4]: the union [1,7] is 6 long *)
  close_to "op self time" 4. (Spans.self_time idx (find "op"));
  close_to "b self time" 3. (Spans.self_time idx (find "b"));
  close_to "leaf self time = duration" 3. (Spans.self_time idx (find "a"));
  (* leaves a [1,4] and c [5,6] cover 4 of 10 *)
  close_to "op leaf coverage" 0.4 (Spans.leaf_coverage idx (find "op"));
  close_to "ops' coverage" 0.4 (Spans.op_coverage all);
  let names = List.map (fun (n, _, _, _) -> n) (Spans.by_name all) in
  Alcotest.(check (list string)) "by_name in first-seen order" [ "a"; "c"; "b"; "op" ] names

let test_coverage_weighted () =
  (* op 0 [0,10] with a leaf over [2,6]; op 1 [10,20] with a leaf over
     all of it: 14 of 20 covered *)
  let tr = Spans.create () in
  let o0 = Spans.add tr ~op:0 "op" ~start:0. ~stop:10. in
  ignore (Spans.add tr ~op:0 ~parent:o0 "a" ~start:2. ~stop:6.);
  let o1 = Spans.add tr ~op:1 "op" ~start:10. ~stop:20. in
  ignore (Spans.add tr ~op:1 ~parent:o1 "a" ~start:10. ~stop:20.);
  close_to "time-weighted over ops" 0.7 (Spans.op_coverage (Spans.spans tr))

let test_add_nested () =
  (* as a program reports them, innermost first: c [2,3] inside b [1,5],
     a [6,7] beside b *)
  let tr = Spans.create () in
  let top = Spans.add tr ~op:0 "top" ~start:0. ~stop:10. in
  Spans.add_nested tr ~op:0 ~parent:top
    [ (0, "c", 2., 3.); (1, "b", 1., 5.); (2, "a", 6., 7.) ];
  let all = Spans.spans tr in
  let find n = List.find (fun s -> s.Spans.name = n) all in
  Alcotest.(check int) "b under top" top (find "b").parent;
  Alcotest.(check int) "a under top" top (find "a").parent;
  Alcotest.(check int) "c under b" (find "b").id (find "c").parent;
  (* c starts a microsecond before its parent: rounding, still inside *)
  let tr = Spans.create () in
  let top = Spans.add tr ~op:0 "top" ~start:0. ~stop:10. in
  Spans.add_nested tr ~op:0 ~parent:top [ (0, "c", 1. -. 1e-6, 2.); (1, "b", 1., 5.) ];
  let all = Spans.spans tr in
  let find n = List.find (fun s -> s.Spans.name = n) all in
  Alcotest.(check int) "rounded child still under b" (find "b").id (find "c").parent

let test_self_time_exception () =
  let tr = Spans.create ~clock:(scripted [ 0.; 2. ]) () in
  (try Spans.with_span tr ~op:3 "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Spans.spans tr with
  | [ s ] ->
      close_to "a raising call is still recorded" 2. (Spans.duration s);
      Alcotest.(check int) "op id kept" 3 s.op
  | _ -> Alcotest.fail "expected one span"

let test_covered () =
  close_to "disjoint" 3. (Spans.covered ~lo:0. ~hi:10. [ (0., 1.); (2., 4.) ]);
  close_to "nested" 5. (Spans.covered ~lo:0. ~hi:10. [ (1., 6.); (2., 3.) ]);
  close_to "clipped" 2. (Spans.covered ~lo:0. ~hi:2. [ (-1., 5.) ]);
  close_to "empty" 0. (Spans.covered ~lo:0. ~hi:1. [])

(* --- Openloop -------------------------------------------------------- *)

let signature (slots, next) =
  ( next,
    Array.to_list
      (Array.map (fun s -> (s.Openloop.due, Openloop.kind_name s.kind, s.pick)) slots) )

let test_schedule_determinism () =
  let a = Openloop.schedule ~seed:42 ~rate:300. ~count:2000 () in
  let b = Openloop.schedule ~seed:42 ~rate:300. ~count:2000 () in
  let c = Openloop.schedule ~seed:43 ~rate:300. ~count:2000 () in
  Alcotest.(check bool) "same seed, same schedule" true (signature a = signature b);
  Alcotest.(check bool) "another seed, another schedule" false (signature a = signature c)

let test_schedule_shape () =
  let slots, next = Openloop.schedule ~seed:7 ~rate:200. ~count:4000 ~first_model:100 () in
  let gap = 1. /. 200. in
  Array.iteri
    (fun i s -> close_to "evenly spaced" (float_of_int i *. gap) s.Openloop.due)
    slots;
  let colds =
    Array.to_list slots |> List.filter (fun s -> s.Openloop.kind = Openloop.Cold_check)
  in
  Alcotest.(check (list int)) "cold checks number the corpus consecutively"
    (List.init (List.length colds) (fun i -> 100 + i))
    (List.map (fun s -> s.Openloop.pick) colds);
  Alcotest.(check int) "next model follows the last" (100 + List.length colds) next;
  Array.iteri
    (fun i s ->
      if s.Openloop.kind = Openloop.Repeat then begin
        let o = slots.(s.pick) in
        if o.kind = Openloop.Repeat then Alcotest.fail "a repeat repeats a repeat";
        if s.due -. o.due < 0.25 -. 1e-9 then
          Alcotest.failf "repeat %d follows its original too closely" i
      end)
    slots;
  let share k =
    let n = Array.fold_left (fun a s -> if s.Openloop.kind = k then a + 1 else a) 0 slots in
    float_of_int n /. 4000.
  in
  if share Openloop.Cold_check < 0.55 then
    Alcotest.fail "cold checks should dominate the mix";
  if share Openloop.Repeat < 0.08 then Alcotest.fail "repeats missing from the mix"

let outcome ?(ok = true) due sent recv =
  { Openloop.o_due = due; o_sent = sent; o_recv = recv; o_ok = ok }

let test_lateness () =
  (* sent 30 ms late, answered 10 ms after sending: 40 ms from due *)
  let late = outcome 1.0 1.03 1.04 in
  close_to ~eps:1e-12 "latency from the due time" 0.04 (Openloop.latency ~timeout:10. late);
  close_to ~eps:1e-12 "generator lag" 0.03 (Openloop.lag late);
  close_to "early sends have no lag" 0. (Openloop.lag (outcome 1.0 0.999 1.001));
  let failed = outcome ~ok:false 1.0 1.0 1.001 in
  close_to "a failed request misses every limit" 10. (Openloop.latency ~timeout:10. failed);
  let outs =
    Array.init 99 (fun i ->
        let t = float_of_int i in
        outcome t t (t +. 0.001))
  in
  let outs = Array.append outs [| failed |] in
  let s = Openloop.summarize ~timeout:10. outs in
  Alcotest.(check int) "failed counted" 1 s.failed;
  close_to ~eps:1e-9 "p50 unaffected" 0.001 s.p50;
  close_to ~eps:1e-9 "p99 still fast with one failure in 100" 0.001 s.p99;
  let s2 = Openloop.summarize ~timeout:10. (Array.append outs [| failed |]) in
  close_to "two failures in 101 push p99 to the timeout" 10. s2.p99

let test_backlog () =
  let outs = [| outcome 0. 0. 3.; outcome 1. 1. 2.; outcome 2. 2. 4.; outcome 5. 5. 6. |] in
  Alcotest.(check int) "a reply at the instant of a send is counted first" 1
    (Openloop.backlog_max [| outs.(1); outs.(2) |]);
  Alcotest.(check int) "peak backlog" 2 (Openloop.backlog_max outs);
  Alcotest.(check int) "no requests" 0 (Openloop.backlog_max [||])

let test_windowed_p99 () =
  (* 4000 requests over 4 s, 1 ms each, but 50 early ones take 1 s: one
     bad stretch moves one window of three. *)
  let outs =
    Array.init 4000 (fun i ->
        let t = float_of_int i /. 1000. in
        outcome t t (t +. if i < 50 then 1.0 else 0.001))
  in
  let s = Openloop.summarize ~timeout:10. outs in
  close_to ~eps:1e-9 "whole-phase p99 sees the bad second" 1.0 s.p99;
  close_to ~eps:1e-9 "median of window p99s" 0.001
    (Openloop.windowed_p99 ~timeout:10. ~window:1. outs);
  close_to ~eps:1e-9 "too few requests for windows: one window" 1.0
    (Openloop.windowed_p99 ~timeout:10. ~window:0.1 (Array.sub outs 0 1500))

let test_throughput () =
  (* 100 replies a second for 10 s, but nothing during a 1 s stall *)
  let recv =
    Array.init 1000 (fun i -> 0.005 +. (float_of_int i /. 100.))
    |> Array.to_list
    |> List.filter (fun t -> t < 4. || t >= 5.)
    |> Array.of_list
  in
  close_to ~eps:1e-9 "median of bin rates ignores the stall" 100.
    (Openloop.throughput ~bin:0.5 ~from:0. ~until:10. recv);
  close_to ~eps:1e-9 "replies before [from] are not counted" 100.
    (Openloop.throughput ~bin:0.5 ~from:6. ~until:10. recv);
  (* 9 whole bins of 1 s in [0, 9.5): the half bin left over is dropped *)
  close_to ~eps:1e-9 "a partial last bin is dropped" 100.
    (Openloop.throughput ~bin:1. ~from:0. ~until:9.5 recv);
  close_to ~eps:1e-9 "a range shorter than a bin is one bin" 100.
    (Openloop.throughput ~bin:1. ~from:0. ~until:0.5 recv);
  Alcotest.(check bool) "an empty range has no rate" true
    (Float.is_nan (Openloop.throughput ~bin:1. ~from:1. ~until:1. recv))

let () =
  Alcotest.run "nmbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time and coverage" `Quick test_self_time;
          Alcotest.test_case "time-weighted coverage" `Quick test_coverage_weighted;
          Alcotest.test_case "nesting reported intervals" `Quick test_add_nested;
          Alcotest.test_case "raising span" `Quick test_self_time_exception;
          Alcotest.test_case "interval union" `Quick test_covered;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "schedule determinism" `Quick test_schedule_determinism;
          Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
          Alcotest.test_case "lateness accounting" `Quick test_lateness;
          Alcotest.test_case "backlog" `Quick test_backlog;
          Alcotest.test_case "windowed p99" `Quick test_windowed_p99;
          Alcotest.test_case "saturation throughput" `Quick test_throughput;
        ] );
    ]
