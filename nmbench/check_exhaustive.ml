(* check-exhaustive: a closed loop with one caller that repeats
   `nonmask check` on two inputs with opposite storage paths.

   - examples/models/token_ring.nm with N=7, K=7 from every state: the
     whole 7^7 space is reachable, so the lazy engine keeps its visited
     set in dense direct-mapped storage.
   - the built-in Dijkstra ring with 12 nodes, K=13, from every state
     within 2 faults of legitimacy: a sparse region of a 13^12 space,
     kept in probed open-addressing storage.

   The timed op is what `nonmask check --engine lazy` runs between the
   compiled model and the printed verdict: Convergence.check_unfair and
   the verdict line. The traced op makes the same calls one layer at a
   time (Engine.region, the deadlock scan, Topo.find_cycle,
   Topo.longest_path_lengths, the verdict line) inside spans. *)

open Common
module Engine = Explore.Engine
module Spans = Nmbench.Spans

type input = {
  label : string;
  env : Guarded.Env.t;
  program : Guarded.Program.t;
  invariant : Guarded.State.t -> bool;
  center : Guarded.State.t;
  ball : int;  (** fault-ball radius; negative = every state *)
  expect : int * int * int;  (** explored, outside invariant, worst case *)
}

let ring_path = "examples/models/token_ring.nm"
let ring_params = [ ("N", 7); ("K", 7) ]

let load_ring () =
  let em = Lang.Driver.compile_file ~params:ring_params ring_path in
  {
    label = em.Lang.Elab.name;
    env = em.Lang.Elab.env;
    program = em.Lang.Elab.program;
    invariant = em.Lang.Elab.invariant;
    center = em.Lang.Elab.init;
    ball = -1;
    expect = (823_543, 823_500, 56);
  }

let load_dijkstra () =
  let dr = Protocols.Dijkstra_ring.make ~nodes:12 ~k:13 in
  {
    label = "dijkstra 12 (K=13)";
    env = Protocols.Dijkstra_ring.env dr;
    program = Protocols.Dijkstra_ring.program dr;
    invariant = Protocols.Dijkstra_ring.invariant dr;
    center = Protocols.Dijkstra_ring.all_zero dr;
    ball = 2;
    expect = (446_536, 444_807, 72);
  }

(* The CLI's engine for `check --engine lazy`, pinned to one job. *)
let make_engine inp =
  Engine.create ~backend:Engine.Lazy ~max_states:2_000_000 ~jobs:1 inp.env

let setup () =
  let inputs = [ load_ring (); load_dijkstra () ] in
  List.iter (fun inp -> ignore (make_engine inp)) inputs;
  inputs

let roots inp =
  if inp.ball < 0 then (Engine.All, "every state")
  else
    ( Engine.Seeds (Engine.ball inp.env ~center:inp.center ~radius:inp.ball),
      Printf.sprintf "every state within %d faults of legitimacy" inp.ball )

let verdict_line inp engine from_desc (st : Explore.Convergence.stats) =
  Printf.sprintf
    "%s (%s engine): converges from %s, even without fairness\n\
    \  explored: %d  outside invariant: %d  worst-case steps: %s\n"
    inp.label (Engine.backend_name engine) from_desc st.explored
    st.region_states
    (match st.worst_case_steps with Some w -> string_of_int w | None -> "-")

let failure_text inp f =
  Format.asprintf "%s: FAILS@.%a@." inp.label
    (Explore.Convergence.pp_failure inp.env)
    f

let check_result t inp = function
  | Ok (st : Explore.Convergence.stats), _ ->
      let e, r, w = inp.expect in
      expect t ~what:(inp.label ^ " explored/outside/worst")
        (Printf.sprintf "%d/%d/%d" e r w)
        (Printf.sprintf "%d/%d/%s" st.explored st.region_states
           (match st.worst_case_steps with
           | Some w -> string_of_int w
           | None -> "-"))
  | Error _, text ->
      record t ~wrong:true ~what:(inp.label ^ " did not converge: " ^ text) false

(* --- the timed op ---------------------------------------------------- *)

let check_plain inp engine =
  let from, from_desc = roots inp in
  match
    Explore.Convergence.check_unfair engine
      (Guarded.Compile.program inp.program)
      ~from ~target:inp.invariant
  with
  | Ok st -> (Ok st, verdict_line inp engine from_desc st)
  | Error f -> (Error f, failure_text inp f)

(* --- the traced op --------------------------------------------------- *)

type layer_sample = {
  states : int;
  edges : int;
  engine_alloc : float;
  dgraph_alloc : float;
  visited_bytes : int;
  graph_words : int;  (** 0 unless measured *)
}

let check_traced tr ~op inp engine =
  let sp name f = Spans.with_span tr ~op name f in
  sp ("check " ^ inp.label) @@ fun () ->
  let cp = sp "guarded.compile" (fun () -> Guarded.Compile.program inp.program) in
  let (region, from_desc), engine_alloc =
    alloc_mb (fun () ->
        sp "explore.engine" (fun () ->
            let from, desc = roots inp in
            (Engine.region engine cp ~from ~target:inp.invariant, desc)))
  in
  let verdict, dgraph_alloc =
    alloc_mb (fun () ->
        let dead =
          sp "dgraph.deadlock_scan" (fun () ->
              let n = Array.length region.Engine.terminal in
              let rec go i =
                if i >= n then None
                else if region.Engine.terminal.(i) then Some i
                else go (i + 1)
              in
              go 0)
        in
        match dead with
        | Some i ->
            Error
              (Explore.Convergence.Deadlock
                 (Engine.decode_key engine region.Engine.node_key.(i)))
        | None -> (
            match
              sp "dgraph.find_cycle" (fun () ->
                  Dgraph.Topo.find_cycle region.Engine.graph)
            with
            | Some nodes ->
                Error
                  (Explore.Convergence.Livelock
                     (List.map
                        (fun v -> Engine.decode_key engine region.Engine.node_key.(v))
                        nodes))
            | None ->
                let members = Array.length region.Engine.node_key in
                let worst =
                  if members = 0 then 0
                  else
                    match
                      sp "dgraph.longest_path" (fun () ->
                          Dgraph.Topo.longest_path_lengths region.Engine.graph)
                    with
                    | Some dist -> Array.fold_left max 0 dist + 1
                    | None -> -1
                in
                Ok
                  {
                    Explore.Convergence.region_states = members;
                    explored = region.Engine.explored;
                    worst_case_steps = Some worst;
                  }))
  in
  let text =
    sp "render" (fun () ->
        match verdict with
        | Ok st -> verdict_line inp engine from_desc st
        | Error f -> failure_text inp f)
  in
  ( (verdict, text),
    region,
    {
      states = region.Engine.explored;
      edges = Dgraph.Digraph.edge_count region.Engine.graph;
      engine_alloc;
      dgraph_alloc;
      visited_bytes = Engine.storage_bytes engine;
      graph_words = 0;
    } )

(* --- runs ------------------------------------------------------------ *)

let order ~seed inputs = if seed land 1 = 0 then inputs else List.rev inputs

(* One untimed-setup, timed-op round over both inputs: the op time. *)
let plain_round t inputs =
  Gc.full_major ();
  let engines = List.map (fun inp -> (inp, make_engine inp)) inputs in
  List.fold_left
    (fun acc (inp, engine) ->
      let r, dt = timed (fun () -> check_plain inp engine) in
      check_result t inp r;
      acc +. dt)
    0. engines

let setup_time () = median_setup ~k:101 setup

let timed_run ~seed ~seconds ~setup_s =
  let t = tally () in
  let inputs = order ~seed (setup ()) in
  (* one untimed round first: heap growth and first-touch page faults
     are paid once per process, not per verdict *)
  ignore (plain_round t inputs);
  let rounds = repeat_for ~seconds ~min_rounds:3 (fun _ -> plain_round t inputs) in
  let per_round = Array.of_list rounds in
  let verdict_s = Nmbench.Stats.median per_round in
  let states =
    List.fold_left (fun acc inp -> let e, _, _ = inp.expect in acc + e) 0 inputs
  in
  let ops = List.length inputs * Array.length per_round in
  ( t,
    [
      m "setup_s" "s" setup_s;
      m "verdict_s" "s" verdict_s;
      m "states_per_s" "1/s" (float_of_int states /. verdict_s);
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m "p50_ms" "ms" (1000. *. verdict_s);
      m "max_rps" "1/s" (float_of_int ops /. Nmbench.Stats.sum per_round);
    ] )

(* Compile and digest the ring model, the lang layer's share of set-up. *)
let lang_sample () =
  let em_time =
    snd (timed (fun () -> Lang.Driver.compile_file ~params:ring_params ring_path))
  in
  let _, ast = Lang.Driver.load_file ring_path in
  let digest_time = snd (timed (fun () -> Lang.Canon.model_digest ast)) in
  (em_time, digest_time)

let traced_run ~seed ~seconds ~trace_file =
  let t = tally () in
  let tr = Spans.create () in
  let inputs = order ~seed (setup ()) in
  let lang = List.init 7 (fun _ -> lang_sample ()) in
  let op_id = ref 0 in
  let graph_b_per_edge = ref Float.nan in
  let traced_round i =
    Gc.full_major ();
    let engines = List.map (fun inp -> (inp, make_engine inp)) inputs in
    let samples =
      List.map
        (fun (inp, engine) ->
          let op = !op_id in
          incr op_id;
          let r, region, sample = check_traced tr ~op inp engine in
          check_result t inp r;
          if i = 0 then
            Printf.printf "nmbench check-exhaustive: %s: %s storage, %.1f B/state visited\n"
              inp.label (Engine.storage_name engine)
              (float_of_int sample.visited_bytes /. float_of_int sample.states);
          (* Obj.reachable_words walks the whole graph: measured once,
             outside every span *)
          let sample =
            if i = 0 then
              {
                sample with
                graph_words = Obj.reachable_words (Obj.repr region.Engine.graph);
              }
            else sample
          in
          (op, sample))
        engines
    in
    if i = 0 then begin
      let words = List.fold_left (fun a (_, s) -> a + s.graph_words) 0 samples in
      let edges = List.fold_left (fun a (_, s) -> a + s.edges) 0 samples in
      graph_b_per_edge := float_of_int (words * (Sys.word_size / 8)) /. float_of_int edges
    end;
    samples
  in
  let pairs =
    repeat_for ~seconds ~min_rounds:2 (fun i ->
        let plain = plain_round t inputs in
        (plain, traced_round i))
  in
  let all = Spans.spans tr in
  let rounds = List.map snd pairs in
  let per_round f = median_of f rounds in
  let span_ms name samples =
    1000.
    *. List.fold_left (fun acc (op, _) -> acc +. Spans.total_named all ~op name) 0. samples
  in
  let sum f samples = List.fold_left (fun acc (_, s) -> acc +. f s) 0. samples in
  let traced_verdict =
    per_round (fun samples ->
        List.fold_left (fun acc (op, _) -> acc +. Spans.op_duration all ~op) 0. samples)
  in
  let plain_verdict = median_of fst pairs in
  let region_ms = per_round (span_ms "explore.engine") in
  let states = per_round (sum (fun s -> float_of_int s.states)) in
  let compile_s = Nmbench.Stats.median (Array.of_list (List.map fst lang)) in
  Spans.write tr trace_file;
  ( t,
    all,
    [
      ("engine.region_ms", region_ms);
      ("engine.states", states);
      ("engine.edges", per_round (sum (fun s -> float_of_int s.edges)));
      ("engine.states_per_s", states /. (region_ms /. 1000.));
      ("engine.alloc_mb", per_round (sum (fun s -> s.engine_alloc)));
      ( "engine.visited_b_per_state",
        per_round (sum (fun s -> float_of_int s.visited_bytes)) /. states );
      ("dgraph.deadlock_scan_ms", per_round (span_ms "dgraph.deadlock_scan"));
      ("dgraph.find_cycle_ms", per_round (span_ms "dgraph.find_cycle"));
      ("dgraph.longest_path_ms", per_round (span_ms "dgraph.longest_path"));
      ("dgraph.alloc_mb", per_round (sum (fun s -> s.dgraph_alloc)));
      ("region.graph_b_per_edge", !graph_b_per_edge);
      ("guarded.compile_ms", per_round (span_ms "guarded.compile"));
      ("lang.compile_ms", 1000. *. compile_s);
      ("lang.digest_ms", 1000. *. Nmbench.Stats.median (Array.of_list (List.map snd lang)));
      ("lang.models_per_s", 1. /. compile_s);
      ("render.ms", per_round (span_ms "render"));
      ("trace.overhead_s", traced_verdict -. plain_verdict);
      ( "trace.coverage",
        Spans.op_coverage all );
    ] )
