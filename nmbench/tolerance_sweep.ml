(* tolerance-sweep: a closed loop with one caller that repeats
   `nonmask tolerance --adversary` on two paper models.

   - examples/models/diffusing.nm with N=7, budgets 0..3
   - examples/models/token_ring.nm at its declared N=5, K=6, budgets 0..4

   Both sweep the fault budget under corrupt:k=1 (neither model declares
   faults, so the CLI falls back to it). The region is fault-dense and
   seeded from spans, and certification dominates: its recurrence phase
   rebuilds the program-and-fault region at every budget.

   The timed op is Tol.Sweep.run plus the rendered frontier, as the CLI
   runs it. The traced op is the same op with an enabled Obs.Ctx: its
   layer spans and figures come from the events and histograms the
   program already publishes. *)

open Common
module Engine = Explore.Engine
module Spans = Nmbench.Spans

type expected_point = {
  e_span : int;
  e_depth : int;
  e_worst : int;
  e_adversary : int;
}

type input = {
  label : string;
  em : Lang.Elab.t;
  fault : Sim.Fault.t;
  budgets : int list;
  expect : expected_point list;
}

let pt e_span e_depth e_worst e_adversary = { e_span; e_depth; e_worst; e_adversary }

let load path ~params ~budget_max expect =
  let em = Lang.Driver.compile_file ~params path in
  {
    label = em.Lang.Elab.name;
    em;
    fault = Sim.Fault.corrupt em.Lang.Elab.env ~k:1;
    budgets = Tol.Sweep.range ~max:budget_max;
    expect;
  }

let models =
  [
    ( "examples/models/diffusing.nm",
      [ ("N", 7) ],
      3,
      [ pt 244 0 0 0; pt 3844 1 20 20; pt 13390 2 28 28; pt 16384 3 31 31 ] );
    ( "examples/models/token_ring.nm",
      [],
      4,
      [ pt 26 0 0 0; pt 822 1 18 18; pt 4840 2 24 24; pt 7744 3 25 25; pt 7776 4 25 25 ] );
  ]

let make_engine ?obs inp =
  Engine.create ~backend:Engine.Lazy ~max_states:2_000_000 ~jobs:1 ?obs
    inp.em.Lang.Elab.env

let setup () =
  let inputs =
    List.map
      (fun (path, params, budget_max, expect) -> load path ~params ~budget_max expect)
      models
  in
  List.iter (fun inp -> ignore (make_engine inp)) inputs;
  inputs

let sweep_name inp = Printf.sprintf "%s under %s" inp.label inp.fault.Sim.Fault.name

let render inp engine frontier =
  Format.asprintf "%s under %s (%s engine):@.%a@." inp.label inp.fault.Sim.Fault.name
    (Engine.backend_name engine) Tol.Sweep.pp_frontier frontier

let check_frontier t inp (f : Tol.Sweep.frontier) =
  let got =
    List.map
      (fun (p : Tol.Sweep.point) ->
        Printf.sprintf "b%d:%d/%d/%b/%s/%s" p.budget p.span_states p.max_depth p.certified
          (match p.worst_case with Some w -> string_of_int w | None -> "-")
          (match Option.bind p.adversary Tol.Sweep.adversary_bound with
          | Some w -> string_of_int w
          | None -> "-"))
      f.points
  in
  let want =
    List.map2
      (fun b e ->
        Printf.sprintf "b%d:%d/%d/true/%d/%d" b e.e_span e.e_depth e.e_worst e.e_adversary)
      inp.budgets inp.expect
  in
  expect t ~what:(inp.label ^ " frontier") (String.concat " " want) (String.concat " " got);
  expect t ~what:(inp.label ^ " cliff") "none"
    (match f.cliff with Some c -> string_of_int c | None -> "none")

(* --- the timed op ---------------------------------------------------- *)

let sweep inp engine =
  let em = inp.em in
  Tol.Sweep.run ~engine ~program:em.Lang.Elab.program
    ~faults:(Sim.Fault.actions inp.fault) ~envs:em.Lang.Elab.env_actions
    ~invariant:em.Lang.Elab.invariant ~budgets:inp.budgets ~adversary:true
    ~name:(sweep_name inp) ()

let sweep_plain inp engine =
  let frontier = sweep inp engine in
  (frontier, render inp engine frontier)

(* --- the traced op --------------------------------------------------- *)

(* The traced op is the timed op on an engine whose Obs.Ctx writes its
   events to a file. Tol.Sweep.run and the layers beneath it time their
   own phases (tol.span, tol.certify, tol.adversary, the certify.*
   phases, engine.region) and report each as a "span" event: its end,
   in seconds since the sink was made, and its length in microseconds.
   Those become the op's layer spans. *)

let layer_name = function
  | "tol.span" -> "explore.faultspan"
  | "tol.certify" -> "core.certify"
  | "engine.region" -> "explore.engine"
  | n -> n

let events_file = Filename.concat run_dir "sweep-events.jsonl"

(* The "span" events of a sink made at wall time [base], as
   [(seq, name, start, stop)]. *)
let read_span_events ~base file =
  let num = function
    | Some (Obs.Json.Float f) -> Some f
    | Some (Obs.Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Obs.Json.of_string line with
         | Error _ -> None
         | Ok v -> (
             let get k = Obs.Json.member k v in
             match (get "ev", get "name", num (get "ts"), num (get "us"), get "seq") with
             | ( Some (Obs.Json.Str "span"),
                 Some (Obs.Json.Str name),
                 Some ts,
                 Some us,
                 Some (Obs.Json.Int seq) ) ->
                 let stop = base +. ts in
                 Some (seq, layer_name name, stop -. (us /. 1e6), stop)
             | _ -> None))

(* One traced op: the op, Tol.Sweep.run and the rendering as spans, the
   sweep's own events nested beneath it. Returns the frontier and the
   engine's metrics registry. *)
let sweep_traced tr ~op inp =
  let oc = open_out events_file in
  let base = now () in
  let obs = Obs.Ctx.create ~sink:(Obs.Sink.jsonl oc) () in
  let engine = make_engine ~obs inp in
  let t0 = now () in
  let frontier = sweep inp engine in
  let t1 = now () in
  ignore (Sys.opaque_identity (render inp engine frontier));
  let t2 = now () in
  Obs.Ctx.close obs;
  let top = Spans.add tr ~op ("tolerance " ^ inp.label) ~start:t0 ~stop:t2 in
  let sweep = Spans.add tr ~op ~parent:top "tol.sweep" ~start:t0 ~stop:t1 in
  ignore (Spans.add tr ~op ~parent:top "render" ~start:t1 ~stop:t2);
  Spans.add_nested tr ~op ~parent:sweep (read_span_events ~base events_file);
  (frontier, Obs.Ctx.metrics obs)

(* --- runs ------------------------------------------------------------ *)

let order ~seed inputs = if seed land 1 = 0 then inputs else List.rev inputs

let plain_round t inputs =
  Gc.full_major ();
  let engines = List.map (fun inp -> (inp, make_engine inp)) inputs in
  List.fold_left
    (fun (time, states) (inp, engine) ->
      let (frontier, _text), dt = timed (fun () -> sweep_plain inp engine) in
      check_frontier t inp frontier;
      let computed =
        List.fold_left
          (fun acc (p : Tol.Sweep.point) -> if p.reused then acc else acc + p.span_states)
          0 frontier.points
      in
      (time +. dt, states + computed))
    (0., 0) engines

let setup_time () = median_setup ~k:101 setup

let timed_run ~seed ~seconds ~setup_s =
  let t = tally () in
  let inputs = order ~seed (setup ()) in
  (* one untimed round first: heap growth and first-touch page faults
     are paid once per process, not per verdict *)
  ignore (plain_round t inputs);
  let rounds = repeat_for ~seconds ~min_rounds:3 (fun _ -> plain_round t inputs) in
  let per_round = Array.of_list (List.map fst rounds) in
  let verdict_s = Nmbench.Stats.median per_round in
  let states = snd (List.hd rounds) in
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

let lang_sample () =
  let compile_s =
    snd
      (timed (fun () ->
           List.iter
             (fun (path, params, _, _) -> ignore (Lang.Driver.compile_file ~params path))
             models))
  in
  let asts = List.map (fun (path, _, _, _) -> snd (Lang.Driver.load_file path)) models in
  let digest_s =
    snd (timed (fun () -> List.iter (fun a -> ignore (Lang.Canon.model_digest a)) asts))
  in
  (compile_s, digest_s)

(* Guarded.Compile on each input's program and fault actions, the
   compilations Tol.Sweep.run starts with. *)
let guarded_sample inputs =
  snd
    (timed (fun () ->
         List.iter
           (fun inp ->
             let program = inp.em.Lang.Elab.program in
             ignore (Guarded.Compile.program program);
             ignore
               (Guarded.Compile.program
                  (Guarded.Program.make ~name:"faults" inp.em.Lang.Elab.env
                     (Sim.Fault.actions inp.fault))))
           inputs))

let hist_ms reg name =
  float_of_int (Obs.Metrics.hist_sum (Obs.Metrics.histogram reg name)) /. 1000.
let counter reg name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter reg name))

let computed (f : Tol.Sweep.frontier) =
  List.filter (fun (p : Tol.Sweep.point) -> not p.reused) f.points

let traced_run ~seed ~seconds ~trace_file =
  let t = tally () in
  let tr = Spans.create () in
  let inputs = order ~seed (setup ()) in
  let lang = List.init 7 (fun _ -> lang_sample ()) in
  let guarded_s = Nmbench.Stats.median (Array.init 7 (fun _ -> guarded_sample inputs)) in
  let op_id = ref 0 in
  (* a round is its ops: (op id, frontier, the engine's metrics) *)
  let traced_round _ =
    Gc.full_major ();
    List.map
      (fun inp ->
        let op = !op_id in
        incr op_id;
        let frontier, reg = sweep_traced tr ~op inp in
        check_frontier t inp frontier;
        (op, frontier, reg))
      inputs
  in
  let pairs =
    repeat_for ~seconds ~min_rounds:2 (fun i ->
        let plain = fst (plain_round t inputs) in
        (plain, traced_round i))
  in
  let all = Spans.spans tr in
  let rounds = List.map snd pairs in
  let per_round f = median_of (fun ops -> List.fold_left (fun acc o -> acc +. f o) 0. ops) rounds in
  let hist name = per_round (fun (_, _, r) -> hist_ms r name) in
  let count name = per_round (fun (_, _, r) -> counter r name) in
  let points f = per_round (fun (_, fr, _) -> float_of_int (f fr)) in
  let sum_computed f = points (fun fr -> List.fold_left (fun acc p -> acc + f p) 0 (computed fr)) in
  let region_ms = hist "engine.region_us" and region_states = count "engine.states_discovered" in
  let compile_s = Nmbench.Stats.median (Array.of_list (List.map fst lang)) in
  Spans.write tr trace_file;
  ( t,
    all,
    [
      ("engine.region_ms", region_ms);
      ("engine.states", region_states);
      ("engine.edges", count "engine.region_edges");
      ("engine.states_per_s", region_states /. (region_ms /. 1000.));
      ("faultspan.ms", hist "tol.span_us");
      ("faultspan.states", sum_computed (fun p -> p.Tol.Sweep.span_states));
      ("certify.ms", hist "tol.certify_us");
      ("certify.closure_ms", hist "certify.closure_us");
      ("certify.convergence_ms", hist "certify.convergence_us");
      ("certify.recurrence_ms", hist "certify.recurrence_us");
      ("adversary.ms", hist "tol.adversary_us");
      ( "adversary.waves",
        sum_computed (fun p ->
            match p.Tol.Sweep.adversary with Some a -> a.Tol.Adversary.waves | None -> 0) );
      ("sweep.points", points (fun fr -> List.length fr.points));
      ("sweep.reused", points (fun fr -> List.length fr.points - List.length (computed fr)));
      ("guarded.compile_ms", 1000. *. guarded_s);
      ("lang.compile_ms", 1000. *. compile_s);
      ("lang.digest_ms", 1000. *. Nmbench.Stats.median (Array.of_list (List.map snd lang)));
      ("lang.models_per_s", float_of_int (List.length models) /. compile_s);
      ("render.ms", per_round (fun (op, _, _) -> 1000. *. Spans.total_named all ~op "render"));
      ( "trace.overhead_s",
        per_round (fun (op, _, _) -> Spans.op_duration all ~op) -. median_of fst pairs );
      ("trace.coverage", Spans.op_coverage all);
    ] )
