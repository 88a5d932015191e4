(* The operation runner: check, certify (tolerance), tolerance, storm
   and fuzz, executed once for every front end. The CLI verbs and the
   serve daemon each turn their own input (argv, a JSON request) into a
   [request], call [run], and present the [outcome]: the daemon sends
   [result], the CLI prints [text] and maps [stop] to its stderr line.

   Fault policy (the same for every front end): an explicit spec wins;
   otherwise the model's declared fault actions; otherwise certify has
   no fault class at all ([No_faults]) while tolerance and storm fall
   back to corrupt:k=1. *)

type op = Check | Certify | Tolerance | Storm | Fuzz

type model = {
  name : string;
  env : Guarded.Env.t;
  program : Guarded.Program.t;
  invariant : Guarded.State.t -> bool;
  init : Guarded.State.t;
  faults : Sim.Fault.t option;
  env_actions : Guarded.Action.t list;
}

let of_elab (em : Lang.Elab.t) =
  {
    name = em.name;
    env = em.env;
    program = em.program;
    invariant = em.invariant;
    init = em.init;
    faults =
      (match em.fault_actions with
      | [] -> None
      | acts -> Some (Sim.Fault.of_actions "declared faults" ~burst:1 acts));
    env_actions = em.env_actions;
  }

type options = {
  engine : Explore.Engine.backend;
  max_states : int;
  ball : int;
  seed : int;
  trials : int;
  rate : float;
  max_steps : int;
  faults : string option;
  fault_budget : int option;
  budget_max : int;
  adversary : bool;
  count : int;
  max_vars : int;
}

let defaults =
  {
    engine = Explore.Engine.Lazy;
    max_states = 2_000_000;
    ball = -1;
    seed = 42;
    trials = 500;
    rate = 0.05;
    max_steps = 100_000;
    faults = None;
    fault_budget = None;
    budget_max = 3;
    adversary = false;
    count = 200;
    max_vars = 4;
  }

type request = {
  op : op;
  model : model option;
  fault : Sim.Fault.t option;
  options : options;
}

type fault_error = Bad_spec of string | No_faults

let fault_grammar = "corrupt | corrupt:k=N | scramble"

let parse_fault_spec env spec =
  match String.split_on_char ':' spec with
  | [ "corrupt" ] -> Some (Sim.Fault.corrupt env ~k:1)
  | [ "corrupt"; ks ] -> (
      match String.split_on_char '=' ks with
      | [ "k"; n ] -> (
          match int_of_string_opt n with
          | Some k when k > 0 -> Some (Sim.Fault.corrupt env ~k)
          | _ -> None)
      | _ -> None)
  | [ "scramble" ] -> Some (Sim.Fault.scramble env)
  | _ -> None

let resolve_fault op (m : model) spec =
  match (op, spec) with
  | (Check | Fuzz), _ -> Ok None
  | _, Some spec -> (
      match parse_fault_spec m.env spec with
      | Some f -> Ok (Some f)
      | None -> Error (Bad_spec spec))
  | _, None -> (
      match m.faults with
      | Some f -> Ok (Some f)
      | None when op = Certify -> Error No_faults
      | None -> Ok (Some (Sim.Fault.corrupt m.env ~k:1)))

let request ?model op options =
  let fault =
    match model with
    | None -> Ok None
    | Some m -> resolve_fault op m options.faults
  in
  Result.map (fun fault -> { op; model; fault; options }) fault

(* --- outcome --- *)

type stop =
  | Too_large of float
  | Unaddressable of { layout : string; bits : int; states : float }
  | Region_overflow of int
  | Incomplete of Explore.Engine.interrupt
  | Failed of string

type outcome = {
  exit_code : int;
  status : string;
  cacheable : bool;
  fields : (string * Obs.Json.t) list;
  states_explored : int;
  stop : stop option;
  text : string Lazy.t;
}

let result o =
  Obs.Json.Obj
    (("status", Obs.Json.Str o.status)
    :: ("exit", Obs.Json.Int o.exit_code)
    :: o.fields)

let render pp v = Format.asprintf "%a" pp v

let outcome ?(cacheable = true) ?stop ~exit_code ~states ~status ~text fields
    =
  { exit_code; status; cacheable; fields; states_explored = states; stop; text }

let int_or_null = function Some n -> Obs.Json.Int n | None -> Obs.Json.Null

let stopped ~exit_code ?(cacheable = false) ~status ?states_seen msg stop =
  outcome ~exit_code ~cacheable ~stop ~status ~text:(lazy "")
    ~states:(Option.value states_seen ~default:0)
    (("message", Obs.Json.Str msg)
    ::
    (match states_seen with
    | Some n -> [ ("states_seen", Obs.Json.Int n) ]
    | None -> []))

(* The one exception → exit-code mapping: 3 over the eager or encoding
   cap, 4 over the lazy budget, 5 interrupted, 1 for any other error.
   The message wording is the daemon's; the CLI words its own line from
   [stop]. *)
let protect f =
  try f () with
  | Explore.Space.Too_large total ->
      stopped ~exit_code:3 ~cacheable:true ~status:"too-large"
        (Printf.sprintf
           "~%.3g states, over the eager budget; use engine=lazy or raise \
            max_states"
           total)
        (Too_large total)
  | Explore.Codec.Overflow { layout; bits; states } ->
      stopped ~exit_code:3 ~cacheable:true ~status:"too-large"
        (Printf.sprintf
           "~%.3g states, more than the %s encoding can address (%d bits \
            needed)"
           states layout bits)
        (Unaddressable { layout; bits; states })
  | Explore.Engine.Region_overflow n ->
      stopped ~exit_code:4 ~cacheable:true ~status:"region-overflow"
        ~states_seen:n
        (Printf.sprintf "lazy exploration exceeded the budget after %d states"
           n)
        (Region_overflow n)
  | Explore.Engine.Interrupted it ->
      stopped ~exit_code:5 ~status:"incomplete"
        ~states_seen:it.Explore.Engine.states_seen
        (Rt.Cancel.reason_label it.Explore.Engine.reason)
        (Incomplete it)
  | Rt.Cancel.Cancelled reason ->
      stopped ~exit_code:5 ~status:"incomplete"
        (Rt.Cancel.reason_label reason)
        (Incomplete
           { reason; states_seen = 0; frontier_size = 0; snapshot = None })
  | Rt.Snapshot.Corrupt msg ->
      let msg = "cannot resume: " ^ msg in
      stopped ~exit_code:1 ~status:"error" msg (Failed msg)
  | Failure msg | Invalid_argument msg ->
      stopped ~exit_code:1 ~status:"error" msg (Failed msg)

(* The reason a guard-governed trial sweep (storm, fuzz) went partial:
   the cancel token records what tripped first. *)
let guard_reason guard =
  match Option.bind (Rt.Guard.cancel guard) Rt.Cancel.get with
  | Some r -> r
  | None -> Rt.Cancel.Deadline

(* --- the operations --- *)

let of_certificate cert =
  let ok = Nonmask.Certify.ok cert in
  let certificate = render Nonmask.Certify.pp_full cert in
  let failures =
    List.map
      (fun (c : Nonmask.Certify.check) ->
        Obs.Json.Obj
          [
            ("label", Obs.Json.Str c.label);
            ( "detail",
              match c.detail with
              | Some d -> Obs.Json.Str d
              | None -> Obs.Json.Null );
          ])
      (Nonmask.Certify.failures cert)
  in
  outcome
    ~exit_code:(if ok then 0 else 2)
    ~states:0
    ~status:(if ok then "certified" else "failed")
    ~text:(lazy (certificate ^ "\n"))
    [
      ("theorem", Obs.Json.Str cert.Nonmask.Certify.theorem);
      ("checks", Obs.Json.Int (List.length cert.Nonmask.Certify.checks));
      ("failures", Obs.Json.List failures);
      ("certificate", Obs.Json.Str certificate);
    ]

let point_json (p : Tol.Sweep.point) =
  Obs.Json.Obj
    ([
       ("budget", Obs.Json.Int p.budget);
       ("span_states", Obs.Json.Int p.span_states);
       ("span_roots", Obs.Json.Int p.span_roots);
       ("max_depth", Obs.Json.Int p.max_depth);
       ("certified", Obs.Json.Bool p.certified);
       ("worst_case", int_or_null p.worst_case);
       ("reused", Obs.Json.Bool p.reused);
     ]
    @
    match p.adversary with
    | None -> []
    | Some { verdict = Tol.Adversary.Bounded w; _ } ->
        [ ("adversary_bound", Obs.Json.Int w) ]
    | Some { verdict = Tol.Adversary.Unbounded _; _ } ->
        [ ("adversary_bound", Obs.Json.Str "unbounded") ])

(* The states within [ball] faults of legitimacy; [None] for every
   state (a negative radius). *)
let ball_roots (m : model) ball =
  if ball < 0 then None
  else
    Some
      (Explore.Engine.Seeds
         (Explore.Engine.ball m.env ~center:m.init ~radius:ball))

let fault_name (m : model) (fault : Sim.Fault.t) =
  Printf.sprintf "%s under %s" m.name fault.name

let check ?resume engine (m : model) o =
  let engine_name = Explore.Engine.backend_name engine in
  let from_desc =
    if o.ball < 0 then "every state"
    else Printf.sprintf "every state within %d faults of legitimacy" o.ball
  in
  match
    Explore.Convergence.check_unfair ?resume engine
      (Guarded.Compile.program m.program)
      ~from:(Option.value (ball_roots m o.ball) ~default:Explore.Engine.All)
      ~target:m.invariant
  with
  | Ok { region_states; explored; worst_case_steps } ->
      outcome ~exit_code:0 ~states:explored ~status:"converges"
        ~text:
          (lazy
            (Printf.sprintf
               "%s (%s engine): converges from %s, even without fairness\n\
               \  explored: %d  outside invariant: %d  worst-case steps: %s\n"
               m.name engine_name from_desc explored region_states
               (match worst_case_steps with
               | Some w -> string_of_int w
               | None -> "-")))
        [
          ("explored", Obs.Json.Int explored);
          ("region_states", Obs.Json.Int region_states);
          ("worst_case_steps", int_or_null worst_case_steps);
          ("engine", Obs.Json.Str engine_name);
        ]
  | Error f ->
      let failure = render (Explore.Convergence.pp_failure m.env) f in
      outcome ~exit_code:2 ~states:0 ~status:"fails"
        ~text:(lazy (Printf.sprintf "%s: FAILS\n%s\n" m.name failure))
        [
          ("engine", Obs.Json.Str engine_name);
          ("failure", Obs.Json.Str failure);
        ]

let certify ?resume engine (m : model) fault o =
  let budget =
    match o.fault_budget with
    | Some b when b < 0 -> None
    | Some b -> Some b
    | None -> Some (Sim.Fault.burst fault)
  in
  of_certificate
    (Nonmask.Certify.tolerance ~engine ~program:m.program
       ~faults:(Sim.Fault.actions fault) ~invariant:m.invariant
       ?from:(ball_roots m o.ball) ?budget ?resume ~name:(fault_name m fault)
       ())

(* A returned frontier is always a complete, cacheable curve: the sweep
   either completes or raises (interrupt, overflow). *)
let tolerance ?budgets ?on_point engine (m : model) (fault : Sim.Fault.t) o =
  let frontier =
    Tol.Sweep.run ~engine ~program:m.program
      ~faults:(Sim.Fault.actions fault) ~envs:m.env_actions
      ~invariant:m.invariant
      ?from:(ball_roots m o.ball)
      ~budgets:
        (match budgets with
        | Some b -> b
        | None -> Tol.Sweep.range ~max:o.budget_max)
      ~adversary:o.adversary ?on_point ~name:(fault_name m fault) ()
  in
  let engine_name = Explore.Engine.backend_name engine in
  let table = render Tol.Sweep.pp_frontier frontier in
  let span_total =
    List.fold_left
      (fun acc (p : Tol.Sweep.point) ->
        if p.reused then acc else acc + p.span_states)
      0 frontier.points
  in
  outcome ~exit_code:0 ~states:span_total ~status:"done"
    ~text:
      (lazy
        (Printf.sprintf "%s under %s (%s engine):\n%s\n" m.name fault.name
           engine_name table))
    [
      ("points", Obs.Json.List (List.map point_json frontier.points));
      ("cliff", int_or_null frontier.cliff);
      ("table", Obs.Json.Str table);
      ("engine", Obs.Json.Str engine_name);
    ]

let storm ?jobs ?pool ~obs ~guard ?watchdog (m : model) (fault : Sim.Fault.t)
    o =
  let result =
    Sim.Storm.trials ~max_steps:o.max_steps
      ?fault_budget:
        (match o.fault_budget with Some b when b >= 0 -> Some b | _ -> None)
      ?jobs ?pool ~obs ~guard ?watchdog ~rng:(Prng.create o.seed)
      ~trials:o.trials
      ~daemon:(fun r -> Sim.Daemon.random r)
      ~prepare:(fun r ->
        (* copy: m.init is shared by every trial and [inject] mutates *)
        let s = Guarded.State.copy m.init in
        fault.inject r s;
        s)
      ~stop:m.invariant ~fault ~rate:o.rate
      (Guarded.Compile.program m.program)
  in
  let steps_total = Array.fold_left ( + ) 0 result.steps in
  let incomplete = result.skipped > 0 in
  outcome
    ~exit_code:(if incomplete then 5 else 0)
    ~cacheable:(not incomplete) ~states:steps_total
    ~status:(if incomplete then "incomplete" else "done")
    ?stop:
      (if incomplete then
         Some
           (Incomplete
              {
                reason = guard_reason guard;
                states_seen = o.trials - result.skipped;
                frontier_size = result.skipped;
                snapshot = None;
              })
       else None)
    ~text:
      (lazy
        (Format.asprintf "%s: storm %s rate=%g, %d trials: %a@." m.name
           fault.name o.rate o.trials Sim.Storm.pp_result result))
    [
      ("trials", Obs.Json.Int o.trials);
      ("converged", Obs.Json.Int (Array.length result.steps));
      ("failures", Obs.Json.Int result.failures);
      ("skipped", Obs.Json.Int result.skipped);
      ("steps_total", Obs.Json.Int steps_total);
      ("summary", Obs.Json.Str (render Sim.Storm.pp_result result));
    ]

(* A counterexample outranks a partial sweep (exit 3 over 5).
   Watchdog-abandoned trials also leave the sample incomplete, but only
   a skip means the global guard tripped; a timeout-only sweep names the
   watchdog, not a budget. *)
let fuzz ?jobs ?pool ~obs ~guard ?watchdog ?shrink ?corpus_out ?corpus_all o
    =
  let report =
    Gen.Fuzz.run
      ~gen_config:(Gen.Generate.with_max_vars o.max_vars)
      ?shrink ?jobs ?pool ~obs ~guard ?watchdog ?corpus_out ?corpus_all
      ~seed:o.seed ~count:o.count ()
  in
  let n_cex = List.length report.counterexamples in
  let n_timeouts = List.length report.timeouts in
  let incomplete = report.skipped > 0 || n_timeouts > 0 in
  let completed = o.count - report.skipped - n_timeouts in
  let text = render Gen.Fuzz.pp_report report in
  outcome
    ~exit_code:(if n_cex > 0 then 3 else if incomplete then 5 else 0)
    ~cacheable:(not incomplete) ~states:completed
    ~status:
      (if n_cex > 0 then "counterexamples"
       else if incomplete then "incomplete"
       else "done")
    ?stop:
      (if n_cex = 0 && incomplete then
         Some
           (Incomplete
              {
                reason =
                  (if report.skipped > 0 then guard_reason guard
                   else Rt.Cancel.Requested "trial-timeout");
                states_seen = completed;
                frontier_size = report.skipped;
                snapshot = None;
              })
       else None)
    ~text:(lazy (text ^ "\n"))
    [
      ("trials", Obs.Json.Int report.trials);
      ("skipped", Obs.Json.Int report.skipped);
      ( "counterexamples",
        Obs.Json.List
          (List.map
             (fun (c : Gen.Fuzz.counterexample) ->
               Obs.Json.Obj
                 [
                   ("trial", Obs.Json.Int c.trial);
                   ("seed", Obs.Json.Int c.seed);
                 ])
             report.counterexamples) );
      ("report", Obs.Json.Str text);
    ]

let run ?jobs ?pool ?(obs = Obs.Ctx.disabled) ?(guard = Rt.Guard.inert)
    ?snapshots ?salt ?resume ?budgets ?on_point ?watchdog ?shrink ?corpus_out
    ?corpus_all r =
  protect @@ fun () ->
  let o = r.options in
  let engine (m : model) =
    Explore.Engine.create ~backend:o.engine ~max_states:o.max_states ?jobs
      ?pool ~obs ~guard ?snapshots ?salt m.env
  in
  match (r.op, r.model, r.fault) with
  | Check, Some m, _ -> check ?resume (engine m) m o
  | Certify, Some m, Some fault -> certify ?resume (engine m) m fault o
  | Tolerance, Some m, Some fault ->
      tolerance ?budgets ?on_point (engine m) m fault o
  | Storm, Some m, Some fault ->
      storm ?jobs ?pool ~obs ~guard ?watchdog m fault o
  | Fuzz, None, _ ->
      fuzz ?jobs ?pool ~obs ~guard ?watchdog ?shrink ?corpus_out ?corpus_all o
  | _ -> failwith "malformed request"
