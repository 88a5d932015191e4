(** The operation runner shared by the CLI verbs and [nonmask serve]:
    check, certify (tolerance over the computed fault span), tolerance
    sweeps, storms and fuzzing each have exactly one implementation
    here. A front end builds a {!request}, calls {!run}, and presents the
    {!outcome}: the daemon replies with {!result}, the CLI prints
    [text] and words its stderr line from [stop]. *)

type op = Check | Certify | Tolerance | Storm | Fuzz

type model = {
  name : string;
  env : Guarded.Env.t;
  program : Guarded.Program.t;
  invariant : Guarded.State.t -> bool;
  init : Guarded.State.t;
      (** a legitimate state: the centre of [ball] seeds and the start of
          every storm trial. Shared, never mutated — consumers copy. *)
  faults : Sim.Fault.t option;  (** the declared fault class, if any *)
  env_actions : Guarded.Action.t list;  (** threaded into tolerance sweeps *)
}

val of_elab : Lang.Elab.t -> model

type options = {
  engine : Explore.Engine.backend;
  max_states : int;
  ball : int;  (** negative: every state; otherwise a fault ball *)
  seed : int;
  trials : int;
  rate : float;
  max_steps : int;
  faults : string option;  (** a fault spec; see {!fault_grammar} *)
  fault_budget : int option;  (** negative: unbounded *)
  budget_max : int;  (** tolerance sweeps budgets 0..budget_max *)
  adversary : bool;
  count : int;
  max_vars : int;
}

val defaults : options
(** The daemon's defaults (lazy engine); the CLI sets every field its
    flags cover. *)

type request = private {
  op : op;
  model : model option;  (** [None] only for fuzz *)
  fault : Sim.Fault.t option;  (** resolved for certify, tolerance, storm *)
  options : options;
}

type fault_error =
  | Bad_spec of string  (** the spec does not parse *)
  | No_faults  (** certify with no spec and no declared faults *)

val fault_grammar : string
(** ["corrupt | corrupt:k=N | scramble"], for error messages. *)

val request : ?model:model -> op -> options -> (request, fault_error) result
(** Resolve the fault class: an explicit [options.faults] spec wins, then
    the model's declared faults; failing both, certify is [No_faults]
    while tolerance and storm use corrupt:k=1. *)

type stop =
  | Too_large of float  (** exit 3: over the eager cap *)
  | Unaddressable of { layout : string; bits : int; states : float }
      (** exit 3: over what the state encoding can address *)
  | Region_overflow of int  (** exit 4: lazy exploration over budget *)
  | Incomplete of Explore.Engine.interrupt
      (** exit 5: a budget, deadline or signal stopped the run *)
  | Failed of string  (** exit 1 *)

type outcome = {
  exit_code : int;  (** the CLI's exit-code contract *)
  status : string;
  cacheable : bool;  (** complete and deterministic *)
  fields : (string * Obs.Json.t) list;  (** result fields after status/exit *)
  states_explored : int;  (** work accounting *)
  stop : stop option;  (** why the run ended early, if it did *)
  text : string Lazy.t;  (** the CLI's stdout, rendered on demand *)
}

val result : outcome -> Obs.Json.t
(** The daemon's [result] object: status, exit, then [fields]. *)

val protect : (unit -> outcome) -> outcome
(** Run, mapping the engines' exceptions to a stopped outcome. *)

val of_certificate : Nonmask.Certify.t -> outcome
(** The outcome of a certificate: exit 0 when valid, 2 otherwise. *)

val point_json : Tol.Sweep.point -> Obs.Json.t
(** One tolerance-frontier point, as in reports and results. *)

val run :
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?obs:Obs.Ctx.t ->
  ?guard:Rt.Guard.t ->
  ?snapshots:bool ->
  ?salt:string ->
  ?resume:Rt.Snapshot.t ->
  ?budgets:int list ->
  ?on_point:(Tol.Sweep.point -> unit) ->
  ?watchdog:Rt.Watchdog.t ->
  ?shrink:bool ->
  ?corpus_out:string ->
  ?corpus_all:bool ->
  request ->
  outcome
(** Execute a request. The optional arguments are per-call hooks passed
    through to the engine ([jobs], [pool], [snapshots], [salt]), the
    check/certify search ([resume]), the tolerance sweep ([budgets]
    overrides [0..budget_max], [on_point]) and the trial sweeps
    ([watchdog]; fuzz's [shrink], [corpus_out], [corpus_all]). *)
