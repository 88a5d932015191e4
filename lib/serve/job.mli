(** One serve job: request validation and the content-addressed cache
    key. Execution is {!Ops.run}, the runner the CLI verbs share.

    {!prepare} is the reader-thread half — cheap and bounded (option
    validation, one compile of the size-capped model text, a SHA-256) —
    so cache probes and rejections never occupy the executor. {!run} is
    the executor half, one job at a time over the server's shared
    {!Par.Pool}. *)

type options = {
  ops : Ops.options;
      (** semantic options; defaults {!Ops.defaults} (the [Lazy] engine
          serves arbitrary models without the eager size cap) *)
  params : (string * int) list;  (** .nm parameter overrides *)
  deadline : float option;  (** resource knob — never in the cache key *)
  budget_states : int option;  (** resource knob *)
  budget_bytes : int option;  (** resource knob *)
}

val defaults : options

type prepared = {
  op : Proto.op;
  opts : options;
  request : Ops.request;
      (** the compiled model and its resolved fault class (see
          {!Ops.request}) *)
  model_digest : string;  (** canonical digest, params folded; ["-"] for
                              fuzz *)
  key : string;
      (** cache key: SHA-256 over op, model digest, and the op's
          semantic options — excluding [jobs] (bit-identical at any job
          count) and the resource knobs (a completed verdict is valid
          under any budget) *)
}

val prepare : Proto.request -> (prepared, Proto.error_code * string) result
(** Validate options, compile the model, resolve the fault class, and
    derive the cache key. Every rejection (unknown option, compile
    error, missing model, certify without a fault class) comes back as
    [Bad_request] with a located message — never an exception. *)

val run :
  pool:Par.Pool.t -> obs:Obs.Ctx.t -> guard:Rt.Guard.t -> prepared ->
  Ops.outcome
(** Execute. Never raises: engine overflows, guard trips, and
    cancellation map to the matching in-protocol outcome. Only complete
    outcomes are [cacheable], so a budget trip or drain can never poison
    the cache. *)
