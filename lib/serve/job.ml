(* One serve job: a validated request, its compiled model and resolved
   fault class (an [Ops.request]), and its cache key. Execution is
   [Ops.run], the runner the CLI verbs share.

   [prepare] runs on the reader thread — it is the cheap, allocation-
   bounded part (option validation, one compile of a size-capped model
   text, a SHA-256) whose results let the reader answer cache hits and
   rejections without ever touching the executor. [run] is the
   expensive part, executed one job at a time on the executor over the
   server's shared Par.Pool.

   Cache-key policy: the key covers exactly the inputs that determine
   the result bytes — the op, the canonical model digest (params
   folded), and the per-op semantic options. It excludes [jobs] (every
   backend is bit-identical at any job count — the repo's equivalence
   contract) and the resource knobs deadline/budget_states/budget_bytes
   (a completed verdict is valid however much budget it was given; runs
   the budget stops are exit-5 and never cached). *)

type options = {
  ops : Ops.options;  (* the daemon's defaults: Ops.defaults, lazy engine *)
  params : (string * int) list;
  (* resource knobs — never part of the cache key *)
  deadline : float option;
  budget_states : int option;
  budget_bytes : int option;
}

let defaults =
  {
    ops = Ops.defaults;
    params = [];
    deadline = None;
    budget_states = None;
    budget_bytes = None;
  }

let ( let* ) = Result.bind

let as_int name v =
  match Obs.Json.to_int v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "option %s: expected an integer" name)

let as_float name = function
  | Obs.Json.Float f -> Ok f
  | Obs.Json.Int n -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "option %s: expected a number" name)

let as_string name = function
  | Obs.Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "option %s: expected a string" name)

let positive name n =
  if n > 0 then Ok n
  else Error (Printf.sprintf "option %s: must be positive" name)

let non_negative name n =
  if n >= 0 then Ok n
  else Error (Printf.sprintf "option %s: must be non-negative" name)

let parse_params v =
  match v with
  | Obs.Json.Obj fields ->
      List.fold_left
        (fun acc (name, value) ->
          let* acc = acc in
          let* n = as_int (Printf.sprintf "params.%s" name) value in
          Ok ((name, n) :: acc))
        (Ok []) fields
      |> Result.map List.rev
  | _ -> Error "option params: expected an object of NAME: INT"

let options_of_json fields =
  List.fold_left
    (fun acc (name, value) ->
      let* o = acc in
      let set f = Ok { o with ops = f o.ops } in
      match name with
      | "engine" -> (
          let* s = as_string name value in
          match Explore.Engine.backend_of_name s with
          | Some engine -> set (fun p -> { p with engine })
          | None ->
              Error
                (Printf.sprintf "option engine: unknown engine %S (%s)" s
                   (String.concat "|" (List.map fst Explore.Engine.backends))))
      | "max_states" ->
          let* n = as_int name value in
          let* max_states = positive name n in
          set (fun p -> { p with max_states })
      | "ball" ->
          let* ball = as_int name value in
          set (fun p -> { p with ball })
      | "seed" ->
          let* seed = as_int name value in
          set (fun p -> { p with seed })
      | "trials" ->
          let* n = as_int name value in
          let* trials = non_negative name n in
          set (fun p -> { p with trials })
      | "rate" ->
          let* rate = as_float name value in
          if rate < 0. || rate > 1. then
            Error "option rate: must be within [0, 1]"
          else set (fun p -> { p with rate })
      | "max_steps" ->
          let* n = as_int name value in
          let* max_steps = positive name n in
          set (fun p -> { p with max_steps })
      | "faults" ->
          let* s = as_string name value in
          set (fun p -> { p with faults = Some s })
      | "fault_budget" ->
          let* n = as_int name value in
          set (fun p -> { p with fault_budget = Some n })
      | "budget_max" ->
          let* n = as_int name value in
          let* budget_max = non_negative name n in
          set (fun p -> { p with budget_max })
      | "adversary" -> (
          match value with
          | Obs.Json.Bool adversary -> set (fun p -> { p with adversary })
          | _ -> Error "option adversary: expected a boolean")
      | "count" ->
          let* n = as_int name value in
          let* count = non_negative name n in
          set (fun p -> { p with count })
      | "max_vars" ->
          let* max_vars = as_int name value in
          if max_vars < 2 then Error "option max_vars: must be at least 2"
          else set (fun p -> { p with max_vars })
      | "params" ->
          let* ps = parse_params value in
          Ok { o with params = ps }
      | "deadline" ->
          let* f = as_float name value in
          if f <= 0. then Error "option deadline: must be positive"
          else Ok { o with deadline = Some f }
      | "budget_states" ->
          let* n = as_int name value in
          let* n = positive name n in
          Ok { o with budget_states = Some n }
      | "budget_bytes" ->
          let* n = as_int name value in
          let* n = positive name n in
          Ok { o with budget_bytes = Some n }
      | name -> Error (Printf.sprintf "unknown option %S" name))
    (Ok defaults) fields

type prepared = {
  op : Proto.op;
  opts : options;
  request : Ops.request;
  model_digest : string;  (* ["-"] for fuzz *)
  key : string;
}

let key_of ~op ~digest (o : Ops.options) =
  let i name v = Printf.sprintf "%s=%d" name v in
  let engine_parts =
    [
      "engine=" ^ Explore.Engine.name_of_backend o.engine;
      i "max_states" o.max_states;
      i "ball" o.ball;
    ]
  in
  let faults_part =
    "faults=" ^ Option.value o.faults ~default:"declared"
  in
  let fault_budget_part =
    "fault_budget="
    ^ (match o.fault_budget with None -> "default" | Some b -> string_of_int b)
  in
  let parts =
    match op with
    | Proto.Check -> engine_parts
    | Proto.Certify -> engine_parts @ [ faults_part; fault_budget_part ]
    | Proto.Tolerance ->
        engine_parts
        @ [
            faults_part;
            i "budget_max" o.budget_max;
            Printf.sprintf "adversary=%b" o.adversary;
          ]
    | Proto.Storm ->
        [
          i "seed" o.seed;
          i "trials" o.trials;
          Printf.sprintf "rate=%.17g" o.rate;
          i "max_steps" o.max_steps;
          faults_part;
          fault_budget_part;
        ]
    | Proto.Fuzz -> [ i "seed" o.seed; i "count" o.count; i "max_vars" o.max_vars ]
    | Proto.Ping | Proto.Metrics -> []
  in
  Lang.Sha256.hex
    (String.concat "|"
       (("op=" ^ Proto.op_name op) :: ("model=" ^ digest) :: parts))

let bad msg = Error (Proto.Bad_request, msg)

let compile_model ~params text =
  try
    let src = Lang.Source.of_string ~file:"<request>" text in
    let ast = Lang.Driver.parse_string ~file:"<request>" text in
    let em = Lang.Driver.compile ~params src ast in
    Ok (ast, em)
  with
  | Lang.Err.Error e -> bad (Lang.Err.to_string e)
  | Failure msg -> bad msg

let ops_op = function
  | Proto.Check -> Some Ops.Check
  | Proto.Certify -> Some Ops.Certify
  | Proto.Tolerance -> Some Ops.Tolerance
  | Proto.Storm -> Some Ops.Storm
  | Proto.Fuzz -> Some Ops.Fuzz
  | Proto.Ping | Proto.Metrics -> None

let prepare (req : Proto.request) =
  match (ops_op req.op, options_of_json req.options) with
  | None, _ ->
      bad (Printf.sprintf "op %S is not a job" (Proto.op_name req.op))
  | _, Error msg -> bad msg
  | Some op, Ok opts -> (
      let compiled =
        match (op, req.model) with
        | Ops.Fuzz, Some _ -> bad "fuzz takes no model"
        | Ops.Fuzz, None -> Ok (None, "-")
        | _, None ->
            bad
              (Printf.sprintf "op %S requires a model" (Proto.op_name req.op))
        | _, Some text ->
            let* ast, em = compile_model ~params:opts.params text in
            Ok
              ( Some (Ops.of_elab em),
                Lang.Canon.with_params ~params:em.Lang.Elab.params
                  (Lang.Canon.model_digest ast) )
      in
      let* model, digest = compiled in
      (* The fault class is resolved here, on the reader thread, so a bad
         spec (or a certify job with no fault class at all) is rejected
         inline, before it ever occupies the executor. *)
      match Ops.request ?model op opts.ops with
      | Error (Ops.Bad_spec spec) ->
          bad
            (Printf.sprintf "option faults: bad spec %S (%s)" spec
               Ops.fault_grammar)
      | Error Ops.No_faults ->
          bad "certify: the model declares no faults; pass options.faults"
      | Ok request ->
          Ok
            {
              op = req.op;
              opts;
              request;
              model_digest = digest;
              key = key_of ~op:req.op ~digest opts.ops;
            })

let run ~pool ~obs ~guard p = Ops.run ~pool ~obs ~guard p.request
