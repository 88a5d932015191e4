(* serve-mix: an open loop against a spawned `nonmask serve --jobs 2`.

   One process drives one pipelined load connection from a single
   select loop, matching replies to requests by id. Every request is due
   at a fixed offered rate and timed from its due time. The traffic is a
   pure function of the seed: cold `check` jobs on .nm models generated
   with Gen.Generate/Gen.Emit (most of the mix), cold checks of a
   renamed token ring (a fixed-cost heavy job), `certify` and
   `tolerance` on the paper models at varied parameters, seeded `storm`
   jobs, and exact repeats of earlier requests, which the daemon answers
   from its result cache. The engine does little work per request, so
   the model compiler, hashing, the protocol and the executor queue
   dominate.

   Phases: set-up (spawn to first ping, repeated), a warm-up, the
   measured phase at the fixed rate, then a saturating closed loop whose
   sustained throughput is max_rps. Every reply is then checked: cold
   checks against an in-process check of the same model, paper-model
   jobs against pinned values, repeats byte for byte against their first
   reply. *)

open Common
module Openloop = Nmbench.Openloop
module Spans = Nmbench.Spans
module Json = Obs.Json

(* A fifth to a seventh of what the daemon sustains on this mix on a
   2-vCPU host, so a slowdown of the shared host stretches service
   times without building a queue that p50_ms would then measure. *)
let fixed_rate = 200.
let warmup_s = 1.0

(* The saturating closed loop: this many requests kept outstanding on
   the load connection for [saturate_s] seconds, the first [settle_s] of
   them not counted; throughput is the median over [bin_s] bins. Four
   outstanding keep the daemon busy: a window of 32 gave no higher rate,
   and one that varied more from run to run. *)
let window = 4
let saturate_s = 8.
let settle_s = 1.
let bin_s = 0.5

(* Sizes the saturating phase's request list: if the daemon answers
   faster, the list runs out early and only the stretch while it lasted
   is counted. *)
let rate_ceiling = 4000.

(* Time the run leaves outside the measured phase. *)
let reserved_s = 14.
let timeout_s = 30.
let spin_s = 0.001
let spawns = 16

(* --- the daemon ------------------------------------------------------ *)

let socket_path () =
  Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

let spawn ~cli ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat run_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    (* queue and cache far larger than a run needs: a stall of the host
       delays requests instead of refusing them, and every repeat hits *)
    Unix.create_process cli
      [|
        cli; "serve"; "--listen"; sock; "--jobs"; "2"; "--queue-cap"; "1000000";
        "--cache-entries"; "1000000";
      |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  pid

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* --- connections ----------------------------------------------------- *)

(* The load connection is non-blocking: requests wait in [out]
   until the socket takes them, so the client never blocks writing while
   the daemon blocks writing replies it is not reading. A connection the
   daemon closed is marked dead, and its unanswered requests fail. The
   control connection blocks. *)
type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read, not yet a whole line *)
  chunk : Bytes.t;
  out : string Queue.t;  (** lines not yet written, the first in part *)
  mutable out_off : int;
  mutable alive : bool;
}

let connect ~sock ~deadline =
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        {
          fd;
          buf = Buffer.create 65536;
          chunk = Bytes.create 65536;
          out = Queue.create ();
          out_off = 0;
          alive = true;
        }
    | exception Unix.Unix_error _ when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0002;
        attempt ()
  in
  attempt ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Write what the socket takes now. *)
let flush c =
  try
    while c.alive && not (Queue.is_empty c.out) do
      let s = Queue.peek c.out in
      let n = Unix.write_substring c.fd s c.out_off (String.length s - c.out_off) in
      c.out_off <- c.out_off + n;
      if c.out_off = String.length s then begin
        ignore (Queue.pop c.out);
        c.out_off <- 0
      end
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> c.alive <- false

let send c line =
  Queue.push (line ^ "\n") c.out;
  flush c

(* Read what is available and hand over every complete line. *)
let drain_lines c f =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.alive <- false
  | 0 -> c.alive <- false
  | n ->
      Buffer.add_subbytes c.buf c.chunk 0 n;
      let s = Buffer.contents c.buf in
      let rec go start =
        match String.index_from_opt s start '\n' with
        | Some i ->
            f (String.sub s start (i - start));
            go (i + 1)
        | None ->
            Buffer.clear c.buf;
            Buffer.add_substring c.buf s start (String.length s - start)
      in
      go 0

let request_sync c json =
  send c (Json.to_string json);
  let reply = ref None in
  while !reply = None do
    if not c.alive then failwith "the daemon closed the control connection";
    (match Unix.select [ c.fd ] [] [] timeout_s with
    | [], _, _ -> failwith "no reply from the daemon"
    | _ -> ());
    drain_lines c (fun l -> reply := Some l)
  done;
  match Json.of_string (Option.get !reply) with
  | Ok v -> v
  | Error e -> failwith ("bad reply: " ^ e)

let ping c =
  ignore (request_sync c (Json.Obj [ ("id", Json.Int 0); ("op", Json.Str "ping") ]))

let metrics c =
  let r = request_sync c (Json.Obj [ ("id", Json.Int 0); ("op", Json.Str "metrics") ]) in
  match Option.bind (Json.member "result" r) (Json.member "metrics") with
  | Some m -> m
  | None -> failwith "metrics reply without metrics"

let metric_int snap name field =
  let v = Json.member name snap in
  let v = match field with None -> v | Some f -> Option.bind v (Json.member f) in
  match Option.bind v Json.to_int with Some n -> float_of_int n | None -> 0.

(* --- the corpus ------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The paper models' source texts, by file name. *)
let paper_models () =
  List.map
    (fun f -> (f, read_file (Filename.concat "examples/models" f)))
    [ "token_ring.nm"; "diffusing.nm"; "xyz.nm" ]

(* Paper-model variants: (file, params). *)
let certify_variants =
  [|
    ("token_ring.nm", [ ("N", 3); ("K", 4) ]);
    ("token_ring.nm", [ ("N", 3); ("K", 5) ]);
    ("token_ring.nm", [ ("N", 4); ("K", 5) ]);
    ("token_ring.nm", [ ("N", 4); ("K", 6) ]);
    ("diffusing.nm", [ ("N", 3) ]);
    ("diffusing.nm", [ ("N", 4) ]);
    ("diffusing.nm", [ ("N", 5) ]);
    ("xyz.nm", []);
  |]

(* Tolerance variants, budgets 0..2 with the adversary, and their pinned
   frontiers: span size and adversary bound (= exact worst case) per
   budget. *)
let tolerance_variants =
  [|
    (("diffusing.nm", [ ("N", 3) ]), [ (20, 0); (50, 5); (64, 6) ]);
    (("diffusing.nm", [ ("N", 4) ]), [ (32, 0); (150, 9); (252, 12) ]);
    (("diffusing.nm", [ ("N", 5) ]), [ (68, 0); (490, 13); (984, 18) ]);
    (("token_ring.nm", [ ("N", 3); ("K", 4) ]), [ (10, 0); (56, 4); (64, 4) ]);
    (("token_ring.nm", [ ("N", 4); ("K", 5) ]), [ (17, 0); (252, 13); (609, 14) ]);
    (("token_ring.nm", [ ("N", 4); ("K", 6) ]), [ (21, 0); (399, 13); (1215, 14) ]);
  |]

let storm_models =
  [| ("token_ring.nm", []); ("diffusing.nm", [ ("N", 3) ]); ("xyz.nm", []) |]

(* Generated models: model [i] of a seed comes from its own stream. The
   state-space cap keeps every cold check light, so a job's cost is
   dominated by compiling, hashing and the protocol, not the engine. *)
let corpus_config = { Gen.Generate.default with max_states = 512 }

let model_text ~seed i =
  Gen.Emit.spec_to_nm
    (Gen.Generate.spec ~config:corpus_config (Prng.create ((seed * 1_000_003) + i)))

type request = {
  kind : Openloop.kind;
  body : (string * Json.t) list;  (** everything but the id *)
  cold_model : string option;  (** the model text of a cold check *)
  expect : (Json.t -> string option) option;
      (** pinned-value check of the result; [Some reason] on mismatch *)
  origin : int;  (** for repeats: the slot repeated; else [-1] *)
}

let params_json ps = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) ps)

let job ~op ~paper (file, ps) options =
  [
    ("op", Json.Str op);
    ("model", Json.Str (List.assoc file paper));
    ("options", Json.Obj (("params", params_json ps) :: options));
  ]

let str_field r name = match Json.member name r with Some (Json.Str s) -> s | _ -> "?"
let int_field r name =
  match Option.bind (Json.member name r) Json.to_int with Some n -> n | None -> -1

let expect_certified r =
  if str_field r "status" = "certified" && int_field r "exit" = 0 then None
  else Some ("certify status " ^ str_field r "status")

let expect_frontier pins r =
  let points = match Json.member "points" r with Some (Json.List l) -> l | _ -> [] in
  let got =
    List.map
      (fun p ->
        Printf.sprintf "%d/%b/%d/%d" (int_field p "span_states")
          (Json.member "certified" p = Some (Json.Bool true))
          (int_field p "worst_case") (int_field p "adversary_bound"))
      points
  in
  let want = List.map (fun (s, w) -> Printf.sprintf "%d/true/%d/%d" s w w) pins in
  if got = want then None
  else
    Some
      (Printf.sprintf "frontier %s, pinned %s" (String.concat " " got)
         (String.concat " " want))

let expect_storm trials r =
  if
    str_field r "status" = "done"
    && int_field r "converged" = trials
    && int_field r "failures" = 0
    && int_field r "skipped" = 0
  then None
  else Some (Printf.sprintf "storm converged %d of %d" (int_field r "converged") trials)

let storm_trials = 20

(* The token ring at N=5, K=5 (3125 states, about 10 ms of executor
   time) renamed per request: the same work under a fresh digest, so it
   is never a cache hit. Requests queue behind it on the single
   executor. *)
let ring_check ~paper pick =
  let renamed =
    String.split_on_char '\n' (List.assoc "token_ring.nm" paper)
    |> List.map (fun l ->
           if l = "model token-ring" then Printf.sprintf "model token-ring-%d" pick else l)
    |> String.concat "\n"
  in
  [
    ("op", Json.Str "check");
    ("model", Json.Str renamed);
    ("options", Json.Obj [ ("params", params_json [ ("N", 5); ("K", 5) ]) ]);
  ]

let expect_ring r =
  let got =
    Printf.sprintf "%s/%d/%d/%d" (str_field r "status") (int_field r "explored")
      (int_field r "region_states") (int_field r "worst_case_steps")
  in
  if got = "converges/3125/3104/25" then None else Some ("ring check " ^ got)

let build ~seed ~paper (slots : Openloop.slot array) =
  let reqs = Array.make (Array.length slots) None in
  Array.iteri
    (fun i (s : Openloop.slot) ->
      let r =
        match s.kind with
        | Cold_check ->
            let text = model_text ~seed s.pick in
            {
              kind = s.kind;
              body = [ ("op", Json.Str "check"); ("model", Json.Str text) ];
              cold_model = Some text;
              expect = None;
              origin = -1;
            }
        | Ring_check ->
            {
              kind = s.kind;
              body = ring_check ~paper s.pick;
              cold_model = None;
              expect = Some expect_ring;
              origin = -1;
            }
        | Certify ->
            let v = certify_variants.(s.pick mod Array.length certify_variants) in
            {
              kind = s.kind;
              body = job ~op:"certify" ~paper v [ ("faults", Json.Str "corrupt:k=1") ];
              cold_model = None;
              expect = Some expect_certified;
              origin = -1;
            }
        | Tolerance ->
            let v, pins = tolerance_variants.(s.pick mod Array.length tolerance_variants) in
            {
              kind = s.kind;
              body =
                job ~op:"tolerance" ~paper v
                  [ ("budget_max", Json.Int 2); ("adversary", Json.Bool true) ];
              cold_model = None;
              expect = Some (expect_frontier pins);
              origin = -1;
            }
        | Storm ->
            let v = storm_models.(s.pick mod Array.length storm_models) in
            {
              kind = s.kind;
              body =
                job ~op:"storm" ~paper v
                  [ ("seed", Json.Int s.pick); ("trials", Json.Int storm_trials) ];
              cold_model = None;
              expect = Some (expect_storm storm_trials);
              origin = -1;
            }
        | Repeat ->
            let o = Option.get reqs.(s.pick) in
            { o with kind = s.kind; origin = s.pick }
      in
      reqs.(i) <- Some r)
    slots;
  Array.map Option.get reqs

(* --- one open-loop phase --------------------------------------------- *)

type reply = {
  r_ok : bool;  (** processed without a protocol error *)
  cached : bool;
  elapsed_us : int;
  result : string;  (** the result object, rendered *)
  result_json : Json.t;
}

let no_reply =
  { r_ok = false; cached = false; elapsed_us = 0; result = ""; result_json = Json.Null }

let parse_reply line =
  match Json.of_string line with
  | Error _ -> no_reply
  | Ok v ->
      let result_json, result =
        match Json.member "result" v with
        | Some res -> (res, Json.to_string res)
        | None -> (Json.Null, str_field v "code")
      in
      {
        r_ok = Json.member "ok" v = Some (Json.Bool true);
        cached = Json.member "cached" v = Some (Json.Bool true);
        elapsed_us = int_field v "elapsed_us";
        result;
        result_json;
      }

(* The id of a reply line, read without parsing the rest: the daemon
   writes compact JSON with the id first. *)
let reply_id line =
  let key = "{\"id\":" in
  let k = String.length key in
  if String.length line > k && String.sub line 0 k = key then begin
    let j = ref k in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
      incr j
    done;
    int_of_string_opt (String.sub line k (!j - k))
  end
  else None

type phase = {
  reqs : request array;
  outcomes : Openloop.outcome array;
  replies : reply array;
  encode_s : float array;  (** client time to render each request *)
}

(* Send each request over [conn] when due, collect every reply, and time
   everything on one clock. Requests are rendered before the phase and
   replies parsed after it, so the client does little work while the
   daemon is measured. The loop sleeps until [spin_s] before the
   next due time and polls from there, so the client's own timer
   wake-up is not charged to the daemon. With [window], a request also
   waits until fewer than [window] are outstanding; with [stop_after],
   no request is sent that late into the phase, and the phase holds only
   the requests sent. A dead connection ends the phase: what it left
   unanswered fails. *)
let run_phase ?window ?stop_after conn ~first_id slots reqs =
  let n = Array.length slots in
  let sent = Array.make n 0. and recv = Array.make n 0. in
  let raw = Array.make n None in
  let lines, encode_s =
    Array.split
      (Array.init n (fun i ->
           timed (fun () ->
               Json.to_string (Json.Obj (("id", Json.Int (first_id + i)) :: reqs.(i).body)))))
  in
  let t0 = now () +. 0.005 in
  let due i = t0 +. slots.(i).Openloop.due in
  let last_send =
    match stop_after with Some d -> t0 +. d | None -> Float.infinity
  in
  let n_sent = ref 0 and outstanding = ref 0 in
  let deadline = ref (Float.min (due (n - 1)) last_send +. timeout_s) in
  let room () = match window with Some w -> !outstanding < w | None -> true in
  let on_line line =
    let t = now () in
    match reply_id line with
    | Some id when id >= first_id && id < first_id + n && raw.(id - first_id) = None ->
        let i = id - first_id in
        raw.(i) <- Some line;
        recv.(i) <- t;
        decr outstanding
    | _ -> ()
  in
  let sending () = !n_sent < n && now () < last_send in
  while
    (sending () || !outstanding > 0)
    && now () < !deadline
    && conn.alive
  do
    let t = now () in
    while sending () && due !n_sent <= t && room () do
      let i = !n_sent in
      send conn lines.(i);
      sent.(i) <- now ();
      incr n_sent;
      incr outstanding
    done;
    let wait =
      if sending () && room () then Float.max 0. (due !n_sent -. now () -. spin_s)
      else 0.05
    in
    let writes = if Queue.is_empty conn.out then [] else [ conn.fd ] in
    let readable, writable, _ =
      try Unix.select [ conn.fd ] writes [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if writable <> [] then flush conn;
    if readable <> [] then drain_lines conn on_line
  done;
  let finished = now () in
  let k = !n_sent in
  let replies =
    Array.init k (fun i -> match raw.(i) with Some l -> parse_reply l | None -> no_reply)
  in
  let outcomes =
    Array.init k (fun i ->
        {
          Openloop.o_due = due i;
          o_sent = sent.(i);
          o_recv = (if raw.(i) <> None then recv.(i) else finished);
          o_ok = replies.(i).r_ok;
        })
  in
  { reqs = Array.sub reqs 0 k; outcomes; replies; encode_s = Array.sub encode_s 0 k }

(* --- correctness ----------------------------------------------------- *)

let expected_check text =
  let em = Lang.Driver.compile_string text in
  let engine =
    Explore.Engine.create ~backend:Explore.Engine.Lazy ~max_states:2_000_000 ~jobs:1
      em.Lang.Elab.env
  in
  match
    Explore.Convergence.check_unfair engine
      (Guarded.Compile.program em.Lang.Elab.program)
      ~from:Explore.Engine.All ~target:em.Lang.Elab.invariant
  with
  | Ok st ->
      Printf.sprintf "converges/%d/%d/%s" st.explored st.region_states
        (match st.worst_case_steps with Some w -> string_of_int w | None -> "null")
  | Error f ->
      "fails/"
      ^ Format.asprintf "%a" (Explore.Convergence.pp_failure em.Lang.Elab.env) f

let observed_check r =
  match str_field r "status" with
  | "converges" ->
      Printf.sprintf "converges/%d/%d/%s" (int_field r "explored")
        (int_field r "region_states")
        (match Json.member "worst_case_steps" r with
        | Some (Json.Int w) -> string_of_int w
        | _ -> "null")
  | "fails" -> "fails/" ^ str_field r "failure"
  | s -> s

(* Check every request. One that got no reply or an error reply counts
   failed; a wrong answer also makes the run incorrect. *)
let verify t ph =
  Array.iteri
    (fun i (o : Openloop.outcome) ->
      let req = ph.reqs.(i) and rep = ph.replies.(i) in
      let what = Printf.sprintf "%s request %d" (Openloop.kind_name req.kind) i in
      if not o.o_ok then
        record t
          ~what:(what ^ ": " ^ if rep.result = "" then "no reply" else rep.result)
          false
      else
        match req.kind with
        | Repeat ->
            let orig = ph.replies.(req.origin) in
            if orig.r_ok then
              expect t
                ~what:(what ^ " byte-identical to its first reply")
                orig.result rep.result
            else record t ~what true
        | Cold_check ->
            expect t ~what
              (expected_check (Option.get req.cold_model))
              (observed_check rep.result_json)
        | _ -> (
            match (Option.get req.expect) rep.result_json with
            | None -> record t ~what true
            | Some reason -> record t ~wrong:true ~what:(what ^ ": " ^ reason) false))
    ph.outcomes

(* Every paper-model certify and tolerance variant once, one at a time
   and cold, checked against its pinned result: the per-op cold latency,
   and the cache entries the measured phase then hits. *)
let cold_variants t ctl ~paper =
  let one op v options expect_fn =
    let body = job ~op ~paper v options in
    let reply, dt =
      timed (fun () -> request_sync ctl (Json.Obj (("id", Json.Int 0) :: body)))
    in
    let what = Printf.sprintf "cold %s %s" op (fst v) in
    (match Json.member "result" reply with
    | Some r when Json.member "ok" reply = Some (Json.Bool true) -> (
        match expect_fn r with
        | None -> record t ~what true
        | Some reason -> record t ~wrong:true ~what:(what ^ ": " ^ reason) false)
    | _ -> record t ~what:(what ^ ": error reply") false);
    dt
  in
  let certify =
    Array.map
      (fun v -> one "certify" v [ ("faults", Json.Str "corrupt:k=1") ] expect_certified)
      certify_variants
  in
  let tolerance =
    Array.map
      (fun (v, pins) ->
        one "tolerance" v
          [ ("budget_max", Json.Int 2); ("adversary", Json.Bool true) ]
          (expect_frontier pins))
      tolerance_variants
  in
  (certify, tolerance)

(* --- runs ------------------------------------------------------------ *)

let setup_daemon ~cli ~sock =
  let t0 = now () in
  let pid = spawn ~cli ~sock in
  let c = connect ~sock ~deadline:(t0 +. 30.) in
  ping c;
  (pid, c, now () -. t0)

type session = {
  pid : int;
  ctl : conn;  (** synchronous requests: metrics, the cold variants *)
  load : conn;  (** the pipelined load connection *)
  sock : string;
  paper : (string * string) list;  (** the paper models' texts *)
  mutable next_id : int;
  mutable next_model : int;
}

(* Spawn to first ping, [spawns] times (the first discarded as warm-up);
   the last daemon stays up for the workload. *)
let open_session ~cli =
  ensure_run_dir ();
  (* a write to a connection the daemon closed fails with EPIPE, which
     is reported, instead of killing the client silently *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = socket_path () in
  let rec go k acc =
    let pid, ctl, dt = setup_daemon ~cli ~sock in
    if k > 1 then begin
      close ctl;
      stop pid;
      go (k - 1) (dt :: acc)
    end
    else begin
      let times = Array.of_list (List.tl (List.rev (dt :: acc))) in
      let deadline = now () +. 10. in
      let load = connect ~sock ~deadline in
      Unix.set_nonblock load.fd;
      ( { pid; ctl; load; sock; paper = paper_models (); next_id = 1; next_model = 0 },
        Nmbench.Stats.median times )
    end
  in
  go spawns []

let close_session s =
  close s.load;
  close s.ctl;
  stop s.pid;
  try Sys.remove s.sock with Sys_error _ -> ()

let with_session ~cli f =
  let s, setup_s = open_session ~cli in
  Fun.protect ~finally:(fun () -> close_session s) (fun () -> f s setup_s)

(* One phase of requests due at [rate] for [seconds], on fresh corpus
   models. *)
let phase ?window ?stop_after s ~seed ~rate ~seconds =
  let slots, next_model =
    Openloop.schedule ~seed ~rate ~count:(max 1 (int_of_float (rate *. seconds)))
      ~first_model:s.next_model ()
  in
  s.next_model <- next_model;
  let reqs = build ~seed ~paper:s.paper slots in
  let first_id = s.next_id in
  s.next_id <- s.next_id + Array.length slots;
  run_phase ?window ?stop_after s.load ~first_id slots reqs

let summary ph = Openloop.summarize ~timeout:timeout_s ph.outcomes

(* Warm-up, then the measured phase at the fixed rate, bracketed by
   metrics snapshots. *)
let measured_phase t s ~seed ~seconds =
  let cold = cold_variants t s.ctl ~paper:s.paper in
  ignore (phase s ~seed:(seed + 7919) ~rate:fixed_rate ~seconds:warmup_s);
  let before = metrics s.ctl in
  let main = phase s ~seed ~rate:fixed_rate ~seconds in
  let after = metrics s.ctl in
  verify t main;
  let delta name field = metric_int after name field -. metric_int before name field in
  (cold, main, delta)

(* The highest rate the daemon sustains on this mix: a closed loop that
   keeps [window] requests outstanding, their replies counted per bin
   once the loop has settled and while it still had requests to send.
   Also the states the daemon explored per second of the loop. *)
let saturate t s ~seed =
  let before = metrics s.ctl in
  let ph =
    phase s ~seed:(seed + 104729) ~rate:rate_ceiling ~seconds:saturate_s ~window
      ~stop_after:saturate_s
  in
  let after = metrics s.ctl in
  verify t ph;
  match ph.outcomes with
  | [||] -> (Float.nan, Float.nan)
  | outs ->
      let start = outs.(0).o_sent in
      let last_sent = outs.(Array.length outs - 1).o_sent in
      let recv = Array.map (fun (o : Openloop.outcome) -> o.o_recv) outs in
      let states =
        metric_int after "serve.states_explored" None
        -. metric_int before "serve.states_explored" None
      in
      ( Openloop.throughput ~bin:bin_s ~from:(start +. settle_s)
          ~until:(Float.min (start +. saturate_s) last_sent)
          recv,
        states /. (Array.fold_left Float.max start recv -. start) )

let latency_median ph pred =
  let xs = ref [] in
  Array.iteri
    (fun i o ->
      if pred ph.reqs.(i) ph.replies.(i) then
        xs := Openloop.latency ~timeout:timeout_s o :: !xs)
    ph.outcomes;
  Nmbench.Stats.median (Array.of_list !xs)

let timed_run ~cli ~seed ~seconds =
  let t = tally () in
  with_session ~cli @@ fun s setup_s ->
  let _, main, _ =
    measured_phase t s ~seed ~seconds:(Float.max 2. (seconds -. reserved_s))
  in
  (* the daemon's high-water mark after the fixed-rate phase, before the
     saturating loop, whose backlog must not move it *)
  let rss = peak_rss_mb ~pid:(string_of_int s.pid) () in
  let max_rps, states_per_s = saturate t s ~seed in
  let sm = summary main in
  ( t,
    [
      m "setup_s" "s" setup_s;
      m "verdict_s" "s" (latency_median main (fun r _ -> r.kind = Openloop.Cold_check));
      m "states_per_s" "1/s" states_per_s;
      m "peak_rss_mb" "MB" rss;
      m "p50_ms" "ms" (1000. *. sm.p50);
      m "max_rps" "1/s" max_rps;
    ] )

let traced_run ~cli ~seed ~seconds ~trace_file =
  let t = tally () in
  with_session ~cli @@ fun s _ ->
  let (cold_certify, cold_tolerance), main, delta =
    measured_phase t s ~seed ~seconds:(Float.max 2. (seconds -. reserved_s))
  in
  (* spans from the timestamps the client keeps in both modes: one op
     per request, its generator lag and its round trip; within the round
     trip, the daemon's own elapsed_us (read to reply, queue wait
     included), placed mid-way since the client cannot see when it
     began. The rest of the round trip, sockets and both sides' JSON
     handling, is left uncovered, so trace.coverage shows it. *)
  let tr = Spans.create () in
  Array.iteri
    (fun i (o : Openloop.outcome) ->
      let name = "serve." ^ Openloop.kind_name main.reqs.(i).kind in
      let parent = Spans.add tr ~op:i name ~start:o.o_due ~stop:o.o_recv in
      ignore (Spans.add tr ~op:i ~parent "client.lag" ~start:o.o_due ~stop:o.o_sent);
      let rt = Spans.add tr ~op:i ~parent "serve.roundtrip" ~start:o.o_sent ~stop:o.o_recv in
      let rtt = Float.max 0. (o.o_recv -. o.o_sent) in
      let d = Float.min rtt (float_of_int main.replies.(i).elapsed_us /. 1e6) in
      let start = o.o_sent +. ((rtt -. d) /. 2.) in
      ignore (Spans.add tr ~op:i ~parent:rt "serve.daemon" ~start ~stop:(start +. d)))
    main.outcomes;
  (* the lang layer, in process, on this phase's cold models *)
  let texts =
    Array.to_list main.reqs
    |> List.filter_map (fun r -> if r.kind = Cold_check then r.cold_model else None)
  in
  let compile_s =
    snd (timed (fun () -> List.iter (fun x -> ignore (Lang.Driver.compile_string x)) texts))
  in
  let asts = List.map (fun x -> Lang.Driver.parse_string x) texts in
  let digest_s =
    snd (timed (fun () -> List.iter (fun a -> ignore (Lang.Canon.model_digest a)) asts))
  in
  let nmodels = float_of_int (max 1 (List.length texts)) in
  let mean_ms name =
    delta name (Some "sum") /. Float.max 1. (delta name (Some "count")) /. 1000.
  in
  let hits = delta "serve.cache_hits" None and misses = delta "serve.cache_misses" None in
  let round_trip k ~cached =
    let xs = ref [] in
    Array.iteri
      (fun i (o : Openloop.outcome) ->
        if main.reqs.(i).kind = k && o.o_ok && main.replies.(i).cached = cached then
          xs := (o.o_recv -. o.o_sent) :: !xs)
      main.outcomes;
    1000. *. Nmbench.Stats.median (Array.of_list !xs)
  in
  let transport = ref [] in
  Array.iteri
    (fun i (o : Openloop.outcome) ->
      if o.o_ok then
        transport :=
          (o.o_recv -. o.o_sent -. (float_of_int main.replies.(i).elapsed_us /. 1e6))
          :: !transport)
    main.outcomes;
  let sm = summary main in
  let all = Spans.spans tr in
  Spans.write tr trace_file;
  ( t,
    all,
    [
      ("lang.compile_ms", 1000. *. compile_s /. nmodels);
      ("lang.digest_ms", 1000. *. digest_s /. nmodels);
      ("lang.models_per_s", nmodels /. compile_s);
      ("serve.queue_wait_ms", mean_ms "serve.queue_wait_us");
      ("serve.job_ms", mean_ms "serve.job_us");
      ("serve.cache_hit_ratio", hits /. Float.max 1. (hits +. misses));
      ("serve.states_explored", delta "serve.states_explored" None);
      ("serve.transport_ms", 1000. *. Nmbench.Stats.median (Array.of_list !transport));
      ( "serve.p99_ms",
        1000. *. Openloop.windowed_p99 ~timeout:timeout_s ~window:3. main.outcomes );
      ("serve.backlog_max", float_of_int sm.backlog);
      ("serve.gen_lag_ms", 1000. *. sm.lag_max);
      ("serve.op.check_ms", round_trip Cold_check ~cached:false);
      ("serve.op.certify_ms", 1000. *. Nmbench.Stats.median cold_certify);
      ("serve.op.tolerance_ms", 1000. *. Nmbench.Stats.median cold_tolerance);
      ("serve.op.storm_ms", round_trip Storm ~cached:false);
      ("serve.op.hit_ms", round_trip Repeat ~cached:true);
      ("render.ms", 1000. *. Nmbench.Stats.mean main.encode_s);
      ("trace.coverage", Spans.op_coverage all);
    ] )
