(* The serve daemon: a long-lived checking service multiplexing every
   analysis over ONE shared Par.Pool.

   Thread shape:
   - acceptor: selects on the listening socket (with a timeout, so it
     observes drain without relying on close-waking accept) and spawns
     one reader thread per connection;
   - readers: bounded line reader per connection. The reader answers
     everything O(1) inline — ping, metrics, protocol errors, compile
     rejections, and cache hits — and only forwards cache misses to the
     scheduler. A line that grows past max_request_bytes is answered
     with an in-protocol "too-large" error and discarded up to its
     newline, so an oversized payload costs bounded memory and never
     desyncs the stream;
   - executor (the caller of [run], which owns the pool): takes jobs in
     round-robin fairness from the scheduler and runs them one at a
     time over the shared pool — the pool is a collective-operation
     resource, concurrency across clients comes from the queue, not
     from overlapping analyses;
   - drain watcher: polls the Rt.Drain latches (signal handlers only
     flip atomics — no lock is safe in signal context) and performs the
     lock-taking part: stop accepting, close the scheduler. Queued jobs
     still run (soft drain); a hard drain's cancel token is linked into
     every job guard, so in-flight and queued work degrades to the
     documented exit-5 incomplete semantics instead of being lost.

   A slow or dead client can never wedge the daemon: replies are
   written under a per-connection mutex with a select timeout, and a
   connection that stops reading is dropped. Jobs whose client
   disconnected mid-run still complete (their result is cached — the
   work is not wasted) and their reply write is skipped. *)

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  jobs : int;
  queue_cap : int;  (* per-client pending-job bound *)
  cache_entries : int;
  max_request_bytes : int;
  artifacts_dir : string option;
      (* per-job JSONL trace files: job-NNNNNN-<key prefix>.jsonl *)
  default_deadline : float option;
      (* applied when a job sets no deadline of its own *)
}

let default_config ~address =
  {
    address;
    jobs = Par.Pool.default_jobs ();
    queue_cap = 64;
    cache_entries = 1024;
    max_request_bytes = 1 lsl 20;
    artifacts_dir = None;
    default_deadline = None;
  }

type conn = {
  conn_id : int;
  fd : Unix.file_descr;
  lock : Mutex.t;  (* guards writes, [alive], [pending], [fd_closed] *)
  mutable alive : bool;  (* peer still connected *)
  mutable pending : int;  (* queued/in-flight jobs holding the fd open *)
  mutable fd_closed : bool;
}

type queued = {
  q_conn : conn;
  q_id : Obs.Json.t;
  q_prepared : Job.prepared;
  q_seq : int;
  q_enqueued : float;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  actual : address;  (* the TCP port resolved when binding port 0 *)
  drain : Rt.Drain.t;
  sched : queued Sched.t;
  cache : Cache.t;
  ctx : Obs.Ctx.t;
  started : float;
  conn_seq : int Atomic.t;
  job_seq : int Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable readers : Thread.t list;
  readers_lock : Mutex.t;
}

let write_timeout = 10.0

(* --- setup --- *)

let bind_listener = function
  | `Unix path ->
      (* A stale socket file from a dead daemon blocks bind; remove it.
         A live daemon on the same path loses its socket — the race is
         inherent to Unix sockets, and single-daemon-per-path is the
         operator's contract. *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64
       with e ->
         Unix.close fd;
         raise e);
      (fd, `Unix path)
  | `Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            failwith (Printf.sprintf "serve: cannot resolve host %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (addr, port));
         Unix.listen fd 64
       with e ->
         Unix.close fd;
         raise e);
      let actual_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, `Tcp (host, actual_port))

let create config =
  if config.jobs <= 0 then invalid_arg "Server.create: jobs must be positive";
  (match config.artifacts_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  let listen_fd, actual = bind_listener config.address in
  {
    config;
    listen_fd;
    actual;
    drain = Rt.Drain.create ();
    sched = Sched.create ~cap:config.queue_cap;
    cache = Cache.create ~entries:config.cache_entries;
    ctx = Obs.Ctx.create ();
    started = Unix.gettimeofday ();
    conn_seq = Atomic.make 0;
    job_seq = Atomic.make 0;
    conns = Hashtbl.create 16;
    conns_lock = Mutex.create ();
    readers = [];
    readers_lock = Mutex.create ();
  }

let drain_handle t = t.drain
let address t = t.actual

let port t =
  match t.actual with `Tcp (_, p) -> Some p | `Unix _ -> None

let drain ?(hard = false) t =
  if hard then Rt.Drain.request_hard t.drain else Rt.Drain.request t.drain

let metrics_registry t = Obs.Ctx.metrics t.ctx

(* --- metrics helpers --- *)

let m_counter t name = Obs.Metrics.counter (metrics_registry t) name
let m_gauge t name = Obs.Metrics.gauge (metrics_registry t) name
let m_hist t name = Obs.Metrics.histogram (metrics_registry t) name
let count t name = Obs.Metrics.incr (m_counter t name)

let update_depth t =
  Obs.Metrics.set (m_gauge t "serve.queue_depth") (Sched.pending t.sched)

(* --- connection output --- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let _, ready, _ = Unix.select [] [ fd ] [] write_timeout in
    if ready = [] then failwith "write timeout";
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let close_fd_locked conn =
  if not conn.fd_closed then begin
    conn.fd_closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Write one reply line; a failed or timed-out write marks the
   connection dead (and wakes its reader via shutdown) instead of
   propagating — a client that stopped reading is the client's problem,
   never the daemon's. *)
let send t conn json =
  locked conn.lock @@ fun () ->
  if conn.alive then
    let line = Obs.Json.to_string json ^ "\n" in
    try write_all conn.fd line 0 (String.length line)
    with _ ->
      conn.alive <- false;
      count t "serve.dropped_connections";
      (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ())

(* The reader saw EOF (or a read error): no more requests will arrive.
   The fd stays open while queued jobs still reference the connection —
   the executor closes it when the last one completes. *)
let conn_eof t conn =
  locked t.conns_lock (fun () -> Hashtbl.remove t.conns conn.conn_id);
  locked conn.lock @@ fun () ->
  conn.alive <- false;
  if conn.pending = 0 then close_fd_locked conn

let job_done conn =
  locked conn.lock @@ fun () ->
  conn.pending <- conn.pending - 1;
  if (not conn.alive) && conn.pending = 0 then close_fd_locked conn

(* --- request handling (reader threads) --- *)

let elapsed_us since = int_of_float ((Unix.gettimeofday () -. since) *. 1e6)

let send_error t conn ~id code msg =
  count t "serve.errors";
  send t conn (Proto.error_reply ~id code msg)

let metrics_result t =
  let reg = metrics_registry t in
  Obs.Json.Obj
    [
      ("status", Obs.Json.Str "ok");
      ("uptime_s", Obs.Json.Float (Unix.gettimeofday () -. t.started));
      ("pending", Obs.Json.Int (Sched.pending t.sched));
      ( "cache",
        Obs.Json.Obj
          [
            ("size", Obs.Json.Int (Cache.size t.cache));
            ("hits", Obs.Json.Int (Cache.hits t.cache));
            ("misses", Obs.Json.Int (Cache.misses t.cache));
          ] );
      ("metrics", Obs.Metrics.snapshot reg);
      ("prometheus", Obs.Json.Str (Obs.Metrics.render_prometheus reg));
    ]

let handle_line t conn line =
  count t "serve.requests";
  let start = Unix.gettimeofday () in
  match Proto.parse_request line with
  | Error (code, msg) -> send_error t conn ~id:Obs.Json.Null code msg
  | Ok req -> (
      match req.Proto.op with
      | Proto.Ping ->
          send t conn
            (Proto.reply ~id:req.Proto.id ~cached:false
               ~elapsed_us:(elapsed_us start)
               ~result:(Obs.Json.Obj [ ("status", Obs.Json.Str "ok") ]))
      | Proto.Metrics ->
          send t conn
            (Proto.reply ~id:req.Proto.id ~cached:false
               ~elapsed_us:(elapsed_us start) ~result:(metrics_result t))
      | _ -> (
          match Job.prepare req with
          | Error (code, msg) -> send_error t conn ~id:req.Proto.id code msg
          | Ok prepared -> (
              match Cache.find t.cache prepared.Job.key with
              | Some result ->
                  count t "serve.cache_hits";
                  Obs.Metrics.observe (m_hist t "serve.hit_us")
                    (elapsed_us start);
                  send t conn
                    (Proto.reply ~id:req.Proto.id ~cached:true
                       ~elapsed_us:(elapsed_us start) ~result)
              | None -> (
                  count t "serve.cache_misses";
                  let q =
                    {
                      q_conn = conn;
                      q_id = req.Proto.id;
                      q_prepared = prepared;
                      q_seq = Atomic.fetch_and_add t.job_seq 1;
                      q_enqueued = start;
                    }
                  in
                  locked conn.lock (fun () ->
                      conn.pending <- conn.pending + 1);
                  match Sched.submit t.sched ~client:conn.conn_id q with
                  | `Ok -> update_depth t
                  | `Full ->
                      job_done conn;
                      send_error t conn ~id:req.Proto.id Proto.Queue_full
                        (Printf.sprintf
                           "client queue full (%d pending jobs); read some \
                            replies first"
                           t.config.queue_cap)
                  | `Closed ->
                      job_done conn;
                      send_error t conn ~id:req.Proto.id Proto.Draining
                        "server is draining; not accepting new jobs"))))

let reader t conn =
  let chunk = Bytes.create 8192 in
  let buf = Buffer.create 8192 in
  let skipping = ref false in
  let running = ref true in
  while !running do
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> running := false
    | exception Unix.Unix_error _ -> running := false
    | exception Sys_error _ -> running := false
    | n ->
        for i = 0 to n - 1 do
          match Bytes.get chunk i with
          | '\n' ->
              if !skipping then skipping := false
              else begin
                let line = Buffer.contents buf in
                if String.trim line <> "" then handle_line t conn line
              end;
              Buffer.clear buf
          | c ->
              if not !skipping then begin
                Buffer.add_char buf c;
                if Buffer.length buf > t.config.max_request_bytes then begin
                  (* Reject now, then discard silently up to the newline
                     so the reply count stays one per request line. *)
                  Buffer.clear buf;
                  skipping := true;
                  count t "serve.requests";
                  send_error t conn ~id:Obs.Json.Null Proto.Too_large
                    (Printf.sprintf "request exceeds %d bytes"
                       t.config.max_request_bytes)
                end
              end
        done
  done;
  conn_eof t conn

(* --- acceptor --- *)

let accept_loop t =
  let stop = ref false in
  while not !stop do
    if Rt.Drain.requested t.drain then stop := true
    else
      match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ -> stop := Rt.Drain.requested t.drain
          | fd, _ ->
              let conn =
                {
                  conn_id = Atomic.fetch_and_add t.conn_seq 1;
                  fd;
                  lock = Mutex.create ();
                  alive = true;
                  pending = 0;
                  fd_closed = false;
                }
              in
              locked t.conns_lock (fun () ->
                  Hashtbl.replace t.conns conn.conn_id conn);
              count t "serve.connections";
              let th = Thread.create (fun () -> reader t conn) () in
              locked t.readers_lock (fun () ->
                  t.readers <- th :: t.readers))
      | exception Unix.Unix_error _ -> stop := true
  done

(* --- executor --- *)

let job_guard t (prepared : Job.prepared) =
  let o = prepared.Job.opts in
  let deadline =
    match o.Job.deadline with
    | Some _ as d -> d
    | None -> t.config.default_deadline
  in
  let budget =
    Rt.Budget.make ?deadline_s:deadline ?max_states:o.Job.budget_states
      ?max_bytes:o.Job.budget_bytes ()
  in
  Rt.Guard.create ~budget ~cancel:(Rt.Cancel.create ())
    ~link:(Rt.Drain.cancel t.drain) ()

let job_ctx t q =
  match t.config.artifacts_dir with
  | None -> (Obs.Ctx.disabled, None)
  | Some dir -> (
      let file =
        Filename.concat dir
          (Printf.sprintf "job-%06d-%s.jsonl" q.q_seq
             (String.sub q.q_prepared.Job.key 0 12))
      in
      try
        let oc = open_out file in
        (Obs.Ctx.create ~sink:(Obs.Sink.jsonl oc) (), Some file)
      with Sys_error _ -> (Obs.Ctx.disabled, None))

let run_one t pool q =
  update_depth t;
  let started = Unix.gettimeofday () in
  let guard = job_guard t q.q_prepared in
  let obs, _artifact = job_ctx t q in
  let outcome = Job.run ~pool ~obs ~guard q.q_prepared in
  Obs.Ctx.close obs;
  count t "serve.jobs";
  Obs.Metrics.add
    (m_counter t "serve.states_explored")
    outcome.Ops.states_explored;
  Obs.Metrics.observe (m_hist t "serve.job_us") (elapsed_us started);
  Obs.Metrics.observe (m_hist t "serve.queue_wait_us")
    (int_of_float ((started -. q.q_enqueued) *. 1e6));
  let result = Ops.result outcome in
  if outcome.Ops.cacheable then Cache.store t.cache q.q_prepared.Job.key result;
  send t q.q_conn
    (Proto.reply ~id:q.q_id ~cached:false
       ~elapsed_us:(elapsed_us q.q_enqueued) ~result);
  job_done q.q_conn

let executor t pool =
  let rec loop () =
    match Sched.take t.sched with
    | None -> ()
    | Some q ->
        run_one t pool q;
        update_depth t;
        loop ()
  in
  loop ()

(* --- drain watcher --- *)

(* The signal handler only flips atomics (Rt.Drain); this thread does
   the lock-taking part at ~50ms granularity: stop accepting, close the
   scheduler so the executor drains to completion. *)
let drain_watcher t =
  while not (Rt.Drain.requested t.drain) do
    Thread.delay 0.05
  done;
  Sched.close t.sched

(* --- lifecycle --- *)

let run t =
  (* A dropped client must surface as EPIPE on write, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let watcher = Thread.create drain_watcher t in
  let acceptor = Thread.create accept_loop t in
  Par.Pool.with_pool ~jobs:t.config.jobs (fun pool -> executor t pool);
  (* Executor done: the scheduler is closed and empty. Tear down. *)
  Thread.join watcher;
  Thread.join acceptor;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Wake readers blocked on idle connections, then join them so no
     thread outlives [run]. *)
  let live =
    locked t.conns_lock (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
  in
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    live;
  let readers = locked t.readers_lock (fun () -> t.readers) in
  List.iter Thread.join readers;
  (* No orphaned socket file: the drain contract includes temp-file
     cleanliness. *)
  match t.actual with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()
