(* Open-loop request schedules and their lateness accounting.

   A schedule is a pure function of its seed: evenly spaced due times at
   the offered rate, and per slot a request kind drawn from a fixed mix.
   The client sends each request when it is due whether or not earlier
   replies have arrived, and every latency is timed from the due time, so
   a stall in the client or the daemon is charged to every request it
   delayed. *)

type kind =
  | Cold_check  (** a generated model never submitted before *)
  | Ring_check
      (** a paper model under a name never submitted before: a cold job
          of fixed cost *)
  | Certify  (** a paper model at varied parameters *)
  | Tolerance  (** a paper model's tolerance sweep *)
  | Storm  (** a seeded fault storm on a paper model *)
  | Repeat  (** an exact repeat of an earlier request: a cache hit *)

let kind_name = function
  | Cold_check -> "check"
  | Ring_check -> "ring"
  | Certify -> "certify"
  | Tolerance -> "tolerance"
  | Storm -> "storm"
  | Repeat -> "hit"

(* The mix, in percent. It is synthetic: no recorded traffic exists to
   fit it to. It keeps the order the design asks for (most requests are
   cold checks; certify, tolerance, storms and cache hits are smaller
   shares) plus one heavy cold job, and within that order the numbers
   are round choices; nmbench/README.md says what each one costs. *)
let mix =
  [
    (Cold_check, 64);
    (Ring_check, 2);
    (Certify, 7);
    (Tolerance, 5);
    (Storm, 7);
    (Repeat, 15);
  ]

type slot = {
  due : float;  (** seconds after the phase starts *)
  kind : kind;
  pick : int;
      (** [Cold_check]: corpus index; [Repeat]: index of the earlier slot
          repeated; otherwise a variant draw *)
}

let draw_kind rng =
  let r = Prng.int rng 100 in
  let rec go acc = function
    | [ (k, _) ] -> k
    | (k, w) :: tl -> if r < acc + w then k else go (acc + w) tl
    | [] -> Cold_check
  in
  go 0 mix

(* [count] slots at [rate] per second. Cold checks number the corpus from
   [first_model] on, so successive phases never share a model. A repeat
   targets a non-repeat slot due at least [repeat_lag] seconds earlier,
   so its original has normally been answered and cached; a repeat with
   no such slot yet becomes a cold check. *)
let schedule ~seed ~rate ~count ?(first_model = 0) ?(repeat_lag = 0.25) () =
  let rng = Prng.create seed in
  let gap = 1. /. rate in
  let next_model = ref first_model in
  let slots = Array.make count { due = 0.; kind = Cold_check; pick = 0 } in
  let cold () =
    let m = !next_model in
    incr next_model;
    (Cold_check, m)
  in
  for i = 0 to count - 1 do
    let due = float_of_int i *. gap in
    let kind, pick =
      match draw_kind rng with
      | Cold_check -> cold ()
      | Repeat ->
          let eligible = int_of_float ((due -. repeat_lag) /. gap) in
          if eligible <= 0 then cold ()
          else
            let rec find tries =
              if tries = 0 then cold ()
              else
                let j = Prng.int rng eligible in
                if slots.(j).kind <> Repeat then (Repeat, j) else find (tries - 1)
            in
            find 8
      | k -> (k, Prng.int rng 1_000_000)
    in
    slots.(i) <- { due; kind; pick }
  done;
  (slots, !next_model)

(* What the client observed for one request, in seconds on one clock. *)
type outcome = {
  o_due : float;
  o_sent : float;
  o_recv : float;  (** reply time; meaningless when not [o_ok] *)
  o_ok : bool;  (** answered correctly, not refused, not timed out *)
}

(* Latency from the due time. A failed request counts as missing any
   limit: it is charged at least [timeout]. *)
let latency ~timeout o =
  if o.o_ok then o.o_recv -. o.o_due
  else Float.max timeout (o.o_recv -. o.o_due)

(* How late the generator sent the request. *)
let lag o = Float.max 0. (o.o_sent -. o.o_due)

(* Most requests outstanding at once: sent, reply not yet received. *)
let backlog_max outcomes =
  let events =
    Array.to_list outcomes
    |> List.concat_map (fun o -> [ (o.o_sent, 1); (o.o_recv, -1) ])
    |> List.sort (fun (t1, d1) (t2, d2) ->
           (* at equal times, count the reply first *)
           match Float.compare t1 t2 with 0 -> compare d1 d2 | c -> c)
  in
  let _, peak =
    List.fold_left
      (fun (cur, peak) (_, d) ->
        let cur = cur + d in
        (cur, max peak cur))
      (0, 0) events
  in
  peak

type summary = {
  failed : int;
  p50 : float;  (** seconds *)
  p99 : float;
  lag_max : float;
  backlog : int;  (** most requests outstanding at once *)
}

let summarize ~timeout outcomes =
  let lat = Array.map (latency ~timeout) outcomes in
  let failed =
    Array.fold_left (fun acc o -> if o.o_ok then acc else acc + 1) 0 outcomes
  in
  {
    failed;
    p50 = Stats.median lat;
    p99 = Stats.nearest_rank 99. lat;
    lag_max = Array.fold_left (fun acc o -> Float.max acc (lag o)) 0. outcomes;
    backlog = backlog_max outcomes;
  }

(* The p99 of each [window]-second stretch of due times, then the median
   of those: a burst of host stalls moves one window, not the figure.
   Windows hold at least 1000 requests (ten beyond the p99); with fewer
   the phase is one window. *)
let windowed_p99 ~timeout ~window outcomes =
  let n = Array.length outcomes in
  if n = 0 then Float.nan
  else
    let t0 = Array.fold_left (fun acc o -> Float.min acc o.o_due) Float.infinity outcomes in
    let t1 = Array.fold_left (fun acc o -> Float.max acc o.o_due) t0 outcomes in
    let k = max 1 (int_of_float ((t1 -. t0) /. window)) in
    let k = if n / k < 1000 then max 1 (n / 1000) else k in
    let width = (t1 -. t0) /. float_of_int k in
    let bins = Array.make k [] in
    Array.iter
      (fun o ->
        let b =
          if width <= 0. then 0
          else min (k - 1) (int_of_float ((o.o_due -. t0) /. width))
        in
        bins.(b) <- latency ~timeout o :: bins.(b))
      outcomes;
    Stats.median (Array.map (fun l -> Stats.nearest_rank 99. (Array.of_list l)) bins)

(* Sustained throughput of a saturating closed loop: the replies
   received in each [bin]-second stretch of [from, until), as a rate,
   and the median of those rates. A stall of the shared host empties
   one or two bins, not the figure. With no whole bin in the range the
   whole range is one bin. *)
let throughput ~bin ~from ~until recv_times =
  if until <= from then Float.nan
  else
  let k = max 1 (int_of_float ((until -. from) /. bin)) in
  let width = Float.min bin (until -. from) in
  let counts = Array.make k 0 in
  Array.iter
    (fun t ->
      if t >= from then
        let b = int_of_float ((t -. from) /. width) in
        if b < k then counts.(b) <- counts.(b) + 1)
    recv_times;
  Stats.median (Array.map (fun c -> float_of_int c /. width) counts)
