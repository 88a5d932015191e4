(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name, start and end (wall
   seconds), the id of the enclosing span ([-1] at top level) and the id
   of the operation it belongs to. Spans stay in memory while the
   workload runs and are written out once it ends, so recording costs a
   clock read and a list cons. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  op : int;
}

type t = {
  clock : unit -> float;
  mutable finished : span list;  (* newest first *)
  mutable open_ids : int list;  (* innermost first *)
  mutable next : int;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; finished = []; open_ids = []; next = 0 }

let with_span t ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let stop = t.clock () in
      t.open_ids <- List.tl t.open_ids;
      t.finished <- { id; name; start; stop; parent; op } :: t.finished)
    f

(* Record an interval measured elsewhere (the open-loop client knows a
   request's due and reply times only after the fact). *)
let add t ~op ?(parent = -1) name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.finished <- { id; name; start; stop; parent; op } :: t.finished;
  id

(* Record intervals the program timed itself, whose nesting is not
   known, beneath [parent]. Each is [(seq, name, start, stop)], [seq]
   being the order the program reported them in: a span ends, and so is
   reported, after every span it encloses. So each interval goes under
   the shortest one reported after it that contains it, give or take
   [eps] of rounding, or under [parent] when none does. *)
let add_nested t ~op ~parent ?(eps = 2e-6) intervals =
  let outer_first = List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) intervals in
  ignore
    (List.fold_left
       (fun placed (_, name, start, stop) ->
         let enclosing =
           List.fold_left
             (fun best (id, a, b) ->
               if a -. eps <= start && stop <= b +. eps then
                 match best with
                 | Some (_, ba, bb) when bb -. ba <= b -. a -> best
                 | _ -> Some (id, a, b)
               else best)
             None placed
         in
         let parent = match enclosing with Some (id, _, _) -> id | None -> parent in
         (add t ~op ~parent name ~start ~stop, start, stop) :: placed)
       [] outer_first)

let spans t = List.rev t.finished
let duration s = s.stop -. s.start

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: tl -> (
        match cur with
        | None -> go acc (Some (a, b)) tl
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) tl
            else go (acc +. (cb -. ca)) (Some (a, b)) tl)
  in
  go 0. None clipped

(* Children by parent id, built once per analysis. *)
type index = (int, span) Hashtbl.t

let index all : index =
  let h = Hashtbl.create 1024 in
  List.iter (fun c -> Hashtbl.add h c.parent c) all;
  h

let children idx s = Hashtbl.find_all idx s.id
let intervals spans = List.map (fun c -> (c.start, c.stop)) spans

(* A span's self time: its duration minus the part its children cover. *)
let self_time idx s =
  duration s -. covered ~lo:s.start ~hi:s.stop (intervals (children idx s))

let rec leaves idx s =
  match children idx s with [] -> [ s ] | cs -> List.concat_map (leaves idx) cs

(* Share of a span's duration covered by the leaf spans beneath it: what
   the innermost layers account for, so an unmeasured remainder at any
   level shows. *)
let leaf_coverage idx s =
  let d = duration s in
  if d <= 0. then 1. else covered ~lo:s.start ~hi:s.stop (intervals (leaves idx s)) /. d

(* Self and total time summed per span name, in first-seen order. *)
let by_name all =
  let idx = index all in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let self = self_time idx s and total = duration s in
      match Hashtbl.find_opt tbl s.name with
      | Some (a, b, n) -> Hashtbl.replace tbl s.name (a +. self, b +. total, n + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (self, total, 1))
    all;
  List.rev_map
    (fun name ->
      let self, total, n = Hashtbl.find tbl name in
      (name, self, total, n))
    !order

(* Share of the ops' time covered by leaf spans: over the top-level
   spans (the ops), covered time summed over total time summed. *)
let op_coverage all =
  let idx = index all in
  let covered, total =
    List.fold_left
      (fun (c, d) s ->
        if s.parent = -1 then (c +. (leaf_coverage idx s *. duration s), d +. duration s)
        else (c, d))
      (0., 0.) all
  in
  if total <= 0. then 1. else covered /. total

(* Sum of durations of the spans named [name] whose op is [op]. *)
let total_named all ~op name =
  List.fold_left
    (fun acc s -> if s.op = op && s.name = name then acc +. duration s else acc)
    0. all

(* Wall time of op [op]: its top-level spans. *)
let op_duration all ~op =
  List.fold_left
    (fun acc s -> if s.op = op && s.parent = -1 then acc +. duration s else acc)
    0. all

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"op\":%d}"
    s.id s.name s.start s.stop s.parent s.op

let write t file =
  let oc = open_out file in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (spans t);
  close_out oc
