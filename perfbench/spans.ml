(* The benchmark's own spans.  Each op's public calls run inside a
   span recorded here, from the benchmark's files — the program's own
   tracer is not consulted — so every layer's self time is measured the
   same way on every commit.  Spans of one op share the recorder;
   [reset] between ops. *)

type span = {
  id : int;
  parent : int option;  (** the enclosing span open when this one began *)
  name : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
}

type t = {
  mutable spans : span list;  (** closed spans, most recent first *)
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable next : int;
}

let create () = { spans = []; stack = []; next = 0 }

let reset t =
  t.spans <- [];
  t.stack <- [];
  t.next <- 0

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; start; stop } :: t.spans)
    f

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]: children that
   overlap one another (a parallel stage) are counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of its interval that
   its direct children cover. *)
let self_time spans s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      spans
  in
  duration s -. covered ~lo:s.start ~hi:s.stop children

(* Self time summed per span name, in first-seen order. *)
let self_times spans =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let v = self_time spans s in
      match Hashtbl.find_opt tbl s.name with
      | Some acc -> Hashtbl.replace tbl s.name (acc +. v)
      | None ->
        Hashtbl.add tbl s.name v;
        order := s.name :: !order)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* The traced-run sum check: the stages' self times must account for
   the op's wall time, measured separately around the whole op, to
   within [tolerance] of it.  What is left over is the benchmark's own
   glue between stages. *)
let sum_check ~tolerance ~wall self_sum =
  wall > 0.0 && Float.abs (wall -. self_sum) <= tolerance *. wall
