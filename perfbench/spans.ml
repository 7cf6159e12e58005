(* The traced run's span recorder. A span has a name, a start, an end, a
   parent and the id of the unit of work it belongs to. Spans are kept in
   memory and written out once the run ends. A recorder belongs to one
   domain; work that runs on pool workers records into a [fork] that is
   [join]ed back after the pool returns. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  unit_id : int;
  name : string;
  start_ns : int;
  end_ns : int;
}

type t = {
  mutable spans : span list;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable unit_id : int;
}

let ids = Atomic.make 1
let units = Atomic.make 1
let create () = { spans = []; stack = []; unit_id = 0 }

(* Start a new unit of work: spans opened from now on carry its id. *)
let new_unit t = t.unit_id <- Atomic.fetch_and_add units 1

let record t name f =
  let id = Atomic.fetch_and_add ids 1 in
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let start_ns = Common.now_ns () in
  let finish () =
    let end_ns = Common.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; unit_id = t.unit_id; name; start_ns; end_ns } :: t.spans
  in
  Fun.protect ~finally:finish f

(* [f ()] as one new unit of work inside a span named [name], or just
   [f ()] when the run is untraced. *)
let unit_span spans name f =
  match spans with
  | None -> f ()
  | Some t ->
    new_unit t;
    record t name f

(* A span timed by the caller, as one new unit of work. *)
let add_unit t name ~start_ns ~end_ns =
  new_unit t;
  let id = Atomic.fetch_and_add ids 1 in
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.spans <- { id; parent; unit_id = t.unit_id; name; start_ns; end_ns } :: t.spans

let fork t =
  { spans = []; stack = (match t.stack with p :: _ -> [ p ] | [] -> []); unit_id = t.unit_id }

let join t forks = List.iter (fun f -> t.spans <- f.spans @ t.spans) forks
let spans t = List.rev t.spans
let duration s = s.end_ns - s.start_ns

(* Self time: a span's duration minus the part of it its children cover.
   Children may overlap (pool tasks on several domains), so their
   intervals are merged before they are subtracted. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        List.sort compare
          (List.map
             (fun c -> (max s.start_ns c.start_ns, min s.end_ns c.end_ns))
             (Hashtbl.find_all children s.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (lo, hi) ->
            let lo = max lo reach in
            if hi > lo then (acc + (hi - lo), hi) else (acc, reach))
          (0, min_int) kids
      in
      (s, duration s - covered))
    spans

(* One JSON object per line, in start order. *)
let dump t path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"unit\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
        s.id s.parent s.unit_id s.name s.start_ns s.end_ns self)
    (self_times (List.sort (fun a b -> compare a.start_ns b.start_ns) (spans t)));
  close_out oc

(* Durations of every span with this name. *)
let durations t name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some (float_of_int (duration s)) else None)
       (spans t))
