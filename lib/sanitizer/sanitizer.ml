module Memsim = Giantsan_memsim
module Histogram = Giantsan_telemetry.Histogram

(* History-caching state (§4.3), generalized from the original single
   quasi-bound slot into a small MRU window history (the UM's two-slot
   recent-segment idiom). Each window [w_lo, w_hi) records a span of
   absolute addresses proven addressable at the time it was stored; a
   window is empty iff w_lo >= w_hi. Slot 0 is the most recently used;
   [cache_note] merges overlapping/adjacent windows and evicts the least
   recent when the slots overflow, so an evicted bound is always one that
   was itself proven — eviction can never manufacture a claim. Carrying
   windows (a lower AND an upper edge) instead of a single upper bound is
   what lets descending and strided access streams hit cache: the fix for
   the fig11 reverse-traversal regression. *)
type window = { mutable w_lo : int; mutable w_hi : int }
type cache = { mutable cache_base : int; windows : window array }

let mru_slots = 3

let new_cache ~base =
  { cache_base = base;
    windows = Array.init mru_slots (fun _ -> { w_lo = 0; w_hi = 0 }) }

let cache_windows c =
  Array.to_list c.windows
  |> List.filter_map (fun w ->
         if w.w_lo < w.w_hi then Some (w.w_lo, w.w_hi) else None)

(* Quasi-bound view for telemetry and compatibility: how far above
   [cache_base] the cache currently vouches. *)
let cache_ub c =
  let ub = ref 0 in
  Array.iter
    (fun w ->
      if w.w_lo < w.w_hi && w.w_lo <= c.cache_base && w.w_hi > c.cache_base
      then ub := max !ub (w.w_hi - c.cache_base))
    c.windows;
  !ub

(* The hit test runs on every cached access, so it allocates nothing: slot
   0 is tested inline (the UM's check-the-recent-slot-first idiom) and only
   a slot-0 miss scans the rest, closure-free. The query is non-empty, so a
   window covering it is non-empty too. *)
let rec hit_from ws k ~lo ~hi =
  k < Array.length ws
  &&
  let w = ws.(k) in
  if w.w_lo <= lo && hi <= w.w_hi then begin
    (* promote the covering window to the MRU front *)
    for j = k downto 1 do
      ws.(j) <- ws.(j - 1)
    done;
    ws.(0) <- w;
    true
  end
  else hit_from ws (k + 1) ~lo ~hi

let cache_hit c ~lo ~hi =
  hi <= lo
  ||
  let w = c.windows.(0) in
  (w.w_lo <= lo && hi <= w.w_hi) || hit_from c.windows 1 ~lo ~hi

(* Move the non-empty windows to the front, keeping their order; returns
   how many there are. *)
let rec compact ws i j =
  if j = Array.length ws then i
  else begin
    let w = ws.(j) in
    if w.w_lo < w.w_hi then begin
      let d = ws.(i) in
      d.w_lo <- w.w_lo;
      d.w_hi <- w.w_hi;
      compact ws (i + 1) (j + 1)
    end
    else compact ws i (j + 1)
  end

(* The merged window takes the front; surviving disjoint windows keep
   their recency order behind it; the least recent falls off. *)
let install ws ~lo ~hi =
  let live = compact ws 0 0 in
  for k = Array.length ws - 1 downto 1 do
    let d = ws.(k) in
    if k <= live then begin
      let s = ws.(k - 1) in
      d.w_lo <- s.w_lo;
      d.w_hi <- s.w_hi
    end
    else begin
      d.w_lo <- 0;
      d.w_hi <- 0
    end
  done;
  ws.(0).w_lo <- lo;
  ws.(0).w_hi <- hi

(* Union [lo, hi) with every overlapping-or-adjacent window, emptying each
   one absorbed, and sweep again after any absorption (a grown union can
   newly touch a window an earlier sweep skipped) until a fixpoint. *)
let rec absorb ws k ~lo ~hi ~grew =
  if k < Array.length ws then begin
    let w = ws.(k) in
    if w.w_lo < w.w_hi && w.w_lo <= hi && lo <= w.w_hi then begin
      let lo = Int.min lo w.w_lo and hi = Int.max hi w.w_hi in
      w.w_lo <- 0;
      w.w_hi <- 0;
      absorb ws (k + 1) ~lo ~hi ~grew:true
    end
    else absorb ws (k + 1) ~lo ~hi ~grew
  end
  else if grew then absorb ws 0 ~lo ~hi ~grew:false
  else install ws ~lo ~hi

let cache_note c ~lo ~hi = if hi > lo then absorb c.windows 0 ~lo ~hi ~grew:false

type t = {
  name : string;
  heap : Memsim.Heap.t;
  counters : Counters.t;
  hists : Histogram.set;
  shadow_loads : unit -> int;
  shadow_stores : unit -> int;
  malloc : ?kind:Memsim.Memobj.kind -> int -> Memsim.Memobj.t;
  free : int -> Report.t option;
  access : base:int -> addr:int -> width:int -> Report.t option;
  check_region : lo:int -> hi:int -> Report.t option;
  new_cache : base:int -> cache;
  cached_access : cache -> off:int -> width:int -> Report.t option;
  flush_cache : cache -> Report.t option;
  supports_operation_level : bool;
  snapshot : unit -> unit;
  restore : unit -> unit;
}

(* Single-slot snapshot plumbing shared by every runtime constructor: [cap]
   captures whatever backend state the tool owns, [put] reinstates it.
   One slot is all the fuzz-mode profile needs — each exec restores to the
   same pristine point — and re-snapshotting simply overwrites it. *)
let snapshot_slot ~cap ~put =
  let slot = ref None in
  let snapshot () = slot := Some (cap ()) in
  let restore () =
    match !slot with
    | None -> invalid_arg "Sanitizer.restore: no snapshot taken"
    | Some s -> put s
  in
  (snapshot, restore)

let counters_copy c =
  let s = Counters.create () in
  Counters.add s c;
  s

let counters_restore c s =
  Counters.reset c;
  Counters.add c s

let plain_malloc heap counters ?kind size =
  counters.Counters.mallocs <- counters.Counters.mallocs + 1;
  Memsim.Heap.malloc heap ?kind size

module Registry = struct
  type cell = {
    c_name : string;
    c_counters : Counters.t;
    c_hists : Histogram.set;
  }

  (* [on] follows the initialized-before-fork discipline (flip it only while
     no worker domain runs); [cells] is the one piece of cross-domain shared
     state in the system, so pushes and reads go through a mutex. Snapshot
     aggregation is commutative (counter addition, histogram merge) and the
     result is sorted by name, so the summary is deterministic no matter
     which domain registered first. *)
  let on = ref false
  let lock = Mutex.create ()
  let cells : cell list ref = ref []
  let enable () = on := true
  let disable () = on := false
  let is_on () = !on
  let clear () = Mutex.protect lock (fun () -> cells := [])

  let register t =
    if !on then
      Mutex.protect lock (fun () ->
          cells :=
            { c_name = t.name; c_counters = t.counters; c_hists = t.hists }
            :: !cells)

  let snapshot () =
    let cells = Mutex.protect lock (fun () -> !cells) in
    let by_name = Hashtbl.create 8 in
    List.iter
      (fun c ->
        match Hashtbl.find_opt by_name c.c_name with
        | None ->
          let acc = Counters.create () in
          Counters.add acc c.c_counters;
          Hashtbl.replace by_name c.c_name
            (acc, Histogram.merge_set (Histogram.create_set ()) c.c_hists)
        | Some (acc, hists) ->
          Counters.add acc c.c_counters;
          Hashtbl.replace by_name c.c_name
            (acc, Histogram.merge_set hists c.c_hists))
      cells;
    Hashtbl.fold
      (fun name (acc, hists) l -> (name, Counters.to_assoc acc, hists) :: l)
      by_name []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
end

let free_error_report ~name ~addr err =
  let kind =
    match err with
    | Memsim.Heap.Free_null -> None
    | Memsim.Heap.Invalid_free -> Some Report.Invalid_free
    | Memsim.Heap.Free_not_at_start -> Some Report.Free_not_at_start
    | Memsim.Heap.Double_free -> Some Report.Double_free
  in
  Option.map
    (fun kind -> Report.make ~kind ~addr ~size:0 ~detected_by:name)
    kind
