(* History caching (§4.3, Figure 9): correctness and the metadata-loading
   guarantees that motivate it. *)

module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Memsim = Giantsan_memsim

let fresh () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let obj = san.San.malloc 1024 in
  (san, obj.Memsim.Memobj.base)

let test_forward_loop_loads_logarithmic () =
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  let loads_before = san.San.shadow_loads () in
  for j = 0 to 255 do
    match san.San.cached_access cache ~off:(4 * j) ~width:4 with
    | None -> ()
    | Some r ->
      Alcotest.failf "spurious report: %s" (Giantsan_sanitizer.Report.to_string r)
  done;
  let loads = san.San.shadow_loads () - loads_before in
  (* paper: at most ceil(log2 (n/8)) quasi-bound updates; each costs O(1)
     loads. 1024/8 = 128 segments -> <= 7 updates, a handful of loads each *)
  Alcotest.(check bool)
    (Printf.sprintf "O(log n) loads, got %d" loads)
    true (loads <= 30);
  Alcotest.(check bool) "far fewer than ASan's 256" true (loads < 64)

let test_cache_hits_dominate () =
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  for j = 0 to 255 do
    ignore (san.San.cached_access cache ~off:(4 * j) ~width:4)
  done;
  let c = san.San.counters in
  Alcotest.(check bool) "hits >> updates" true
    (c.Counters.cache_hits > 200 && c.Counters.cache_updates <= 10)

let test_overflow_detected_at_boundary () =
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  for j = 0 to 255 do
    ignore (san.San.cached_access cache ~off:(4 * j) ~width:4)
  done;
  (* one past the end *)
  match san.San.cached_access cache ~off:1024 ~width:4 with
  | Some _ -> ()
  | None -> Alcotest.fail "overflow missed through the cache"

let test_cache_never_claims_beyond_object =
  Helpers.q "quasi-bound stays within the object"
    QCheck.(pair (int_range 1 500) (list_of_size (Gen.int_range 1 50) small_nat))
    (fun (size, offsets) ->
      let san = Helpers.giantsan ~config:Helpers.small_config () in
      let obj = san.San.malloc size in
      let base = obj.Memsim.Memobj.base in
      let cache = san.San.new_cache ~base in
      List.for_all
        (fun off_pick ->
          let off = off_pick mod (size + 64) in
          let verdict_safe =
            Helpers.check_is_safe (san.San.cached_access cache ~off ~width:1)
          in
          let truly_safe = off + 1 <= size in
          verdict_safe = truly_safe)
        offsets)

let test_negative_offsets_always_checked () =
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  (* warm the cache *)
  for j = 0 to 99 do
    ignore (san.San.cached_access cache ~off:(4 * j) ~width:4)
  done;
  let c = san.San.counters in
  let before = c.Counters.underflow_checks in
  (* in-object negative offsets relative to a mid-object pointer are not a
     thing here (base is the object base), so these hit the left redzone *)
  (match san.San.cached_access cache ~off:(-4) ~width:4 with
  | Some _ -> ()
  | None -> Alcotest.fail "underflow missed");
  Alcotest.(check int) "dedicated underflow check ran" (before + 1)
    c.Counters.underflow_checks

let test_negative_offset_within_object () =
  (* a pointer into the middle of an object: a descending stream used to
     pay a dedicated underflow check on EVERY access (the §5.4 fig11
     regression — "no caching on the low side"). The window history now
     caches the low side: the first miss pays the check once and extends
     the window down to the fold-derived run floor, and every later
     in-window access is a cache hit. *)
  let san, base = fresh () in
  let mid = base + 512 in
  let cache = san.San.new_cache ~base:mid in
  for j = 1 to 10 do
    match san.San.cached_access cache ~off:(-4 * j) ~width:4 with
    | None -> ()
    | Some r ->
      Alcotest.failf "spurious underflow report: %s"
        (Giantsan_sanitizer.Report.to_string r)
  done;
  let c = san.San.counters in
  Alcotest.(check int) "one dedicated underflow check for the whole stream"
    1 c.Counters.underflow_checks;
  Alcotest.(check int) "the other nine accesses hit the history" 9
    c.Counters.cache_hits

let test_underflow_tail_uses_cache () =
  (* an access straddling the cache base (off < 0 < off + width) splits
     into a dedicated underflow check plus a non-negative tail; once the
     quasi-bound already covers the tail, only the underflow side should
     cost a region check, and the tail counts as a cache hit *)
  let san, base = fresh () in
  let mid = base + 512 in
  let cache = san.San.new_cache ~base:mid in
  (* warm the quasi-bound well past the tail we'll need *)
  for j = 0 to 15 do
    ignore (san.San.cached_access cache ~off:(8 * j) ~width:8)
  done;
  let c = san.San.counters in
  let hits = c.Counters.cache_hits in
  let regions = c.Counters.region_checks in
  let unders = c.Counters.underflow_checks in
  (match san.San.cached_access cache ~off:(-4) ~width:8 with
  | None -> ()
  | Some r ->
    Alcotest.failf "spurious report: %s" (Giantsan_sanitizer.Report.to_string r));
  Alcotest.(check int) "tail counted as a cache hit" (hits + 1)
    c.Counters.cache_hits;
  Alcotest.(check int) "only the underflow side ran a region check"
    (regions + 1) c.Counters.region_checks;
  Alcotest.(check int) "dedicated underflow check ran" (unders + 1)
    c.Counters.underflow_checks;
  (* a cold cache cannot vouch for the tail: both sides must check *)
  let cold = san.San.new_cache ~base:mid in
  let regions2 = c.Counters.region_checks in
  ignore (san.San.cached_access cold ~off:(-4) ~width:8);
  Alcotest.(check int) "cold cache checks both sides" (regions2 + 2)
    c.Counters.region_checks

let test_offset_zero_straddle_cache_ub_tail () =
  (* named regression for the straddle tail at offset 0 (a divergence
     class the refinement harness generator is required to cover): a
     straddling access (off < 0 < off + width) splits at the cache base;
     each side is served by the window history independently, and an
     access ending exactly at offset 0 does no tail work at all *)
  let san, base = fresh () in
  let mid = base + 256 in
  let cache = san.San.new_cache ~base:mid in
  let c = san.San.counters in
  let regions = c.Counters.region_checks and hits = c.Counters.cache_hits in
  Alcotest.(check bool) "ends exactly at offset 0: safe" true
    (Helpers.check_is_safe (san.San.cached_access cache ~off:(-4) ~width:4));
  Alcotest.(check int) "ends exactly at offset 0: underflow side only"
    (regions + 1) c.Counters.region_checks;
  Alcotest.(check int) "ends exactly at offset 0: no tail work at all" hits
    c.Counters.cache_hits;
  (* the miss above extended the history down to the run floor, so the
     straddle's low side is now a hit; only the never-proven tail checks *)
  let regions = c.Counters.region_checks and hits = c.Counters.cache_hits in
  Alcotest.(check bool) "straddle after a low-side miss: safe" true
    (Helpers.check_is_safe (san.San.cached_access cache ~off:(-4) ~width:8));
  Alcotest.(check int) "straddle: only the unproven tail checked"
    (regions + 1) c.Counters.region_checks;
  Alcotest.(check int) "straddle: low side served by the history" (hits + 1)
    c.Counters.cache_hits;
  (* warm the bound past the tail, then straddle again: both sides hit *)
  for j = 0 to 7 do
    ignore (san.San.cached_access cache ~off:(8 * j) ~width:8)
  done;
  let regions = c.Counters.region_checks and hits = c.Counters.cache_hits in
  Alcotest.(check bool) "warm straddle: safe" true
    (Helpers.check_is_safe (san.San.cached_access cache ~off:(-4) ~width:8));
  Alcotest.(check int) "warm straddle: no region check at all" regions
    c.Counters.region_checks;
  Alcotest.(check int) "warm straddle: both sides are history hits"
    (hits + 2) c.Counters.cache_hits;
  (* a fully-cold cache still checks both sides of a straddle *)
  let cold = san.San.new_cache ~base:mid in
  let regions = c.Counters.region_checks in
  Alcotest.(check bool) "cold straddle: safe" true
    (Helpers.check_is_safe (san.San.cached_access cold ~off:(-4) ~width:8));
  Alcotest.(check int) "cold straddle: both sides checked" (regions + 2)
    c.Counters.region_checks

let test_underflow_tail_refreshes_bound () =
  (* regression (satellite 1): the underflow tail used to be checked but
     NEVER noted — `access` returned without refreshing the bound, so the
     very next positive access paid a full region check again. The tail
     now refreshes the history exactly like a positive miss does. *)
  let san, base = fresh () in
  let mid = base + 512 in
  let cache = san.San.new_cache ~base:mid in
  let c = san.San.counters in
  (* cold straddle: low side pays the dedicated underflow check, tail pays
     a region check — and BOTH sides are noted (one update for the low
     window, one for the tail refresh) *)
  (match san.San.cached_access cache ~off:(-4) ~width:12 with
  | None -> ()
  | Some r ->
    Alcotest.failf "spurious report: %s" (Giantsan_sanitizer.Report.to_string r));
  Alcotest.(check int) "cold straddle: dedicated underflow check" 1
    c.Counters.underflow_checks;
  Alcotest.(check int) "cold straddle: two region checks" 2
    c.Counters.region_checks;
  Alcotest.(check int) "cold straddle: both sides noted" 2
    c.Counters.cache_updates;
  (* the refresh read the fold at the probe, which covers the rest of the
     object — the next positive access must be a pure history hit *)
  let regions = c.Counters.region_checks and hits = c.Counters.cache_hits in
  Alcotest.(check bool) "follow-up positive access: safe" true
    (Helpers.check_is_safe (san.San.cached_access cache ~off:0 ~width:8));
  Alcotest.(check int) "follow-up: no region check (the old bug)" regions
    c.Counters.region_checks;
  Alcotest.(check int) "follow-up: served by the refreshed history"
    (hits + 1) c.Counters.cache_hits;
  Alcotest.(check bool) "flush of the merged window is silent" true
    (Helpers.check_is_safe (san.San.flush_cache cache))

let test_mru_note_merge_promote_evict () =
  (* the window-history data structure itself: note/merge/promote/evict *)
  let c = San.new_cache ~base:100 in
  Alcotest.(check int) "three slots" 3 San.mru_slots;
  Alcotest.(check bool) "empty cache never hits" false
    (San.cache_hit c ~lo:0 ~hi:8);
  Alcotest.(check bool) "empty query is vacuously covered" true
    (San.cache_hit c ~lo:8 ~hi:8);
  (* three disjoint windows fill the slots, most recent first *)
  San.cache_note c ~lo:0 ~hi:8;
  San.cache_note c ~lo:16 ~hi:24;
  San.cache_note c ~lo:32 ~hi:40;
  Alcotest.(check (list (pair int int)))
    "three disjoint windows, MRU order"
    [ (32, 40); (16, 24); (0, 8) ]
    (San.cache_windows c);
  (* hitting the LRU window promotes it to the front *)
  Alcotest.(check bool) "sub-span hit" true (San.cache_hit c ~lo:2 ~hi:6);
  Alcotest.(check (list (pair int int)))
    "hit promoted to the MRU front"
    [ (0, 8); (32, 40); (16, 24) ]
    (San.cache_windows c);
  (* a note bridging two windows merges all three spans to fixpoint *)
  San.cache_note c ~lo:6 ~hi:18;
  Alcotest.(check (list (pair int int)))
    "overlap merged to fixpoint, survivor behind"
    [ (0, 24); (32, 40) ]
    (San.cache_windows c);
  (* disjoint notes beyond capacity evict the least recently used *)
  San.cache_note c ~lo:60 ~hi:68;
  San.cache_note c ~lo:80 ~hi:88;
  Alcotest.(check (list (pair int int)))
    "LRU window fell off"
    [ (80, 88); (60, 68); (0, 24) ]
    (San.cache_windows c);
  Alcotest.(check bool) "evicted span is no longer vouched for" false
    (San.cache_hit c ~lo:32 ~hi:40)

(* Reference model of the window history: the MRU list of non-empty
   windows. A hit promotes the first covering window; a note absorbs the
   closure of windows overlapping or adjacent to the new span, puts the
   union in front of the survivors, and keeps at most [mru_slots]. *)
let ref_hit ws ~lo ~hi =
  if hi <= lo then (true, ws)
  else
    let rec split before = function
      | [] -> (false, ws)
      | ((a, b) as w) :: rest when a <= lo && hi <= b ->
        (true, (w :: List.rev before) @ rest)
      | w :: rest -> split (w :: before) rest
    in
    split [] ws

let ref_note ws ~lo ~hi =
  if hi <= lo then ws
  else
    let rec grow (glo, ghi) ws =
      match List.partition (fun (a, b) -> a <= ghi && glo <= b) ws with
      | [], others -> (glo, ghi) :: others
      | touching, others ->
        grow
          (List.fold_left
             (fun (l, h) (a, b) -> (min l a, max h b))
             (glo, ghi) touching)
          others
    in
    List.filteri (fun i _ -> i < San.mru_slots) (grow (lo, hi) ws)

let prop_mru_matches_reference =
  Helpers.q "MRU history = list reference model (hit, note, evict)"
    QCheck.(list_of_size (Gen.int_range 1 40)
              (triple bool (int_range 0 96) (int_range 0 24)))
    (fun ops ->
      let c = San.new_cache ~base:0 in
      let model = ref [] in
      List.for_all
        (fun (is_note, lo, len) ->
          let hi = lo + len in
          let agree_hit =
            if is_note then begin
              San.cache_note c ~lo ~hi;
              model := ref_note !model ~lo ~hi;
              true
            end
            else begin
              let hit, ws = ref_hit !model ~lo ~hi in
              model := ws;
              San.cache_hit c ~lo ~hi = hit
            end
          in
          agree_hit && San.cache_windows c = !model)
        ops)

let test_flush_catches_mid_loop_free () =
  (* Figure 9 line 14: a free during the loop is caught by the final check *)
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  for j = 0 to 49 do
    ignore (san.San.cached_access cache ~off:(8 * j) ~width:8)
  done;
  ignore (san.San.free base);
  (* cache hits keep passing (that is the documented trade)... *)
  Alcotest.(check bool) "cached access sails through" true
    (Helpers.check_is_safe (san.San.cached_access cache ~off:16 ~width:8));
  (* ...but the loop-exit flush sees the freed shadow *)
  match san.San.flush_cache cache with
  | Some r ->
    Alcotest.(check string) "classified as UAF" "heap-use-after-free"
      (Giantsan_sanitizer.Report.kind_name r.Giantsan_sanitizer.Report.kind)
  | None -> Alcotest.fail "flush missed the mid-loop free"

let test_flush_clean_loop_is_silent () =
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  for j = 0 to 49 do
    ignore (san.San.cached_access cache ~off:(8 * j) ~width:8)
  done;
  Alcotest.(check bool) "clean flush" true
    (Helpers.check_is_safe (san.San.flush_cache cache));
  (* an untouched cache flushes silently too *)
  let cold = san.San.new_cache ~base in
  Alcotest.(check bool) "cold flush" true
    (Helpers.check_is_safe (san.San.flush_cache cold))

let test_random_access_converges () =
  (* random order: the quasi-bound still converges in O(log n) updates *)
  let san, base = fresh () in
  let cache = san.San.new_cache ~base in
  let rng = Giantsan_util.Rng.create 99 in
  for _ = 1 to 2000 do
    let j = Giantsan_util.Rng.int rng 128 in
    match san.San.cached_access cache ~off:(8 * j) ~width:8 with
    | None -> ()
    | Some r ->
      Alcotest.failf "spurious report: %s" (Giantsan_sanitizer.Report.to_string r)
  done;
  let c = san.San.counters in
  Alcotest.(check bool)
    (Printf.sprintf "few updates (%d)" c.Counters.cache_updates)
    true
    (c.Counters.cache_updates <= 12);
  Alcotest.(check bool) "rest were hits" true (c.Counters.cache_hits >= 1980)

let suite =
  ( "quasi_bound",
    [
      Helpers.qt "forward loop: O(log n) metadata loads" `Quick
        test_forward_loop_loads_logarithmic;
      Helpers.qt "hits dominate updates" `Quick test_cache_hits_dominate;
      Helpers.qt "overflow at the boundary detected" `Quick
        test_overflow_detected_at_boundary;
      test_cache_never_claims_beyond_object;
      Helpers.qt "negative offsets: dedicated check" `Quick
        test_negative_offsets_always_checked;
      Helpers.qt "negative offsets inside object pass" `Quick
        test_negative_offset_within_object;
      Helpers.qt "straddling access: tail served by the cache" `Quick
        test_underflow_tail_uses_cache;
      Helpers.qt "offset-0 straddle: cache_ub tail paths" `Quick
        test_offset_zero_straddle_cache_ub_tail;
      Helpers.qt "underflow tail refreshes the bound (regression)" `Quick
        test_underflow_tail_refreshes_bound;
      Helpers.qt "MRU note/merge/promote/evict unit" `Quick
        test_mru_note_merge_promote_evict;
      prop_mru_matches_reference;
      Helpers.qt "flush catches mid-loop free" `Quick
        test_flush_catches_mid_loop_free;
      Helpers.qt "flush is silent on clean loops" `Quick
        test_flush_clean_loop_is_silent;
      Helpers.qt "random access converges" `Quick test_random_access_converges;
    ] )
