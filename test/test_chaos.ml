(* The chaos subsystem: the shadow-vs-oracle self-check, the fault matrix
   and the engine's two load-bearing contracts — corruption is always
   flagged, and the rendered report is byte-identical for a fixed seed
   across runs and across jobs. *)

module Memsim = Giantsan_memsim
module Heap = Memsim.Heap
module Memobj = Memsim.Memobj
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Gs_runtime = Giantsan_core.Gs_runtime
module San = Giantsan_sanitizer.Sanitizer
module Scenario = Giantsan_bugs.Scenario
module Difftest = Giantsan_bugs.Difftest
module Fault = Giantsan_chaos.Fault
module Selfcheck = Giantsan_chaos.Selfcheck
module Engine = Giantsan_chaos.Engine
module Rng = Giantsan_util.Rng

(* ------------------------------------------------------------------ *)
(* Selfcheck                                                           *)
(* ------------------------------------------------------------------ *)

(* A correct runtime's shadow is a pure function of the heap's ground
   truth, so the audit must stay empty after any legal op sequence. The
   clean-scenario generator covers the whole op surface (alloc sizes 0..,
   frees, loops, regions). *)
let test_selfcheck_clean_on_pristine =
  Helpers.q "selfcheck: clean after any legal op sequence" QCheck.small_int
    (fun seed ->
      let sc = Difftest.gen_clean ~seed in
      let san, shadow = Gs_runtime.create_exposed Helpers.small_config in
      ignore (Scenario.run_reports san sc);
      Selfcheck.run ~heap:san.San.heap ~shadow = [])

let test_corruption_always_flagged =
  Helpers.q "selfcheck: any shadow byte change is flagged" QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let san, shadow = Gs_runtime.create_exposed Helpers.small_config in
      (* populate: a few live objects, some freed *)
      for _ = 1 to Rng.int_in rng 2 8 do
        let obj = san.San.malloc (Rng.int_in rng 0 200) in
        if Rng.bool rng then ignore (san.San.free obj.Memobj.base)
      done;
      assert (Selfcheck.run ~heap:san.San.heap ~shadow = []);
      let seg = Rng.int rng (Shadow_mem.segments shadow) in
      let mask = 1 + Rng.int rng 255 in
      Shadow_mem.poke shadow seg (Shadow_mem.peek shadow seg lxor mask);
      match Selfcheck.run ~heap:san.San.heap ~shadow with
      | [] -> false
      | ms -> List.exists (fun m -> m.Selfcheck.seg = seg) ms)

let test_selfcheck_classification () =
  let san, shadow = Gs_runtime.create_exposed Helpers.small_config in
  let obj = san.San.malloc 64 in
  let base_seg = obj.Memobj.base / 8 in
  (* live payload marked freed: shadow claims fewer bytes than truth *)
  Shadow_mem.poke shadow base_seg Giantsan_core.State_code.freed;
  (match Selfcheck.run ~heap:san.San.heap ~shadow with
  | [ m ] ->
    Alcotest.(check bool) "stale free is an underclaim" true
      (m.Selfcheck.cls = Selfcheck.Underclaim)
  | ms ->
    Alcotest.failf "expected exactly one mismatch, got %d" (List.length ms));
  (* restore, then overclaim a redzone segment: the dangerous direction *)
  Shadow_mem.poke shadow base_seg (Selfcheck.expected_code san.San.heap base_seg);
  Shadow_mem.poke shadow (base_seg - 1) Giantsan_core.State_code.good;
  match Selfcheck.run ~heap:san.San.heap ~shadow with
  | [ m ] ->
    Alcotest.(check bool) "good-over-redzone is an overclaim" true
      (m.Selfcheck.cls = Selfcheck.Overclaim)
  | ms -> Alcotest.failf "expected exactly one mismatch, got %d" (List.length ms)

(* ------------------------------------------------------------------ *)
(* Fault matrix                                                        *)
(* ------------------------------------------------------------------ *)

let test_matrix_deterministic_and_complete () =
  let a = Fault.matrix ~seed:123 and b = Fault.matrix ~seed:123 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "different seed, different schedule" true
    (a <> Fault.matrix ~seed:124);
  let planes_of cells =
    List.sort_uniq compare (List.map (fun c -> c.Fault.plane) cells)
  in
  Alcotest.(check int) "all four planes represented" 4
    (List.length (planes_of a));
  let ids = List.map (fun c -> c.Fault.cell_id) a in
  Alcotest.(check int) "cell ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

(* The subsystem's headline property: for a fixed seed the rendered
   report is byte-identical across runs and across jobs, and no fault is
   ever silently absorbed. *)
let test_engine_deterministic_across_jobs () =
  List.iter
    (fun seed ->
      let serial, held1 = Engine.run ~seed ~jobs:1 () in
      let parallel, held2 = Engine.run ~seed ~jobs:2 () in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical serial vs jobs=2 (seed %d)" seed)
        serial parallel;
      Alcotest.(check bool)
        (Printf.sprintf "contract held (seed %d)" seed)
        true (held1 && held2))
    [ 5; 42 ]

let test_engine_counters () =
  let rows = Engine.run_round ~seed:42 ~jobs:1 in
  let stats = Engine.fresh_stats () in
  Engine.tally stats rows;
  Alcotest.(check int) "every cell injects one fault"
    (List.length rows) stats.Engine.faults_injected;
  Alcotest.(check int) "no silent corruption" 0 stats.Engine.silent_corruptions;
  Alcotest.(check bool) "some faults detected" true
    (stats.Engine.faults_detected > 0);
  Alcotest.(check bool) "some runs degraded" true
    (stats.Engine.runs_degraded > 0)

(* ------------------------------------------------------------------ *)
(* Word-wide audit vs the per-segment reference                        *)
(* ------------------------------------------------------------------ *)

module State_code = Giantsan_core.State_code
module Oracle = Memsim.Oracle

(* The naive audit [Selfcheck.run] must agree with: every segment, in
   order, against [expected_code], with the class worked out from the two
   codes' claims. *)
let reference_audit heap shadow =
  List.filter_map
    (fun seg ->
      let expected = Selfcheck.expected_code heap seg
      and actual = Shadow_mem.peek shadow seg in
      if actual = expected then None
      else
        let claims v = (State_code.addressable_in_segment v, State_code.covered_bytes v) in
        let ea, ec = claims expected and aa, ac = claims actual in
        let cls =
          if aa > ea || ac > ec then Selfcheck.Overclaim
          else if aa < ea || ac < ec then Selfcheck.Underclaim
          else Selfcheck.Drift
        in
        Some { Selfcheck.seg; expected; actual; cls })
    (List.init (Shadow_mem.segments shadow) Fun.id)

(* A random legal history on an arena whose segment count is often not a
   multiple of 8: allocations of every kind and of sizes 0..160, frees of
   live objects through a small quarantine (so blocks get recycled and
   reused), stopping early when the arena runs out. Returns the objects
   ever allocated and the allocator's high-water mark, in segments. *)
let random_history rng =
  let config =
    {
      Heap.arena_size = 8 * Rng.int_in rng 40 400;
      redzone = 16;
      quarantine_budget = 8 * Rng.int_in rng 0 64;
    }
  in
  let san, shadow = Gs_runtime.create_exposed config in
  let objs = ref [] and live = ref [] and hw = ref 0 in
  (try
     for _ = 1 to Rng.int_in rng 0 40 do
       if !live <> [] && Rng.int rng 3 = 0 then begin
         let o = List.nth !live (Rng.int rng (List.length !live)) in
         ignore (san.San.free o.Memobj.base);
         live := List.filter (fun l -> l != o) !live
       end
       else begin
         let kind =
           match Rng.int rng 8 with 0 -> Memobj.Stack | 1 -> Memobj.Global | _ -> Memobj.Heap
         in
         let o = san.San.malloc ~kind (Rng.int rng 161) in
         objs := o :: !objs;
         live := o :: !live;
         hw := max !hw (Memobj.block_end o / 8)
       end
     done
   with Out_of_memory -> ());
  (san, shadow, Array.of_list !objs, !hw)

let codes =
  State_code.
    [| unallocated; freed; good; folded 3; partial 5; heap_redzone; stack_redzone; global_redzone |]

(* One corruption of a class picked at random; [poke] leaves the
   counters alone, and the owner-map rewrite models an oracle that
   disagrees with the heap, which the audit must also report
   identically. *)
let corrupt rng heap shadow objs hw =
  let n = Shadow_mem.segments shadow in
  let oracle = Heap.oracle heap in
  let value () = if Rng.bool rng then Rng.int rng 256 else codes.(Rng.int rng (Array.length codes)) in
  let poke seg = if seg >= 0 && seg < n then Shadow_mem.poke shadow seg (value ()) in
  let owned seg = Oracle.owner oracle (seg * 8) <> None in
  let word_where pred =
    let words = List.filter (fun w -> pred (8 * w)) (List.init (n / 8) Fun.id) in
    match words with [] -> None | ws -> Some (8 * List.nth ws (Rng.int rng (List.length ws)))
  in
  let word_owned p = List.exists owned (List.init 8 (fun k -> p + k)) in
  let some_obj () =
    if Array.length objs = 0 || Rng.bool rng then None
    else Some objs.(Rng.int rng (Array.length objs))
  in
  match Rng.int rng 9 with
  | 0 -> poke (Rng.int rng n)
  | 1 ->
    for _ = 1 to Rng.int_in rng 2 6 do
      poke (Rng.int rng n)
    done
  | 2 -> Option.iter (fun p -> poke (p + Rng.int rng 8)) (word_where (fun p -> not (word_owned p)))
  | 3 ->
    Option.iter
      (fun p ->
        (* several lanes of an owned word; sometimes all eight made
           unallocated, which the word compare alone would pass *)
        if Rng.bool rng then
          for k = 0 to 7 do
            Shadow_mem.poke shadow (p + k) State_code.unallocated
          done
        else
          for _ = 1 to Rng.int_in rng 1 4 do
            poke (p + Rng.int rng 8)
          done)
      (word_where word_owned)
  | 4 ->
    (* the final partial word, or the last segment when there is none *)
    let lo = n - (n mod 8) in
    if lo < n then poke (Rng.int_in rng lo (n - 1)) else poke (n - 1)
  | 5 ->
    for d = -2 to 2 do
      if Rng.bool rng then poke (hw + d)
    done
  | 6 ->
    let lo = Rng.int rng n in
    let hi = min n (lo + Rng.int_in rng 1 12) in
    Oracle.set_owner oracle ~lo:(8 * lo) ~hi:(8 * hi) (some_obj ())
  | 7 ->
    (* one owned lane in an otherwise unowned word *)
    Option.iter
      (fun p ->
        if Array.length objs > 0 then
          let seg = p + Rng.int rng 8 in
          Oracle.set_owner oracle ~lo:(8 * seg) ~hi:((8 * seg) + 8)
            (Some objs.(Rng.int rng (Array.length objs))))
      (word_where (fun p -> not (word_owned p)))
  | _ -> (* none: the two audits must agree on an untouched heap too *) ()

let test_word_walk_equals_reference =
  Helpers.q "selfcheck: word-wide walk equals the per-segment reference"
    QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let san, shadow, objs, hw = random_history rng in
      let heap = san.San.heap in
      Selfcheck.run ~heap ~shadow = []
      && List.for_all
           (fun _ ->
             corrupt rng heap shadow objs hw;
             Selfcheck.run ~heap ~shadow = reference_audit heap shadow)
           (List.init (Rng.int_in rng 1 4) Fun.id))

let suite =
  ( "chaos",
    [
      test_selfcheck_clean_on_pristine;
      test_corruption_always_flagged;
      Helpers.qt "selfcheck classifies under/overclaim" `Quick
        test_selfcheck_classification;
      Helpers.qt "fault matrix is seeded and complete" `Quick
        test_matrix_deterministic_and_complete;
      Helpers.qt "engine output identical across jobs" `Quick
        test_engine_deterministic_across_jobs;
      Helpers.qt "engine counters account for every cell" `Quick
        test_engine_counters;
      test_word_walk_equals_reference;
    ] )
