(* Folding.upper_bound / lower_bound against a brute-force linear shadow
   scan, over randomly populated heaps, plus the logarithmic shadow-load
   bounds the .mli contracts promise (the O(1)-loads-per-region-check story
   of Algorithm 1 rests on these). *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Shadow_mem = Giantsan_shadow.Shadow_mem
module SC = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module Rng = Giantsan_util.Rng
module Bitops = Giantsan_util.Bitops

(* A GiantSan heap with random live and freed objects, shadow exposed. *)
let random_scene seed =
  let rng = Rng.create (seed + 4242) in
  let san, m = Giantsan_core.Gs_runtime.create_exposed Helpers.small_config in
  let n_objects = Rng.int_in rng 3 12 in
  for _ = 1 to n_objects do
    let size = Rng.int_in rng 0 600 in
    let obj = san.San.malloc size in
    if Rng.int rng 4 = 0 then ignore (san.San.free obj.Memsim.Memobj.base)
  done;
  (san, m, rng)

(* Brute force from the executable spec: walk the shadow one byte at a
   time, trusting only each byte's own segment and ignoring any fold's
   claim about its successors. Agreement with [upper_bound] is exactly the
   encoding's soundness: a degree-d fold may only exist where d successive
   segments really are good. *)
let linear_upper m ~addr =
  Giantsan_spec.Ref_kernel.upper_bound (Giantsan_spec.Ref_kernel.of_shadow m)
    ~addr

(* Brute force for the reverse direction: the start of the maximal run of
   fully-addressable segments ending just before [addr]'s segment. *)
let linear_lower m ~addr =
  let rec down seg =
    if seg < 0 then 0
    else
      let v = Shadow_mem.peek m seg in
      if SC.is_folded v then down (seg - 1) else (seg + 1) * 8
  in
  down ((addr / 8) - 1)

let probe_addr rng m =
  (* probe everywhere: object interiors, redzones, freed blocks, the tail *)
  Rng.int rng (8 * Shadow_mem.segments m)

let test_upper_bound_matches_brute_force =
  Helpers.q "upper_bound = linear shadow scan" QCheck.small_int (fun seed ->
      let _, m, rng = random_scene seed in
      let ok = ref true in
      for _ = 1 to 32 do
        let addr = probe_addr rng m in
        ok :=
          !ok && Folding.upper_bound m ~addr = linear_upper m ~addr
      done;
      !ok)

let test_upper_bound_load_bound =
  Helpers.q "upper_bound loads O(log n) shadow bytes" QCheck.small_int
    (fun seed ->
      let _, m, rng = random_scene seed in
      let budget = Bitops.log2_ceil (Shadow_mem.segments m) + 3 in
      let ok = ref true in
      for _ = 1 to 32 do
        let addr = probe_addr rng m in
        Shadow_mem.reset_counters m;
        ignore (Folding.upper_bound m ~addr);
        ok := !ok && Shadow_mem.loads m <= budget
      done;
      !ok)

let test_lower_bound_matches_brute_force =
  Helpers.q "lower_bound = linear shadow scan" QCheck.small_int (fun seed ->
      let _, m, rng = random_scene seed in
      let ok = ref true in
      for _ = 1 to 32 do
        let addr = probe_addr rng m in
        ok := !ok && Folding.lower_bound m ~addr = linear_lower m ~addr
      done;
      !ok)

let test_lower_bound_load_bound =
  Helpers.q "lower_bound loads O(log^2 n) shadow bytes" QCheck.small_int
    (fun seed ->
      let _, m, rng = random_scene seed in
      let log_n = Bitops.log2_ceil (Shadow_mem.segments m) in
      let budget = (log_n + 2) * (log_n + 2) in
      let ok = ref true in
      for _ = 1 to 32 do
        let addr = probe_addr rng m in
        Shadow_mem.reset_counters m;
        ignore (Folding.lower_bound m ~addr);
        ok := !ok && Shadow_mem.loads m <= budget
      done;
      !ok)

(* The bounds bracket the truth: everything in [lower, align8 addr) and in
   [addr, upper) really is addressable per the byte-level oracle. *)
let test_bounds_sound_against_oracle =
  Helpers.q "bounds only ever claim addressable bytes" QCheck.small_int
    (fun seed ->
      let san, m, rng = random_scene seed in
      let oracle = Memsim.Heap.oracle san.San.heap in
      let arena = 8 * Shadow_mem.segments m in
      let ok = ref true in
      for _ = 1 to 32 do
        let addr = probe_addr rng m in
        let u = min (Folding.upper_bound m ~addr) arena in
        let l = Folding.lower_bound m ~addr in
        if u > addr then
          ok := !ok && Memsim.Oracle.range_addressable oracle ~lo:addr ~hi:u;
        let hi = Bitops.align_down 8 addr in
        if hi > l then
          ok := !ok && Memsim.Oracle.range_addressable oracle ~lo:l ~hi
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Template-blit poisoning vs. the per-position reference kernel       *)
(* ------------------------------------------------------------------ *)

(* The batched kernel memoizes the degree sequence per power-of-two
   bracket and blits it in; it must be observationally identical to the
   spec's scalar reference kernel (the degree definition evaluated per
   position, one store each): same shadow bytes for every run
   length (crossing bracket boundaries, which force template rebuilds) and
   the same store count, with and without the seeded misfold hook. *)
let poison_kernels_agree ~misfold (first_pick, counts) =
  let module Ref_kernel = Giantsan_spec.Ref_kernel in
  let segments = 1024 in
  let fault = if misfold then Some (Folding.Overstate_last 1) else None in
  let check count =
    let count = count mod 700 in
    let first_seg = 1 + (first_pick mod (segments - 701)) in
    let m = Shadow_mem.create ~segments ~fill:SC.unallocated in
    let r = Ref_kernel.create ~segments ~fill:SC.unallocated in
    Folding.with_fault fault (fun () ->
        Folding.poison_good_run m ~first_seg ~count);
    Ref_kernel.poison_good_run ?fault r ~first_seg ~count;
    let same = ref (Shadow_mem.stores m = Ref_kernel.stores r) in
    for p = 0 to segments - 1 do
      if Shadow_mem.peek m p <> Ref_kernel.peek r p then same := false
    done;
    !same
  in
  List.for_all check counts

let test_template_blit_equals_scalar =
  Helpers.q "template blit = scalar loop (bytes + store count)"
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 12) small_nat))
    (poison_kernels_agree ~misfold:false)

let test_template_blit_equals_scalar_misfolded =
  Helpers.q "template blit = scalar loop under the misfold hook"
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 12) small_nat))
    (poison_kernels_agree ~misfold:true)

let test_template_rebuild_order_independent =
  Helpers.qt "big-then-small and small-then-big runs agree" `Quick (fun () ->
      (* the memoized template only grows; a small run after a large one
         must still blit the correct suffix *)
      let m = Shadow_mem.create ~segments:2048 ~fill:SC.unallocated in
      Folding.poison_good_run m ~first_seg:0 ~count:2000;
      Folding.poison_good_run m ~first_seg:0 ~count:3;
      Alcotest.(check (list int)) "3-run degrees 1,1,0"
        [ SC.folded 1; SC.folded 1; SC.folded 0 ]
        (List.map (Shadow_mem.peek m) [ 0; 1; 2 ]))

let test_upper_bound_clamped_at_arena_tail =
  Helpers.qt "upper_bound never overshoots the arena" `Quick (fun () ->
      let segments = 64 in
      let m = Shadow_mem.create ~segments ~fill:SC.unallocated in
      (* a (3)-folded code on the last segment claims 8 good segments, 7 of
         which would live past the shadow end *)
      Shadow_mem.set m (segments - 1) (SC.folded 3);
      let u = Folding.upper_bound m ~addr:(8 * (segments - 1)) in
      Alcotest.(check int) "clamped to 8 * segments" (8 * segments) u;
      (* a well-formed run ending exactly at the tail is not disturbed *)
      let m2 = Shadow_mem.create ~segments ~fill:SC.unallocated in
      Folding.poison_good_run m2 ~first_seg:(segments - 16) ~count:16;
      Alcotest.(check int) "exact-tail run reaches the arena end"
        (8 * segments)
        (Folding.upper_bound m2 ~addr:(8 * (segments - 16))))

let suite =
  ( "folding-props",
    [
      test_upper_bound_matches_brute_force;
      test_upper_bound_load_bound;
      test_lower_bound_matches_brute_force;
      test_lower_bound_load_bound;
      test_bounds_sound_against_oracle;
      test_template_blit_equals_scalar;
      test_template_blit_equals_scalar_misfolded;
      test_template_rebuild_order_independent;
      test_upper_bound_clamped_at_arena_tail;
    ] )
