(* The check path allocates nothing. With tracing off and after one warm-up
   pass, every call below must allocate exactly 0 minor words:
   - [cached_access] over full forward, random and reverse passes of a
     16 KiB buffer, each on a fresh cache so the history misses and
     refreshes are part of the measured pass, each closed by
     [flush_cache];
   - [access] over the forward and random offsets;
   - [check_region] over regions of 1 byte to 16 KiB.
   GiantSan, ASan and LFP are covered. PAC is left out: its checks still
   allocate 16 words per access (a [Hashtbl.find_opt] of the pointer's tag,
   plus the [result] and option boxes of the authentication step). *)

module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Memsim = Giantsan_memsim
module Trace = Giantsan_telemetry.Trace
module Rng = Giantsan_util.Rng

let size = 16384
let n = size / 8

(* Minor words [f ()] allocates, less those of an empty call measured the
   same way, so the cost of reading [Gc.minor_words] cancels out. *)
let words_of f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  measure f -. measure (fun () -> ())

(* (cache base, offsets) of the forward, random and reverse passes *)
let streams base =
  let rng = Rng.create 7 in
  [|
    (base, Array.init n (fun j -> 8 * j));
    (base, Array.init n (fun _ -> 8 * Rng.int rng n));
    (base + (8 * (n - 1)), Array.init n (fun j -> -8 * j));
  |]

let regions base =
  let rng = Rng.create 11 in
  Array.init 256 (fun _ ->
      let len = min size ((1 lsl Rng.int rng 15) + Rng.int rng 8) in
      let lo = base + Rng.int rng (size - len + 1) in
      (lo, lo + len))

let reports = ref 0
let count = function None -> () | Some (_ : Giantsan_sanitizer.Report.t) -> incr reports

let cached_pass (san : San.t) st caches () =
  for k = 0 to Array.length st - 1 do
    let offs = snd st.(k) and c = caches.(k) in
    for j = 0 to Array.length offs - 1 do
      count (san.San.cached_access c ~off:offs.(j) ~width:8)
    done;
    count (san.San.flush_cache c)
  done

let access_pass (san : San.t) base st () =
  for k = 0 to 1 do
    let offs = snd st.(k) in
    for j = 0 to Array.length offs - 1 do
      count (san.San.access ~base ~addr:(base + offs.(j)) ~width:8)
    done
  done

let region_pass (san : San.t) rs () =
  for k = 0 to Array.length rs - 1 do
    let lo, hi = rs.(k) in
    count (san.San.check_region ~lo ~hi)
  done

let fresh_caches (san : San.t) st =
  Array.map (fun (cb, _) -> san.San.new_cache ~base:cb) st

let check_zero what words =
  if words <> 0.0 then
    Alcotest.failf "%s allocated %.0f minor words over the pass" what words

let backend_allocates_nothing name make =
  Helpers.qt (name ^ ": check path allocates nothing") `Quick (fun () ->
      Trace.disable ();
      let san : San.t = make () in
      let base = (san.San.malloc size).Memsim.Memobj.base in
      let st = streams base and rs = regions base in
      reports := 0;
      (* warm-up *)
      cached_pass san st (fresh_caches san st) ();
      access_pass san base st ();
      region_pass san rs ();
      let caches = fresh_caches san st in
      let updates0 = san.San.counters.Counters.cache_updates in
      check_zero (name ^ " cached_access") (words_of (cached_pass san st caches));
      if name = "GiantSan" then
        Alcotest.(check bool) "the measured pass refreshed its caches" true
          (san.San.counters.Counters.cache_updates > updates0);
      check_zero (name ^ " access") (words_of (access_pass san base st));
      check_zero (name ^ " check_region") (words_of (region_pass san rs));
      Alcotest.(check int) "no reports on an in-bounds buffer" 0 !reports)

let test_measure_has_teeth =
  Helpers.qt "the allocation probe sees an allocating call" `Quick (fun () ->
      let words = words_of (fun () -> ignore (Sys.opaque_identity (ref 0))) in
      Alcotest.(check bool) "one ref is counted" true (words > 0.0))

let suite =
  ( "alloc",
    [
      test_measure_has_teeth;
      backend_allocates_nothing "GiantSan" (fun () -> Helpers.giantsan ());
      backend_allocates_nothing "ASan" (fun () -> Helpers.asan ());
      backend_allocates_nothing "LFP" (fun () -> Helpers.lfp ());
    ] )
