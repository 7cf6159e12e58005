(* The telemetry subsystem's own invariants: ring wraparound arithmetic,
   the histogram merge monoid, JSON printing/parsing, byte-identical trace
   determinism, and the zero-allocation guarantee of the disabled path. *)

module Ring = Giantsan_telemetry.Ring
module Json = Giantsan_telemetry.Json
module Histogram = Giantsan_telemetry.Histogram
module Trace = Giantsan_telemetry.Trace
module Export = Giantsan_telemetry.Export
module Corpus = Giantsan_fuzz.Corpus
module Exec = Giantsan_fuzz.Exec

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound =
  Helpers.qt "wraparound keeps the trailing window" `Quick (fun () ->
      let r = Ring.create ~capacity:4 in
      for i = 0 to 9 do
        Ring.push r i
      done;
      Alcotest.(check (list int)) "retained" [ 6; 7; 8; 9 ] (Ring.to_list r);
      Alcotest.(check int) "pushed" 10 (Ring.pushed r);
      Alcotest.(check int) "dropped" 6 (Ring.dropped r);
      Alcotest.(check int) "length" 4 (Ring.length r);
      Alcotest.(check (list (pair int int)))
        "global sequence numbers survive wraparound"
        [ (6, 6); (7, 7); (8, 8); (9, 9) ]
        (Ring.to_seq_list r);
      Ring.clear r;
      Alcotest.(check (list int)) "clear empties" [] (Ring.to_list r))

let test_ring_under_capacity =
  Helpers.qt "no wraparound below capacity" `Quick (fun () ->
      let r = Ring.create ~capacity:8 in
      List.iter (Ring.push r) [ 1; 2; 3 ];
      Alcotest.(check (list int)) "all retained" [ 1; 2; 3 ] (Ring.to_list r);
      Alcotest.(check int) "dropped" 0 (Ring.dropped r))

let test_ring_property =
  Helpers.q "ring always holds the last min(pushed,capacity) entries"
    QCheck.(pair (int_range 1 16) (small_list small_int))
    (fun (capacity, xs) ->
      let r = Ring.create ~capacity in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let keep = min n capacity in
      let expected = List.filteri (fun i _ -> i >= n - keep) xs in
      Ring.to_list r = expected
      && Ring.pushed r = n
      && Ring.dropped r = n - keep)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_bucket_boundaries =
  Helpers.qt "log2 bucket boundaries" `Quick (fun () ->
      let cases =
        [
          (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
          (1023, 10); (1024, 11);
        ]
      in
      List.iter
        (fun (v, b) ->
          Alcotest.(check int)
            (Printf.sprintf "bucket_of_value %d" v)
            b
            (Histogram.bucket_of_value v))
        cases;
      (* bucket_lo is a left inverse on bucket starts *)
      for b = 0 to 20 do
        Alcotest.(check int)
          (Printf.sprintf "bucket_of_value (bucket_lo %d)" b)
          b
          (Histogram.bucket_of_value (Histogram.bucket_lo b))
      done)

let hist_of_observations obs =
  let h = Histogram.create "h" in
  List.iter (Histogram.observe h) obs;
  h

let arb_hist =
  QCheck.make
    ~print:(fun obs ->
      Format.asprintf "%a" Histogram.pp (hist_of_observations obs))
    QCheck.Gen.(small_list (int_bound 100_000))

let test_hist_merge_commutative =
  Helpers.q "merge is commutative"
    QCheck.(pair arb_hist arb_hist)
    (fun (a, b) ->
      let a = hist_of_observations a and b = hist_of_observations b in
      Histogram.equal (Histogram.merge a b) (Histogram.merge b a))

let test_hist_merge_associative =
  Helpers.q "merge is associative"
    QCheck.(triple arb_hist arb_hist arb_hist)
    (fun (a, b, c) ->
      let a = hist_of_observations a
      and b = hist_of_observations b
      and c = hist_of_observations c in
      Histogram.equal
        (Histogram.merge (Histogram.merge a b) c)
        (Histogram.merge a (Histogram.merge b c)))

let test_hist_merge_identity =
  Helpers.q "empty histogram is the identity of merge" arb_hist (fun a ->
      let a = hist_of_observations a in
      let zero = Histogram.create "h" in
      Histogram.equal (Histogram.merge a zero) a
      && Histogram.equal (Histogram.merge zero a) a)

let test_hist_merge_counts =
  Helpers.q "merge sums counts, sums and maxima"
    QCheck.(pair arb_hist arb_hist)
    (fun (xa, xb) ->
      let a = hist_of_observations xa and b = hist_of_observations xb in
      let m = Histogram.merge a b in
      Histogram.count m = Histogram.count a + Histogram.count b
      && Histogram.sum m = Histogram.sum a + Histogram.sum b
      && Histogram.max_value m = max (Histogram.max_value a) (Histogram.max_value b))

let test_hist_name_mismatch =
  Helpers.qt "merge rejects mismatched names" `Quick (fun () ->
      let a = Histogram.create "a" and b = Histogram.create "b" in
      Alcotest.check_raises "name mismatch"
        (Invalid_argument "Histogram.merge: a vs b") (fun () ->
          ignore (Histogram.merge a b)))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip =
  Helpers.qt "print/parse round-trip" `Quick (fun () ->
      let v =
        Json.Obj
          [
            ("s", Json.Str "a \"quoted\"\n\tstring");
            ("i", Json.Int (-42));
            ("f", Json.Float 2.5);
            ("b", Json.Bool true);
            ("n", Json.Null);
            ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
          ]
      in
      match Json.parse (Json.to_string v) with
      | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
      | Error e -> Alcotest.fail e)

let test_json_rejects =
  Helpers.qt "parser rejects malformed input" `Quick (fun () ->
      List.iter
        (fun text ->
          match Json.parse text with
          | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
          | Error _ -> ())
        [ ""; "{"; "[1,]"; "{\"a\":}"; "{} trailing"; "nul"; "\"open" ])

let test_json_nonfinite =
  Helpers.qt "non-finite floats render as null" `Quick (fun () ->
      Alcotest.(check string)
        "nan" "[null,null,1.5]"
        (Json.to_string
           (Json.List [ Json.Float nan; Json.Float infinity; Json.Float 1.5 ])))

(* ------------------------------------------------------------------ *)
(* Trace determinism and NDJSON validity                               *)
(* ------------------------------------------------------------------ *)

let load_scn path =
  match Corpus.load_file path with
  | Ok sc -> sc
  | Error e -> Alcotest.fail (path ^ ": " ^ e)

let regression = "corpus/regressions/uaf_then_double_free.scn"

let test_trace_deterministic =
  Helpers.qt "same scenario twice => byte-identical NDJSON" `Quick (fun () ->
      let sc = load_scn regression in
      let t1 = Exec.capture_trace sc and t2 = Exec.capture_trace sc in
      Alcotest.(check bool) "non-empty" true (t1 <> []);
      Alcotest.(check (list string)) "identical" t1 t2)

let test_trace_covers_all_tools =
  Helpers.qt "the trace carries events from every tool" `Quick (fun () ->
      let sc = load_scn regression in
      let text = String.concat "\n" (Exec.capture_trace sc) in
      List.iter
        (fun tool ->
          let needle = Printf.sprintf "\"tool\":%s" (Json.to_string (Json.Str tool)) in
          let found =
            let nl = String.length needle and tl = String.length text in
            let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) tool true found)
        [ "GiantSan"; "ASan"; "ASan--"; "LFP" ])

let test_trace_lines_valid_ndjson =
  Helpers.qt "every captured line passes the NDJSON checker" `Quick (fun () ->
      let sc = load_scn regression in
      let lines = Exec.capture_trace sc in
      match Export.check_ndjson (String.concat "\n" lines) with
      | Ok n -> Alcotest.(check int) "all lines counted" (List.length lines) n
      | Error e -> Alcotest.fail e)

let test_with_capture_restores =
  Helpers.qt "with_capture restores the previous sink state" `Quick (fun () ->
      Alcotest.(check bool) "off before" false (Trace.is_on ());
      let (), events =
        Trace.with_capture (fun () ->
            Trace.emit_free ~tool:"t" ~addr:1;
            Alcotest.(check bool) "on inside" true (Trace.is_on ()))
      in
      Alcotest.(check int) "captured" 1 (List.length events);
      Alcotest.(check bool) "off after" false (Trace.is_on ()))

let test_disabled_path_allocates_nothing =
  Helpers.qt "disabled emitters allocate nothing" `Quick (fun () ->
      Trace.disable ();
      (* warm up so the closure itself is built *)
      Trace.emit_access ~tool:"t" ~addr:0 ~width:8 ~fast:true;
      let before = Gc.minor_words () in
      for i = 1 to 100_000 do
        Trace.emit_access ~tool:"t" ~addr:i ~width:8 ~fast:true;
        Trace.emit_region_check ~tool:"t" ~lo:0 ~hi:i ~fast:true ~loads:0;
        Trace.emit_malloc ~tool:"t" ~base:i ~size:8 ~kind:"heap"
      done;
      let delta = Gc.minor_words () -. before in
      if delta > 256.0 then
        Alcotest.fail
          (Printf.sprintf "disabled emit path allocated %.0f words" delta))

let test_gate_balanced =
  Helpers.qt "the process-wide trace gate stays balanced" `Quick (fun () ->
      let active what n = Alcotest.(check int) what n (Trace.active_domains ()) in
      Trace.disable ();
      active "closed at rest" 0;
      (match Trace.with_capture (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "with_capture swallowed the exception"
      | exception Failure _ -> ());
      active "closed after a raising capture" 0;
      Alcotest.(check bool) "off after a raising capture" false (Trace.is_on ());
      Trace.enable ();
      Trace.enable ();
      active "a domain enabled twice counts once" 1;
      (match
         Trace.with_capture (fun () ->
             active "a nested capture adds nothing" 1;
             Trace.disable ();
             active "disable inside the capture" 0;
             failwith "boom")
       with
      | _ -> Alcotest.fail "with_capture swallowed the exception"
      | exception Failure _ -> ());
      active "the raising capture restores the outer switch" 1;
      Alcotest.(check bool) "outer switch back on" true (Trace.is_on ());
      Trace.disable ();
      Trace.disable ();
      active "closed after disable" 0;
      Domain.join (Domain.spawn (fun () -> Trace.enable ()));
      active "a domain that exits tracing is counted out" 0)

let test_spawned_domain_emits_nothing =
  Helpers.qt "a domain spawned while the main domain traces emits nothing"
    `Quick (fun () ->
      let (), events =
        Trace.with_capture (fun () ->
            Trace.emit_free ~tool:"main" ~addr:1;
            let on, emitted =
              Domain.join
                (Domain.spawn (fun () ->
                     Trace.emit_free ~tool:"worker" ~addr:2;
                     Trace.emit_access ~tool:"worker" ~addr:2 ~width:8
                       ~fast:true;
                     (Trace.is_on (), Trace.emitted ())))
            in
            Alcotest.(check bool) "worker switch off" false on;
            Alcotest.(check int) "worker sink empty" 0 emitted;
            Alcotest.(check int) "gate counts the main domain only" 1
              (Trace.active_domains ()))
      in
      match events with
      | [ (_, Giantsan_telemetry.Event.Free { tool = "main"; addr = 1 }) ] -> ()
      | _ ->
        Alcotest.failf "expected only the main domain's free, got %d events"
          (List.length events))

(* ------------------------------------------------------------------ *)
(* Performance regression gate                                         *)
(* ------------------------------------------------------------------ *)

let mk_profile ?(sim_ns = 5000.0) ?(ops = 100) ?(stores = 40) name config =
  {
    Export.bp_profile = name;
    bp_config = config;
    bp_sim_ns = sim_ns;
    bp_ops = ops;
    bp_shadow_loads = 250;
    bp_shadow_stores = stores;
    bp_region_checks = 30;
    bp_fast_checks = 25;
    bp_slow_checks = 5;
    bp_word_checks = 20;
  }

let mk_doc profiles = Export.bench_json ~groups:[] ~profiles ()

(* The baseline-comparison rules of the gate engine alone. *)
let compare_bench ~baseline ~current =
  let rules =
    List.filter
      (fun r -> r.Export.select = Export.Baseline_rows)
      Export.gate_rules
  in
  match Export.check_bench ~rules ~baseline ~current () with
  | Ok n -> Ok n
  | Error (Export.Violations es) -> Error es
  | Error (Export.Malformed e) -> Alcotest.failf "malformed input: %s" e

let gate_ok = function
  | Ok n -> n
  | Error es -> Alcotest.fail (String.concat "; " es)

let gate_failures = function
  | Ok n -> Alcotest.failf "gate passed (%d rows) but should fail" n
  | Error es -> es

let test_gate_identical_passes =
  Helpers.qt "gate: identical documents pass" `Quick (fun () ->
      let doc =
        mk_doc [ mk_profile "seq" "giantsan"; mk_profile "churn" "asan" ]
      in
      let n =
        gate_ok (compare_bench ~baseline:doc ~current:doc)
      in
      Alcotest.(check int) "both rows compared" 2 n)

let test_gate_tolerates_small_ns_drift =
  Helpers.qt "gate: ns/op drift within tolerance passes" `Quick (fun () ->
      let baseline = mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~sim_ns:6000.0 "seq" "giantsan" ] in
      ignore
        (gate_ok
           (compare_bench ~baseline ~current)))

let test_gate_rejects_ns_regression =
  Helpers.qt "gate: >tolerance ns/op regression fails" `Quick (fun () ->
      let baseline = mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~sim_ns:7000.0 "seq" "giantsan" ] in
      match compare_bench ~baseline ~current with
      | Ok _ -> Alcotest.fail "40% regression passed the gate"
      | Error [ msg ] ->
          Alcotest.(check bool) "message names the row" true
            (Helpers.contains msg "seq")
      | Error es ->
          Alcotest.failf "expected one violation, got %d" (List.length es))

let test_gate_rejects_large_improvement =
  Helpers.qt "gate: improvement beyond tolerance demands re-baseline" `Quick
    (fun () ->
      (* a big speed-up is good news but still a baseline mismatch; the
         gate insists the committed baseline be refreshed intentionally *)
      let baseline = mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~sim_ns:2000.0 "seq" "giantsan" ] in
      let es =
        gate_failures (compare_bench ~baseline ~current)
      in
      Alcotest.(check bool) "suggests re-baselining" true
        (List.exists (fun m -> Helpers.contains m "re-baseline") es))

let test_gate_rejects_count_mismatch =
  Helpers.qt "gate: any event-count mismatch fails exactly" `Quick (fun () ->
      let baseline = mk_doc [ mk_profile ~stores:40 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~stores:41 "seq" "giantsan" ] in
      let es =
        gate_failures (compare_bench ~baseline ~current)
      in
      Alcotest.(check bool) "names shadow_stores" true
        (List.exists (fun m -> Helpers.contains m "shadow_stores") es))

let test_gate_rejects_missing_rows =
  Helpers.qt "gate: rows missing from either side fail" `Quick (fun () ->
      let both = [ mk_profile "seq" "giantsan"; mk_profile "churn" "asan" ] in
      let one = [ mk_profile "seq" "giantsan" ] in
      (match
         compare_bench ~baseline:(mk_doc both)
           ~current:(mk_doc one)
       with
      | Ok _ -> Alcotest.fail "dropped row passed the gate"
      | Error _ -> ());
      match
        compare_bench ~baseline:(mk_doc one)
          ~current:(mk_doc both)
      with
      | Ok _ -> Alcotest.fail "new unbaselined row passed the gate"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Bench gate: one crafted document per fig11 / fuzzmode violation     *)
(* ------------------------------------------------------------------ *)

(* A document every gate rule accepts when gated against itself: GiantSan
   reverse at 4 ns/op with 2/3 of its checks on the word path vs ASan at
   8 ns/op, and a 10x persistent speedup on both fuzzed backends. The
   knobs move one row each across a rule's threshold. *)
let gate_doc ?(word = 20) ?(gs_rev = 400.0) ?(ps_gs = 1000.0)
    ?(ps_stores = 40) ?(drop = fun _ -> false) () =
  let row ?(sim_ns = 5000.0) ?(stores = 40) ?(word = 20) name config =
    { (mk_profile ~sim_ns ~stores name config) with Export.bp_word_checks = word }
  in
  mk_doc
    (List.filter
       (fun p -> not (drop p))
       [
         row ~sim_ns:gs_rev ~word "fig11.reverse-16KiB" "giantsan";
         row ~sim_ns:800.0 "fig11.reverse-16KiB" "asan";
         row ~sim_ns:10000.0 "fuzzmode.rebuild" "giantsan";
         row ~sim_ns:ps_gs ~stores:ps_stores "fuzzmode.persistent" "giantsan";
         row ~sim_ns:10000.0 "fuzzmode.rebuild" "asan";
         row ~sim_ns:1000.0 "fuzzmode.persistent" "asan";
       ])

let gate_self doc = Export.check_bench ~baseline:doc ~current:doc ()

let gate_violation what doc needle =
  match gate_self doc with
  | Ok _ -> Alcotest.failf "%s passed the gate" what
  | Error (Export.Malformed e) -> Alcotest.failf "%s read as malformed: %s" what e
  | Error (Export.Violations es) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: a violation names %S" what needle)
      true
      (List.exists (fun m -> Helpers.contains m needle) es)

let test_gate_doc_passes =
  Helpers.qt "bench gate: the crafted document passes every rule" `Quick
    (fun () ->
      match gate_self (gate_doc ()) with
      | Ok n -> Alcotest.(check bool) "row pairs judged" true (n > 6)
      | Error (Export.Malformed e) -> Alcotest.fail e
      | Error (Export.Violations es) -> Alcotest.fail (String.concat "; " es))

let test_gate_word_ratio_floor =
  Helpers.qt "bench gate: reverse word-path ratio below 0.5 fails" `Quick
    (fun () ->
      (* 15 of 30 sits on the floor and passes; 14 of 30 is below it *)
      (match gate_self (gate_doc ~word:15 ()) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "ratio 0.5 is on the floor, not below it");
      gate_violation "ratio 14/30" (gate_doc ~word:14 ()) "word-path ratio")

let test_gate_giantsan_slower_than_asan =
  Helpers.qt "bench gate: GiantSan reverse slower than ASan fails" `Quick
    (fun () ->
      gate_violation "GiantSan 8.01 ns/op vs ASan 8" (gate_doc ~gs_rev:801.0 ())
        "slower than ASan")

let test_gate_mode_counts_differ =
  Helpers.qt "bench gate: fuzzmode event counts must match exactly" `Quick
    (fun () ->
      gate_violation "one extra persistent store" (gate_doc ~ps_stores:41 ())
        "event counts differ")

let test_gate_persistent_slower =
  Helpers.qt "bench gate: persistent slower than rebuild fails" `Quick
    (fun () ->
      gate_violation "persistent 101 vs rebuild 100 ns/exec"
        (gate_doc ~ps_gs:10100.0 ()) "slower than rebuild")

let test_gate_speedup_floor =
  Helpers.qt "bench gate: giantsan speedup below 5x fails" `Quick (fun () ->
      (match gate_self (gate_doc ~ps_gs:2000.0 ()) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "a 5.00x speedup is on the floor");
      gate_violation "4.98x" (gate_doc ~ps_gs:2010.0 ()) "below the 5.00x floor")

let test_gate_missing_rows_malformed =
  Helpers.qt "bench gate: missing required rows are malformed input" `Quick
    (fun () ->
      let malformed what doc =
        match gate_self doc with
        | Error (Export.Malformed _) -> ()
        | Ok _ -> Alcotest.failf "%s passed the gate" what
        | Error (Export.Violations _) ->
          Alcotest.failf "%s read as a violation, not malformed input" what
      in
      let row profile config (p : Export.bench_profile) =
        p.Export.bp_profile = profile && p.Export.bp_config = config
      in
      malformed "no fig11 asan row"
        (gate_doc ~drop:(row "fig11.reverse-16KiB" "asan") ());
      malformed "no giantsan persistent row"
        (gate_doc ~drop:(row "fuzzmode.persistent" "giantsan") ());
      malformed "not JSON" "{\"profiles\": [";
      (* a fuzzed backend other than giantsan with one mode row is a
         violation of the mode rules, not missing input *)
      gate_violation "asan without a persistent row"
        (gate_doc ~drop:(row "fuzzmode.persistent" "asan") ())
        "missing one of its two mode rows")

let test_gate_tolerance_bound =
  Helpers.qt "bench gate: ns/op tolerance is exactly 25% both ways" `Quick
    (fun () ->
      let drift sim_ns =
        compare_bench
          ~baseline:(mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ])
          ~current:(mk_doc [ mk_profile ~sim_ns "seq" "giantsan" ])
      in
      ignore (gate_ok (drift 6250.0));
      ignore (gate_ok (drift 3750.0));
      ignore (gate_failures (drift 6300.0));
      ignore (gate_failures (drift 3700.0)))

(* ------------------------------------------------------------------ *)
(* Quantile readouts vs the sorted-array oracle                        *)
(* ------------------------------------------------------------------ *)

module Latency = Giantsan_telemetry.Latency
module Clock = Giantsan_telemetry.Clock
module Window = Giantsan_telemetry.Window
module Event = Giantsan_telemetry.Event

(* numpy-linear order statistic at fractional rank q*(n-1) *)
let oracle_quantile sorted q =
  let n = Array.length sorted in
  let rank = q *. float_of_int (n - 1) in
  let lo = sorted.(int_of_float (Float.of_int (truncate rank) *. 1.0)) in
  let hi = sorted.(min (n - 1) (truncate rank + 1)) in
  let frac = rank -. Float.of_int (truncate rank) in
  (float_of_int lo +. (frac *. float_of_int (hi - lo)), lo, hi)

let obs_q_arb =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 80) (int_bound 5000))
      (make ~print:string_of_float Gen.(float_bound_inclusive 1.0)))

let prop_hist_quantile_vs_oracle =
  QCheck.Test.make ~count:500 ~name:"Histogram.quantile tracks the oracle"
    obs_q_arb (fun (obs, q) ->
      let h = Histogram.create "h" in
      List.iter (Histogram.observe h) obs;
      let sorted = Array.of_list (List.sort compare obs) in
      let oracle, olo, ohi = oracle_quantile sorted q in
      let got = Histogram.quantile h q in
      (* the histogram only knows log2 buckets: the readout must land in
         the value range spanned by the two order statistics' buckets,
         and hit the oracle exactly at the extremes *)
      let lo_bound = float_of_int (Histogram.bucket_lo (Histogram.bucket_of_value olo)) in
      let hi_bound =
        Float.min
          (float_of_int (Histogram.bucket_hi (Histogram.bucket_of_value ohi)))
          (float_of_int (Histogram.max_value h))
      in
      if q = 0.0 || q = 1.0 then got = oracle
      else got >= lo_bound && got <= hi_bound)

let prop_latency_quantile_vs_oracle =
  QCheck.Test.make ~count:500 ~name:"Latency.quantile tracks the oracle"
    obs_q_arb (fun (obs, q) ->
      let h = Latency.create "l" in
      List.iter (Latency.observe h) obs;
      let sorted = Array.of_list (List.sort compare obs) in
      let oracle, olo, ohi = oracle_quantile sorted q in
      let got = Latency.quantile h q in
      let lo_bound = fst (Latency.bucket_bounds (Latency.bucket_of_value olo)) in
      let hi_bound =
        min
          (snd (Latency.bucket_bounds (Latency.bucket_of_value ohi)))
          (Latency.max_value h)
      in
      if q = 0.0 || q = 1.0 then got = oracle
      else got >= float_of_int lo_bound && got <= float_of_int hi_bound)

let test_latency_small_values_exact =
  Helpers.qt "Latency: values below 64 are recorded exactly" `Quick (fun () ->
      let h = Latency.create "l" in
      List.iter (Latency.observe h) [ 3; 17; 42; 63 ];
      (* at whole ranks (q = i/(n-1)) the readout is the order statistic
         itself: sub-64 values live in unit-width buckets *)
      List.iteri
        (fun i (q, want) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "q%d" i)
            want (Latency.quantile h q))
        [
          (0.0, 3.0);
          (1.0 /. 3.0, 17.0);
          (2.0 /. 3.0, 42.0);
          (1.0, 63.0);
          (* a fractional rank interpolates within the unit bucket of the
             floor-rank order statistic *)
          (0.5, 17.5);
        ])

let latency_of_list obs =
  let h = Latency.create "l" in
  List.iter (Latency.observe h) obs;
  h

let obs_arb = QCheck.(list_of_size Gen.(0 -- 60) (int_bound 100_000))

let prop_latency_merge_laws =
  QCheck.Test.make ~count:300 ~name:"Latency.merge monoid laws"
    QCheck.(pair obs_arb obs_arb)
    (fun (xs, ys) ->
      let a = latency_of_list xs and b = latency_of_list ys in
      let ab = Latency.merge a b and ba = Latency.merge b a in
      let zero = Latency.create "l" in
      Latency.equal ab ba
      && Latency.equal (Latency.merge a zero) a
      && Latency.count ab = Latency.count a + Latency.count b
      && Latency.equal ab (latency_of_list (xs @ ys)))

let test_latency_merge_name_mismatch =
  Helpers.qt "Latency.merge rejects name mismatch, merge_as waives it" `Quick
    (fun () ->
      let a = Latency.create "a" and b = Latency.create "b" in
      Alcotest.check_raises "mismatch raises"
        (Invalid_argument "Latency.merge: a vs b") (fun () ->
          ignore (Latency.merge a b));
      Latency.observe a 5;
      Latency.observe b 9;
      let g = Latency.merge_as "global" a b in
      Alcotest.(check string) "renamed" "global" (Latency.name g);
      Alcotest.(check int) "merged count" 2 (Latency.count g))

let prop_latency_quantiles_ordered =
  QCheck.Test.make ~count:300 ~name:"Latency: p50 <= p99 <= p999 <= max"
    obs_arb (fun obs ->
      let h = latency_of_list obs in
      Latency.p50 h <= Latency.p99 h
      && Latency.p99 h <= Latency.p999 h
      && Latency.p999 h <= float_of_int (Latency.max_value h))

(* ------------------------------------------------------------------ *)
(* Clock + sliding windows                                             *)
(* ------------------------------------------------------------------ *)

let test_virtual_clock =
  Helpers.qt "virtual clock advances only when told" `Quick (fun () ->
      let c = Clock.virtual_ ~start_ns:100 () in
      Alcotest.(check bool) "is virtual" true (Clock.is_virtual c);
      Alcotest.(check int) "start" 100 (Clock.now_ns c);
      Clock.advance c 50;
      Clock.advance c 0;
      Clock.advance c (-10);
      Alcotest.(check int) "monotone advance" 150 (Clock.now_ns c);
      let m = Clock.monotonic () in
      Alcotest.(check bool) "monotonic is not virtual" false (Clock.is_virtual m);
      Clock.advance m 1_000_000;
      ())

let test_window_rates =
  Helpers.qt "sliding window closes, zero-fills and rates" `Quick (fun () ->
      let w = Window.create ~window_ns:100 ~windows:4 in
      Alcotest.(check (float 0.0)) "empty rate" 0.0 (Window.rate w);
      Window.record w ~now_ns:10 5;
      Window.record w ~now_ns:90 5;
      Alcotest.(check int) "nothing closed yet" 0 (Window.closed w);
      (* crossing into window 1 closes window 0 with 10 ops *)
      Window.record w ~now_ns:110 2;
      Alcotest.(check int) "one closed" 1 (Window.closed w);
      Alcotest.(check int) "last window ops" 10 (Window.last_window_ops w);
      Alcotest.(check (float 1e-6)) "rate 10 ops / 100 ns"
        (10.0 /. (100.0 /. 1e9))
        (Window.rate w);
      (* jumping to window 5 closes 1..4; 2..4 are zero-filled stalls *)
      ignore (Window.roll w ~now_ns:510);
      Alcotest.(check int) "five closed" 5 (Window.closed w);
      Alcotest.(check int) "stall window" 0 (Window.last_window_ops w);
      Alcotest.(check (float 1e-6)) "stall collapses the rate"
        (2.0 /. (400.0 /. 1e9))
        (Window.rate w);
      Alcotest.(check int) "total includes open window" 12 (Window.total w))

(* ------------------------------------------------------------------ *)
(* Strict NDJSON checking (known-kind whitelist + --lax)               *)
(* ------------------------------------------------------------------ *)

(* One event per constructor: any rename or field change must be a
   conscious decision (this pin + the checker whitelist both move). *)
let one_of_each =
  [
    Event.Malloc { tool = "t"; base = 64; size = 32; kind = "heap" };
    Event.Free { tool = "t"; addr = 64 };
    Event.Access { tool = "t"; addr = 72; width = 8; path = Event.Fast };
    Event.Shadow_load { tool = "t"; count = 2 };
    Event.Cache_hit { tool = "t"; off = 8 };
    Event.Cache_update { tool = "t"; ub = 96 };
    Event.Region_check { tool = "t"; lo = 64; hi = 96; path = Event.Slow; loads = 3 };
    Event.Report { tool = "t"; kind = "heap-buffer-overflow"; addr = 96 };
    Event.Phase_begin { name = "p" };
    Event.Phase_end { name = "p" };
    Event.Service_op
      { tenant = 1; op = "access"; slot = 3; arg = 8; width = 4;
        latency_ns = 41; t_ns = 1000 };
    Event.Service_report
      { tenant = 1; kind = "heap-use-after-free"; addr = 128; t_ns = 1001 };
    Event.Slo_breach
      { tenant = 1; slo = "p999"; value = 9000.0; limit = 5000.0; t_ns = 1002 };
    Event.Tenant_state { tenant = 1; state = "degraded"; t_ns = 1003 };
    Event.Tenant_fault { tenant = 1; detail = "seg 8: drift"; t_ns = 1004 };
    Event.Tenant_backend { tenant = 1; backend = "pac"; t_ns = 1005 };
  ]

let test_every_event_kind_passes_strict =
  Helpers.qt "one event per constructor passes the strict checker" `Quick
    (fun () ->
      let lines =
        Export.ndjson_lines (List.mapi (fun i e -> (i, e)) one_of_each)
      in
      Alcotest.(check int) "covers the whole whitelist"
        (List.length Event.all_names)
        (List.length one_of_each);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "kind %s rendered" name)
            true
            (List.exists
               (fun l ->
                 Helpers.contains l (Printf.sprintf "\"ev\":%S" name))
               lines))
        Event.all_names;
      match Export.check_ndjson (String.concat "\n" lines) with
      | Ok n -> Alcotest.(check int) "all accepted" (List.length lines) n
      | Error e -> Alcotest.fail e)

let test_unknown_kind_rejected =
  Helpers.qt "unknown event kinds: named error strictly, accepted lax" `Quick
    (fun () ->
      let bogus = {|{"seq":0,"ev":"wormhole","tenant":3}|} in
      (match Export.check_ndjson bogus with
      | Ok _ -> Alcotest.fail "strict checker accepted an unknown kind"
      | Error e ->
        Alcotest.(check bool) "names the kind" true
          (Helpers.contains e "unknown event kind" && Helpers.contains e "wormhole"));
      (match Export.check_ndjson ~lax:true bogus with
      | Ok n -> Alcotest.(check int) "lax accepts" 1 n
      | Error e -> Alcotest.fail e);
      (* lax still demands well-formed lines *)
      match Export.check_ndjson ~lax:true {|{"seq":-1,"ev":"wormhole"}|} with
      | Ok _ -> Alcotest.fail "lax accepted a negative seq"
      | Error _ -> ())

(* summary.json must key its tool rows by name, not registration order:
   the same backends reported in any order — or the same backend reported
   twice (two instances) — must render byte-identically, with duplicate
   rows merged. This was a real bug: rows used to be labelled by position,
   so skipping one backend shifted every later label. *)
let test_summary_keys_rows_by_name =
  Helpers.qt "summary.json keys tool rows by name, merging duplicates" `Quick
    (fun () ->
      let row name checks =
        (name, [ ("total_checks", checks) ], Histogram.create_set ())
      in
      let a = [ row "asan" 5; row "giantsan" 7; row "pac" 2 ] in
      let b = [ row "pac" 2; row "asan" 5; row "giantsan" 7 ] in
      Alcotest.(check string) "order-independent"
        (Export.summary_json ~tools:a ())
        (Export.summary_json ~tools:b ());
      let doubled = Export.summary_json ~tools:[ row "pac" 2; row "pac" 3 ] () in
      Alcotest.(check bool) "duplicate names merge (counters summed)" true
        (Helpers.contains doubled "\"total_checks\":5");
      let occurrences needle hay =
        let nl = String.length needle in
        let rec go i n =
          if i + nl > String.length hay then n
          else if String.sub hay i nl = needle then go (i + 1) (n + 1)
          else go (i + 1) n
        in
        go 0 0
      in
      Alcotest.(check int) "merged row appears exactly once" 1
        (occurrences "\"tool\":\"pac\"" doubled);
      (* dropping a backend must not relabel the others *)
      let without = Export.summary_json ~tools:[ row "asan" 5; row "pac" 2 ] () in
      Alcotest.(check bool) "asan row survives giantsan's absence" true
        (Helpers.contains without "\"tool\":\"asan\"");
      Alcotest.(check bool) "pac row survives giantsan's absence" true
        (Helpers.contains without "\"tool\":\"pac\""))

let suite =
  ( "telemetry",
    [
      test_ring_wraparound;
      test_ring_under_capacity;
      test_ring_property;
      test_bucket_boundaries;
      test_hist_merge_commutative;
      test_hist_merge_associative;
      test_hist_merge_identity;
      test_hist_merge_counts;
      test_hist_name_mismatch;
      test_json_roundtrip;
      test_json_rejects;
      test_json_nonfinite;
      test_trace_deterministic;
      test_trace_covers_all_tools;
      test_trace_lines_valid_ndjson;
      test_with_capture_restores;
      test_disabled_path_allocates_nothing;
      test_gate_identical_passes;
      test_gate_tolerates_small_ns_drift;
      test_gate_rejects_ns_regression;
      test_gate_rejects_large_improvement;
      test_gate_rejects_count_mismatch;
      test_gate_rejects_missing_rows;
      QCheck_alcotest.to_alcotest prop_hist_quantile_vs_oracle;
      QCheck_alcotest.to_alcotest prop_latency_quantile_vs_oracle;
      test_latency_small_values_exact;
      QCheck_alcotest.to_alcotest prop_latency_merge_laws;
      test_latency_merge_name_mismatch;
      QCheck_alcotest.to_alcotest prop_latency_quantiles_ordered;
      test_virtual_clock;
      test_window_rates;
      test_every_event_kind_passes_strict;
      test_unknown_kind_rejected;
      test_summary_keys_rows_by_name;
      (* Appended after the existing cases so their indices stay stable. *)
      test_gate_balanced;
      test_spawned_domain_emits_nothing;
      test_gate_doc_passes;
      test_gate_word_ratio_floor;
      test_gate_giantsan_slower_than_asan;
      test_gate_mode_counts_differ;
      test_gate_persistent_slower;
      test_gate_speedup_floor;
      test_gate_missing_rows_malformed;
      test_gate_tolerance_bound;
    ] )
