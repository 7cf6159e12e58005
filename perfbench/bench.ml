(* The wall-clock benchmark's entry point.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set up the workload five times (the median is
   setup_s), then measure for S seconds and print every end-to-end metric.
   Traced (--trace 1): measure S/4 seconds untraced and S/4 seconds with
   spans, write the spans to _perfbench_out/, then run the per-layer
   panel. Human-readable lines come first; the last line of standard
   output is one JSON object. Exit code 0 when every output check passed,
   1 when one failed, 2 on bad arguments. *)

open Common

type prepared = {
  measure : budget_ns:int -> spans:Spans.t option -> acc -> unit;
  single_domain : bool;  (** every workload but [serve] *)
  inputs : string;  (** digest of the generated inputs *)
  fuzz_state : W_fuzz.state option;  (** reused by the panel's fuzz probes *)
}

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

let workloads =
  [
    ( "traversal",
      fun ~seed ~corrupt ->
        let st = W_traversal.setup ~seed ~corrupt in
        {
          measure = W_traversal.measure st;
          single_domain = true;
          inputs = digest (W_traversal.seeded_words seed, st.W_traversal.random_seed);
          fuzz_state = None;
        } );
    ( "profiles",
      fun ~seed ~corrupt:_ ->
        let st = W_profiles.setup ~seed in
        { measure = W_profiles.measure st; single_domain = true; inputs = digest st.W_profiles.progs; fuzz_state = None } );
    ( "fuzz",
      fun ~seed ~corrupt:_ ->
        let st = W_fuzz.setup ~seed in
        { measure = W_fuzz.measure st; single_domain = true; inputs = digest st.W_fuzz.scenarios; fuzz_state = Some st } );
    ( "serve",
      fun ~seed ~corrupt:_ ->
        let st = W_serve.setup ~seed in
        { measure = W_serve.measure st; single_domain = false; inputs = digest st.W_serve.expected; fuzz_state = None } );
  ]

let setup_reps = 5

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "%-44s %.6g %s\n" m.m_name m.m_value m.m_unit) metrics;
  Printf.printf "fail_ratio %.6g (%d of %d units failed)\n" (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.m_value m.m_unit)
          metrics))

let report_failure acc =
  match acc.first_failure with Some msg -> Printf.printf "first failure: %s\n" msg | None -> ()

let end_to_end acc ~setup_s =
  (* before the figures are worked out, which allocates *)
  let peak = peak_heap_mb () in
  let p50, p99, samples, inputs = latency acc in
  Printf.printf "latency samples: %d GiantSan units over %d inputs\n" samples inputs;
  [ metric "setup_s" "s" setup_s ]
  @ List.map
      (fun ix -> metric (backend_name ix ^ "_ops_per_s") "1/s" (rate acc ix))
      (List.init n_backends Fun.id)
  @ [
      metric "execs_per_s" "1/s" (rate acc matrix);
      metric "op_p50_us" "us" (p50 /. 1e3);
      metric "op_p99_us" "us" (p99 /. 1e3);
      metric "peak_heap_mb" "MB" peak;
    ]

let out_dir = "_perfbench_out"

let traced ~name ~seed ~seconds prepared =
  Printf.printf "inputs %s\n" prepared.inputs;
  let quarter = int_of_float (seconds *. 1e9 /. 4.0) in
  let new_acc = new_acc ~single_domain:prepared.single_domain in
  let plain = new_acc () and with_spans = new_acc () in
  Gc.full_major ();
  prepared.measure ~budget_ns:quarter ~spans:None plain;
  let sp = Spans.create () in
  prepared.measure ~budget_ns:quarter ~spans:(Some sp) with_spans;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-seed%d.ndjson" out_dir name seed in
  Spans.dump sp path;
  Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans sp)) path;
  let metrics = ref [] in
  let add name unit v = metrics := metric name unit v :: !metrics in
  add "trace.overhead_ratio" "ratio" (rate with_spans giantsan_ix /. rate plain giantsan_ix);
  Layers.run ~seed ?fuzz:prepared.fuzz_state ~check:(check plain) add;
  report_failure plain;
  report_failure with_spans;
  let failed = plain.failed + with_spans.failed in
  (failed = 0, plain.attempted + with_spans.attempted, failed, List.rev !metrics)

let untraced ~seed ~seconds ~corrupt setup =
  (* each repetition drops the previous one's state before it starts *)
  let prepared = ref None in
  let times =
    Array.init setup_reps (fun _ ->
        prepared := None;
        Gc.full_major ();
        let t0 = now_ns () in
        prepared := Some (setup ~seed ~corrupt);
        float_of_int (now_ns () - t0) /. 1e9)
  in
  let prepared = Option.get !prepared in
  Printf.printf "inputs %s\n" prepared.inputs;
  let setup_s = median times in
  let acc = new_acc ~single_domain:prepared.single_domain () in
  Gc.full_major ();
  prepared.measure ~budget_ns:(int_of_float (seconds *. 1e9)) ~spans:None acc;
  report_failure acc;
  (acc.failed = 0, acc.attempted, acc.failed, end_to_end acc ~setup_s)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (traversal|profiles|fuzz|serve) --seed N --seconds S --trace 0|1 \
     [--corrupt-expected]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and corrupt = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--corrupt-expected" :: rest -> corrupt := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let setup = match List.assoc_opt !workload workloads with Some s -> s | None -> usage () in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  Printf.printf "workload %s, seed %d, %g s, trace %d\n%!" !workload !seed !seconds !trace;
  let correct, attempted, failed, metrics =
    if !trace = 1 then traced ~name:!workload ~seed:!seed ~seconds:!seconds (setup ~seed:!seed ~corrupt:!corrupt)
    else untraced ~seed:!seed ~seconds:!seconds ~corrupt:!corrupt setup
  in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
