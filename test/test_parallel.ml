(* The sharded execution engine: pool semantics, shard trace isolation,
   and the load-bearing property of the whole subsystem — a parallel run
   merges to output byte-identical to the serial run, for any jobs value
   and any submission order. *)

module Pool = Giantsan_parallel.Pool
module Shard = Giantsan_parallel.Shard
module Merge = Giantsan_parallel.Merge
module Sweep = Giantsan_parallel.Sweep
module Runner = Giantsan_workload.Runner
module Profiles = Giantsan_workload.Profiles
module Specgen = Giantsan_workload.Specgen
module Counters = Giantsan_sanitizer.Counters
module San = Giantsan_sanitizer.Sanitizer
module Histogram = Giantsan_telemetry.Histogram
module Json = Giantsan_telemetry.Json
module Trace = Giantsan_telemetry.Trace
module Rng = Giantsan_util.Rng

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_order () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "results in task order (jobs=%d)" jobs)
        (Array.init 37 (fun i -> i * i))
        (Pool.run ~jobs tasks))
    [ 1; 2; 4; 64 ]

let test_pool_edges () =
  Alcotest.(check (array int)) "empty" [||] (Pool.run ~jobs:4 [||]);
  Alcotest.(check (array int))
    "jobs clamped up from 0" [| 7 |]
    (Pool.run ~jobs:0 [| (fun () -> 7) |]);
  Alcotest.(check (list int))
    "map preserves order" [ 2; 4; 6 ]
    (Pool.map ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ])

exception Boom of int

let test_pool_exn () =
  (* mid-array failure: the lowest failing index is re-raised at every jobs
     value (the lowest failing index is always claimed before any later
     failure can poison the pool) *)
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 16 (fun i () -> if i = 11 || i = 3 then raise (Boom i) else i)
      in
      match Pool.run ~jobs tasks with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failing index re-raised (jobs=%d)" jobs)
          3 i)
    [ 1; 2; 4 ]

let test_pool_poison_stops_claims () =
  (* task 0 fails instantly; every other task does real spinning work. For
     all 199 others to run anyway, one worker would have to claim (and so
     execute) every one of them inside the nanoseconds it takes the task-0
     claimer to raise and set the poison flag — so observing at least one
     skipped task is robust evidence that claiming stopped. *)
  let n = 200 in
  let ran = Atomic.make 0 in
  let sink = ref 0 in
  let tasks =
    Array.init n (fun i () ->
        if i = 0 then raise (Boom 0)
        else begin
          for k = 1 to 10_000 do
            sink := Sys.opaque_identity (!sink + k)
          done;
          Atomic.incr ran
        end)
  in
  (match Pool.run ~jobs:2 tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 0 -> ()
  | exception e -> raise e);
  Alcotest.(check bool)
    (Printf.sprintf "claiming stopped after poison (%d of %d ran)"
       (Atomic.get ran) (n - 1))
    true
    (Atomic.get ran < n - 1)

(* ------------------------------------------------------------------ *)
(* Shard trace isolation                                               *)
(* ------------------------------------------------------------------ *)

let test_shard_isolation () =
  let tasks =
    Array.init 6 (fun i () ->
        for k = 0 to i do
          Trace.emit_free ~tool:(Printf.sprintf "shard%d" i) ~addr:k
        done;
        i)
  in
  let traced = Shard.run_traced ~jobs:3 tasks in
  Array.iteri
    (fun i (t : int Shard.traced) ->
      Alcotest.(check int) "result" i t.Shard.t_result;
      Alcotest.(check int)
        "each shard saw exactly its own events" (i + 1)
        (List.length t.Shard.t_events);
      List.iteri
        (fun k (seq, ev) ->
          Alcotest.(check int) "per-shard seq from 0" k seq;
          match ev with
          | Giantsan_telemetry.Event.Free { tool; _ } ->
            Alcotest.(check string) "no cross-shard leak"
              (Printf.sprintf "shard%d" i) tool
          | _ -> Alcotest.fail "unexpected event")
        t.Shard.t_events)
    traced;
  Alcotest.(check bool)
    "main-domain sink untouched by shards" false (Trace.is_on ())

let test_merge_resequence () =
  let mk tool n =
    List.init n (fun k ->
        (k, Giantsan_telemetry.Event.Free { tool; addr = k }))
  in
  let merged = Merge.resequence [ mk "a" 2; []; mk "b" 3 ] in
  Alcotest.(check (list int))
    "global seq renumbered" [ 0; 1; 2; 3; 4 ]
    (List.map fst merged);
  Alcotest.(check (list string))
    "shard-major order"
    [ "a"; "a"; "b"; "b"; "b" ]
    (List.map
       (function
         | _, Giantsan_telemetry.Event.Free { tool; _ } -> tool
         | _ -> "?")
       merged)

(* ------------------------------------------------------------------ *)
(* Sweep determinism: the qcheck property                              *)
(* ------------------------------------------------------------------ *)

(* tiny profiles so a property trial runs the matrix twice in milliseconds *)
let tiny p = { p with Specgen.p_phases = 2; p_iters = 24 }

let result_fingerprint (r : Runner.result) =
  ( ( r.Runner.r_profile,
      Runner.config_name r.Runner.r_config,
      r.Runner.r_status = Runner.Completed,
      r.Runner.r_ops ),
    ( r.Runner.r_shadow_loads,
      r.Runner.r_shadow_stores,
      r.Runner.r_reports,
      Counters.to_assoc r.Runner.r_counters,
      (* sim_ns is a pure function of the counts: require bitwise equality *)
      Int64.bits_of_float r.Runner.r_sim_ns ) )

let sweep_fingerprint (o : Sweep.outcome) =
  ( Array.to_list (Array.map result_fingerprint o.Sweep.o_results),
    Sweep.ndjson o )

let prop_sweep_deterministic =
  QCheck.Test.make ~count:8 ~name:"parallel sweep == serial sweep"
    QCheck.(
      triple (int_bound 1000) (oneofl [ 2; 3; 4 ]) (int_bound 3))
    (fun (shuffle_seed, jobs, profile_skip) ->
      let profiles =
        List.filteri
          (fun i _ -> i mod (2 + profile_skip) = 0)
          (List.map tiny Profiles.all)
      in
      let configs = Runner.all_configs in
      let n = List.length profiles * List.length configs in
      let serial = Sweep.run ~trace:true ~capacity:256 ~jobs:1 ~profiles ~configs () in
      let order = Array.init n Fun.id in
      Rng.shuffle (Rng.create shuffle_seed) order;
      let parallel =
        Sweep.run ~order ~trace:true ~capacity:256 ~jobs ~profiles ~configs ()
      in
      sweep_fingerprint serial = sweep_fingerprint parallel)

let test_sweep_bad_order () =
  let profiles = [ tiny (List.hd Profiles.all) ] in
  let configs = [ Runner.Native ] in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Sweep.run: order is not a permutation") (fun () ->
      ignore (Sweep.run ~order:[| 0; 0 |] ~jobs:2 ~profiles ~configs:(Runner.Native :: configs) ()))

(* ------------------------------------------------------------------ *)
(* Registry aggregation across domains                                 *)
(* ------------------------------------------------------------------ *)

let snapshot_fingerprint snap =
  List.map
    (fun (name, counters, hists) ->
      (name, counters, Json.to_string (Histogram.set_to_json hists)))
    snap

let registry_sweep ~jobs =
  San.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      San.Registry.disable ();
      San.Registry.clear ())
    (fun () ->
      let profiles =
        List.filteri (fun i _ -> i mod 6 = 0) (List.map tiny Profiles.all)
      in
      ignore
        (Sweep.run ~trace:true ~capacity:64 ~jobs ~profiles
           ~configs:Runner.all_configs ());
      snapshot_fingerprint (San.Registry.snapshot ()))

let test_registry_parallel () =
  let serial = registry_sweep ~jobs:1 in
  let parallel = registry_sweep ~jobs:4 in
  Alcotest.(check bool) "snapshot non-empty" true (serial <> []);
  Alcotest.(check bool)
    "per-tool counters+histograms identical under sharding" true
    (serial = parallel)

(* ------------------------------------------------------------------ *)
(* Two concurrent sweeps: module-level state stays uncorrupted         *)
(* ------------------------------------------------------------------ *)

let test_concurrent_sweeps () =
  let profiles =
    List.filteri (fun i _ -> i mod 8 = 0) (List.map tiny Profiles.all)
  in
  let configs = [ Runner.Giantsan; Runner.Asan ] in
  let expected =
    sweep_fingerprint
      (Sweep.run ~trace:true ~capacity:128 ~jobs:1 ~profiles ~configs ())
  in
  (* two whole sweeps racing on two domains — exercises the domain-local
     folding template and trace sink under genuine concurrency *)
  let both =
    Pool.run ~jobs:2
      (Array.make 2 (fun () ->
           sweep_fingerprint
             (Sweep.run ~trace:true ~capacity:128 ~jobs:1 ~profiles ~configs ())))
  in
  Array.iteri
    (fun i got ->
      Alcotest.(check bool)
        (Printf.sprintf "concurrent sweep %d matches serial" i)
        true (got = expected))
    both

(* Pool.run makes a fresh pool per call, and callers such as the chaos
   engine and the sweeps call it thousands of times per process: it must
   behave identically on the 1st and the 500th cycle — results in order,
   failures still deterministic, and no state (poison flag, DLS trace
   sinks) leaking from one cycle into the next. *)
let test_pool_long_lived_reuse () =
  let cycles = 500 in
  for cycle = 0 to cycles - 1 do
    let jobs = 1 + (cycle mod 4) in
    let n = 1 + (cycle mod 7) in
    let got = Pool.run ~jobs (Array.init n (fun i () -> (cycle * 31) + i)) in
    Alcotest.(check (array int))
      (Printf.sprintf "cycle %d results" cycle)
      (Array.init n (fun i -> (cycle * 31) + i))
      got;
    (* every 16th cycle poisons the pool; the next cycle must be clean *)
    if cycle mod 16 = 0 then
      match
        Pool.run ~jobs
          (Array.init 8 (fun i () -> if i >= 2 then raise (Boom i) else i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "cycle %d lowest failure" cycle)
          2 i
  done;
  (* the global trace sink must not have accumulated anything: worker
     domains get private DLS sinks and the pool installs no global one *)
  Alcotest.(check int) "no trace events leaked" 0
    (List.length (Trace.events ()))

(* The service loop's shape: one pool, many batches. Sizes cycle through
   0 and 1 (inline) and up to 9 tasks on three domains; every 16th batch
   is poisoned at two indices and the batch after it must come back
   clean. *)
let test_pool_many_batches () =
  Pool.with_pool ~jobs:3 (fun p ->
      for batch = 0 to 499 do
        let n = batch mod 10 in
        let got = Pool.run_in p (Array.init n (fun i () -> (batch * 31) + i)) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d results" batch)
          (Array.init n (fun i -> (batch * 31) + i))
          got;
        if batch mod 16 = 0 then
          match
            Pool.run_in p
              (Array.init 12 (fun i () ->
                   if i = 9 || i = 4 then raise (Boom i) else i))
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "batch %d lowest failure" batch)
              4 i
      done)

(* A helper leaked on the raise path of with_pool would stay alive; 200 of
   them exceed OCaml's 128-domain limit and Domain.spawn fails. *)
let test_pool_joins_on_raise () =
  for k = 0 to 199 do
    match
      Pool.with_pool ~jobs:2 (fun p ->
          ignore (Pool.run_in p (Array.init 4 (fun i () -> i)));
          raise (Boom k))
    with
    | () -> Alcotest.fail "expected Boom"
    | exception Boom j -> Alcotest.(check int) "body's exception" k j
  done

(* Two tasks that each wait until both have started: with two domains in
   the pool, neither domain can take both, so the batch runs one task on
   the caller and one on the helper. *)
let rendezvous () =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    if Atomic.get arrived < 2 then Alcotest.fail "rendezvous timed out"

(* A helper's domain-local state outlives the batch, so a fault plan a
   task arms with Folding.with_fault must be gone again — on the return
   and on the raise path — by the time the helper takes its next task. *)
let test_pool_helper_fault_cell () =
  let module Folding = Giantsan_core.Folding in
  let armed = Some (Folding.Overstate_last 1) in
  Pool.with_pool ~jobs:2 (fun p ->
      let meet = rendezvous () in
      let inside =
        Pool.run_in p
          (Array.make 2 (fun () ->
               Folding.with_fault armed (fun () ->
                   meet ();
                   Folding.current_fault ())))
      in
      Alcotest.(check bool) "armed inside the task" true
        (Array.for_all (fun f -> f = armed) inside);
      let meet = rendezvous () in
      (match
         Pool.run_in p
           (Array.make 2 (fun () ->
                Folding.with_fault armed (fun () ->
                    meet ();
                    raise (Boom 0))))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 0 -> ());
      let meet = rendezvous () in
      let after =
        Pool.run_in p
          (Array.make 2 (fun () ->
               meet ();
               (Domain.self (), Folding.current_fault ())))
      in
      Alcotest.(check bool) "ran on the caller and on the helper" true
        (fst after.(0) <> fst after.(1));
      Alcotest.(check bool) "fault cell back to None on both domains" true
        (Array.for_all (fun (_, f) -> f = None) after))

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool: results in task order" `Quick test_pool_order;
      Alcotest.test_case "pool: edge cases" `Quick test_pool_edges;
      Alcotest.test_case "pool: deterministic exception" `Quick test_pool_exn;
      Alcotest.test_case "pool: poison stops claiming" `Quick
        test_pool_poison_stops_claims;
      Alcotest.test_case "pool: long-lived reuse stays clean" `Quick
        test_pool_long_lived_reuse;
      Alcotest.test_case "shard: private traces" `Quick test_shard_isolation;
      Alcotest.test_case "merge: resequence" `Quick test_merge_resequence;
      QCheck_alcotest.to_alcotest prop_sweep_deterministic;
      Alcotest.test_case "sweep: rejects bad order" `Quick test_sweep_bad_order;
      Alcotest.test_case "registry: parallel == serial" `Quick
        test_registry_parallel;
      Alcotest.test_case "concurrent sweeps don't corrupt" `Quick
        test_concurrent_sweeps;
      Alcotest.test_case "pool: 500 batches on one pool" `Quick
        test_pool_many_batches;
      Alcotest.test_case "pool: helpers joined when the body raises" `Quick
        test_pool_joins_on_raise;
      Alcotest.test_case "pool: helper fault cell reset between batches"
        `Quick test_pool_helper_fault_cell;
    ] )
