(* The deterministic baseline document, BENCH_giantsan.json (schema in
   EXPERIMENTS.md): per-profile simulated cost under every sanitizer
   configuration, the Figure 11 traversal rows, the fuzz-mode reset rows
   and the service-loop rows. Every number derives from event counts
   through the cost model, never from a clock, so the document is
   byte-identical across machines and [--jobs] values, and the perf gate
   ([bin/main.exe bench-gate]) pins it against the committed baseline.
   Wall-clock measurement lives in perfbench/. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Telemetry = Giantsan_telemetry
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Backend = Giantsan_policy.Backend
module Cost_model = Giantsan_workload.Cost_model
module Runner = Giantsan_workload.Runner
module Traversal = Giantsan_workload.Traversal
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles

let config =
  { Memsim.Heap.arena_size = 1 lsl 20; redzone = 16; quarantine_budget = 64 * 1024 }

let bench_heap =
  { Memsim.Heap.arena_size = 1 lsl 18; redzone = 16; quarantine_budget = 16 * 1024 }

(* --jobs N: domain-pool width for the profile sweep and the service loop
   (default: one per recommended core). Every [jobs] value produces the
   same document; only wall-clock shrinks. FILE is required, so a bare run
   never overwrites the committed baseline. Usage errors exit 2. *)
let jobs, out_path =
  let usage = "usage: bench/main.exe [--jobs N] FILE" in
  let jobs = ref (Giantsan_parallel.Pool.default_jobs ()) in
  let path = ref None in
  let anon file =
    if !path = None then path := Some file
    else raise (Arg.Bad ("unexpected argument " ^ file))
  in
  Arg.parse
    [ ("--jobs", Arg.Set_int jobs, "N  domain-pool width (N > 0)") ]
    anon usage;
  match !path with
  | Some p when !jobs > 0 -> (!jobs, p)
  | _ ->
    prerr_endline "bench/main.exe: FILE is required and N must be > 0";
    prerr_endline usage;
    exit 2

(* Per-profile simulated cost under every sanitizer configuration, at a
   reduced scale so the sweep stays in seconds, sharded across the domain
   pool (one cell = one private heap/shadow/sanitizer). LFP's compile-error
   profiles report [nan] sim time and are skipped. *)
let profile_stats () =
  let shrink p = { p with Specgen.p_phases = 4; p_iters = 128 } in
  let outcome =
    Giantsan_parallel.Sweep.run ~heap:bench_heap ~jobs
      ~profiles:(List.map shrink Profiles.all)
      ~configs:Runner.all_configs ()
  in
  List.filter_map
    (fun (r : Runner.result) ->
      if r.Runner.r_status <> Runner.Completed then None
      else
        let c = r.Runner.r_counters in
        Some
          {
            Telemetry.Export.bp_profile = r.Runner.r_profile;
            bp_config = Runner.config_name r.Runner.r_config;
            bp_sim_ns = r.Runner.r_sim_ns;
            bp_ops = r.Runner.r_ops;
            bp_shadow_loads = r.Runner.r_shadow_loads;
            bp_shadow_stores = r.Runner.r_shadow_stores;
            bp_region_checks = c.Counters.region_checks;
            bp_fast_checks = c.Counters.fast_checks;
            bp_slow_checks = c.Counters.slow_checks;
            bp_word_checks = c.Counters.word_checks;
          })
    (Array.to_list outcome.Giantsan_parallel.Sweep.o_results)

(* Deterministic Figure 11 rows: the three traversal kernels per backend
   at 16 KiB, reported as cost-model profiles. These are exact event
   counts, so the perf gate pins them against the committed baseline and
   asserts the reverse row's word-path ratio and the GiantSan-vs-ASan
   ordering. *)
let fig11_stats () =
  let size = 16384 in
  let kernels =
    [
      ( "fig11.forward-16KiB",
        fun san ~base -> Traversal.forward san ~base ~size );
      ( "fig11.random-16KiB",
        fun san ~base -> Traversal.random san ~seed:11 ~base ~size );
      ( "fig11.reverse-16KiB",
        fun san ~base -> Traversal.reverse san ~base ~size );
    ]
  in
  List.concat_map
    (fun (pname, kernel) ->
      List.map
        (fun id ->
          let san = Backend.create id config in
          let base = Traversal.prepare san ~size in
          ignore (kernel san ~base);
          let c = san.San.counters in
          let sim_ns =
            Cost_model.simulated_ns
              {
                Cost_model.ops = size / 8;
                shadow_loads = san.San.shadow_loads ();
                counters = c;
                is_sanitized = id <> Backend.Native;
                is_lfp = false;
                stack_fraction = 0.0;
              }
          in
          {
            Telemetry.Export.bp_profile = pname;
            bp_config = Backend.name id;
            bp_sim_ns = sim_ns;
            bp_ops = size / 8;
            bp_shadow_loads = san.San.shadow_loads ();
            bp_shadow_stores = san.San.shadow_stores ();
            bp_region_checks = c.Counters.region_checks;
            bp_fast_checks = c.Counters.fast_checks;
            bp_slow_checks = c.Counters.slow_checks;
            bp_word_checks = c.Counters.word_checks;
          })
        [ Backend.Native; Giantsan; Asan; Pac ])
    kernels

(* Fuzz-mode throughput rows: per-exec reset cost under the two execution
   profiles, for every policy backend. One measured pass drives both
   projections — the engine's determinism tests prove a restored sanitizer
   is event-count-identical to a fresh one, so the exec-side event counts
   are shared and only the reset term differs:

     rebuild     charges a full construction per exec (allocate + initialise
                 the arena, fill the whole shadow plane / signature table);
     persistent  charges one construction up front, then per exec a bulk
                 arena blit plus the journal-guided shadow repair
                 ([Shadow_mem.journal_segments]), the PAC table rewind
                 (signs delta) and the object-map rewind (allocator events).

   Everything is event counts through the calibrated weight table — no
   wall-clock — so the rows reproduce byte-identically and the perf gate
   pins them. [bp_ops] is the number of execs, making the exported ns/op a
   per-exec cost: execs/sec = 1e9 / ns_per_op, which is what the
   fuzzmode-gate CLI asserts the persistent/rebuild speedup on. *)
let fuzzmode_stats () =
  let module Difftest = Giantsan_bugs.Difftest in
  let module Scenario = Giantsan_bugs.Scenario in
  let module Pac = Giantsan_pac.Pac in
  let violations =
    [
      Difftest.V_overflow; Difftest.V_underflow; Difftest.V_far_jump;
      Difftest.V_uaf; Difftest.V_double_free; Difftest.V_mid_free;
    ]
  in
  let batch =
    List.init 24 (fun i ->
        if i mod 2 = 0 then Difftest.gen_clean ~seed:i
        else
          Difftest.gen_buggy ~seed:i
            (List.nth violations (i / 2 mod List.length violations)))
  in
  let n = List.length batch in
  (* reset-model constants, in the same abstract-ns currency as the
     calibrated weights: a fresh construction touches every byte once
     (calloc-style zeroing plus poisoning), a restore is a bulk memcpy over
     already-mapped pages — an order of magnitude cheaper per byte — and a
     metadata-entry rewind costs one allocator-bookkeeping event *)
  let w = Cost_model.default in
  let w_init = w.Cost_model.w_poison_segment in
  let w_blit = w_init /. 16.0 in
  let arena_bytes = config.Memsim.Heap.arena_size in
  List.map
    (fun id ->
      let san, plane = Backend.create_exposed id config in
      san.San.snapshot ();
      let loads0 = san.San.shadow_loads ()
      and stores0 = san.San.shadow_stores () in
      let signs0 =
        match plane with Backend.Sigs p -> Pac.signs p | _ -> 0
      in
      let exec_counters = Counters.create () in
      let ops = ref 0
      and shadow_loads = ref 0
      and shadow_stores = ref 0
      and journal_total = ref 0
      and signs_total = ref 0 in
      List.iter
        (fun sc ->
          (try ignore (Scenario.run san sc) with
          | Failure _ | Out_of_memory -> ());
          ops := !ops + List.length sc.Scenario.sc_steps;
          shadow_loads := !shadow_loads + (san.San.shadow_loads () - loads0);
          shadow_stores :=
            !shadow_stores + (san.San.shadow_stores () - stores0);
          (match plane with
          | Backend.Shadow m ->
            journal_total := !journal_total + Shadow_mem.journal_segments m
          | Backend.Sigs p ->
            signs_total := !signs_total + (Pac.signs p - signs0)
          | Backend.Plain -> ());
          Counters.add exec_counters san.San.counters;
          san.San.restore ())
        batch;
      let shadow_segs =
        match plane with Backend.Shadow m -> Shadow_mem.segments m | _ -> 0
      in
      let exec_ns =
        Cost_model.simulated_ns
          {
            Cost_model.ops = !ops;
            shadow_loads = !shadow_loads;
            counters = exec_counters;
            is_sanitized = id <> Backend.Native;
            is_lfp = id = Backend.Lfp;
            stack_fraction = 0.0;
          }
      in
      let construct_ns =
        float_of_int (arena_bytes + shadow_segs) *. w_init
      in
      let map_events =
        exec_counters.Counters.mallocs + exec_counters.Counters.frees
      in
      let restore_ns =
        (float_of_int (n * arena_bytes) *. w_blit)
        +. (float_of_int !journal_total *. w_blit)
        +. (float_of_int (!signs_total + map_events) *. w.Cost_model.w_free)
      in
      let row profile sim_ns =
        {
          Telemetry.Export.bp_profile = profile;
          bp_config = Backend.name id;
          bp_sim_ns = sim_ns;
          bp_ops = n;
          bp_shadow_loads = !shadow_loads;
          bp_shadow_stores = !shadow_stores;
          bp_region_checks = exec_counters.Counters.region_checks;
          bp_fast_checks = exec_counters.Counters.fast_checks;
          bp_slow_checks = exec_counters.Counters.slow_checks;
          bp_word_checks = exec_counters.Counters.word_checks;
        }
      in
      [
        row "fuzzmode.rebuild" ((float_of_int n *. construct_ns) +. exec_ns);
        row "fuzzmode.persistent" (construct_ns +. exec_ns +. restore_ns);
      ])
    Backend.all
  |> List.concat

(* Sustained-traffic numbers from the multi-tenant service loop under the
   virtual clock: fully deterministic (latencies are synthesized from the
   sanitizer's own event counts), so the rows are identical across machines
   and across [jobs] — they ride in the bench JSON as a "service" section
   the perf gate ignores. *)
let service_stats () =
  let module Loop = Giantsan_service.Loop in
  let module Policy = Giantsan_policy.Policy in
  let base_cfg =
    { Loop.default_config with Loop.tenants = 4; seed = 11; ticks = 64; jobs }
  in
  let plain = Loop.service_rows (Loop.run base_cfg) in
  (* the same fleet under the default policy spec: tenants start on the
     policy's backend assignment, so the rows measure the policy engine's
     steady-state cost rather than GiantSan's — prefixed so the two row
     sets stay distinguishable in the one "service" section *)
  let policied =
    let cfg = { base_cfg with Loop.policy = Some Policy.default } in
    List.map
      (fun r ->
        {
          r with
          Telemetry.Export.sv_scope =
            "policy." ^ r.Telemetry.Export.sv_scope;
        })
      (Loop.service_rows (Loop.run cfg))
  in
  plain @ policied

let () =
  let profiles = profile_stats () @ fig11_stats () @ fuzzmode_stats () in
  let body =
    Telemetry.Export.bench_json ~profiles ~service:(service_stats ()) ()
  in
  Telemetry.Export.write_file out_path body;
  Printf.printf "bench document written to %s\n" out_path
