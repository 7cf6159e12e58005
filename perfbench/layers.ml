(* The traced run's per-layer panel. Every probe calls one layer's public
   functions directly, on inputs derived from the benchmark seed, and
   reports the median ns per call over repeated batches. Counts come from
   [Counters] and [Shadow_mem] and are exact. The panel is the same for
   every workload, so a layer's numbers can be compared across the traced
   runs of all four. The cost model's simulated ns are not timings: their
   unit is sim_ns. *)

module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Quasi_bound = Giantsan_core.Quasi_bound
module Region_check = Giantsan_core.Region_check
module Gs_runtime = Giantsan_core.Gs_runtime
module Folding = Giantsan_core.Folding
module State_code = Giantsan_core.State_code
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Heap = Giantsan_memsim.Heap
module Memobj = Giantsan_memsim.Memobj
module Traversal = Giantsan_workload.Traversal
module Cost_model = Giantsan_workload.Cost_model
module Interp = Giantsan_analysis.Interp
module Harness = Giantsan_bugs.Harness
module Exec = Giantsan_fuzz.Exec
module Rng = Giantsan_util.Rng
open Common

let reps = 30

(* Median over [reps] batches of the time per call; [batch ()] makes
   [calls] calls. *)
let per_call ~calls batch =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         batch ();
         float_of_int (now_ns () - t0) /. float_of_int calls))

let minor_words_per_call ~calls batch =
  let w0 = Gc.minor_words () in
  batch ();
  (Gc.minor_words () -. w0) /. float_of_int calls

(* Median time of [f] applied to each element, over two sweeps. *)
let per_item xs f =
  let out = Samples.create () in
  for _ = 1 to 2 do
    Array.iter
      (fun x ->
        let t0 = now_ns () in
        f x;
        Samples.add out (float_of_int (now_ns () - t0)))
      xs
  done;
  median (Samples.to_array out)

let ms_of f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  float_of_int (now_ns () - t0) /. 1e6

(* ---- check path: the traversal buffer under every backend ---------- *)

let n = W_traversal.accesses

(* (cache base, offsets) of the three Figure 11 kernels. *)
let streams ~seed base =
  let rng = Rng.create (W_traversal.random_seed seed) in
  [|
    (base, Array.init n (fun j -> 8 * j));
    (base, Array.init n (fun _ -> 8 * Rng.int rng n));
    (base + (8 * (n - 1)), Array.init n (fun j -> -8 * j));
  |]

(* Regions inside the buffer, log-uniform lengths from 1 byte to 16 KiB. *)
let regions ~seed base =
  let rng = Rng.create (mix seed 4) in
  Array.init 1024 (fun _ ->
      let len = min W_traversal.size (1 lsl Rng.int rng 15 + Rng.int rng 8) in
      let lo = Rng.int rng (W_traversal.size - len + 1) in
      (base + lo, base + lo + len))

let cached_pass (san : San.t) streams () =
  Array.iter
    (fun (cb, offs) ->
      let c = san.San.new_cache ~base:cb in
      Array.iter (fun off -> ignore (san.San.cached_access c ~off ~width:8)) offs;
      ignore (san.San.flush_cache c))
    streams

let check_path ~seed words add =
  let kernel_ns = Array.make_matrix 3 n_backends 0.0 in
  for ix = 0 to n_backends - 1 do
    let b = backend_name ix in
    let san, base = W_traversal.make_buffer words ix in
    let st = streams ~seed base in
    let pass = cached_pass san st in
    add ("sanitizer.cached_access.ns." ^ b) "ns" (per_call ~calls:(3 * n) pass);
    add ("sanitizer.cached_access.minor_words." ^ b) "words" (minor_words_per_call ~calls:(3 * n) pass);
    let fwd = snd st.(0) and rnd = snd st.(1) in
    add ("sanitizer.access.ns." ^ b) "ns"
      (per_call ~calls:(2 * n) (fun () ->
           Array.iter (fun off -> ignore (san.San.access ~base ~addr:(base + off) ~width:8)) fwd;
           Array.iter (fun off -> ignore (san.San.access ~base ~addr:(base + off) ~width:8)) rnd));
    let rs = regions ~seed base in
    add ("sanitizer.check_region.ns." ^ b) "ns"
      (per_call ~calls:(Array.length rs) (fun () ->
           Array.iter (fun (lo, hi) -> ignore (san.San.check_region ~lo ~hi)) rs));
    (* whole kernels, as the traversal workload runs them *)
    let random_seed = W_traversal.random_seed seed in
    for k = 0 to 2 do
      let ns = per_call ~calls:n (fun () -> ignore (W_traversal.kernel san ~base ~random_seed k)) in
      kernel_ns.(k).(ix) <- ns;
      add (Printf.sprintf "measured_ns.%s.%s" W_traversal.kernels.(k) b) "ns" ns;
      (* the cost model's price for the same pass, from a fresh runtime *)
      let fresh, fbase = W_traversal.make_buffer words ix in
      ignore (W_traversal.kernel fresh ~base:fbase ~random_seed k);
      let sim =
        Cost_model.simulated_ns
          {
            Cost_model.ops = n;
            shadow_loads = fresh.San.shadow_loads ();
            counters = fresh.San.counters;
            is_sanitized = ix <> native_ix;
            is_lfp = ix = lfp_ix;
            stack_fraction = 0.0;
          }
      in
      add (Printf.sprintf "cost_model.sim_ns.%s.%s" W_traversal.kernels.(k) b) "sim_ns" (sim /. float_of_int n)
    done
  done;
  for k = 0 to 2 do
    add ("ratio.giantsan_over_asan." ^ W_traversal.kernels.(k)) "ratio"
      (kernel_ns.(k).(giantsan_ix) /. kernel_ns.(k).(asan_ix))
  done

(* ---- GiantSan's own layers, on an exposed runtime ------------------ *)

let giantsan_core ~seed words add =
  let san, shadow = Gs_runtime.create_exposed Heap.default_config in
  let base = Traversal.prepare san ~size:W_traversal.size in
  let arena = Heap.arena san.San.heap in
  Array.iteri (fun j w -> Giantsan_memsim.Arena.store arena ~addr:(base + (8 * j)) ~width:8 w) words;
  let st = streams ~seed base in
  let counters = san.San.counters in
  let qb_pass () =
    Array.iter
      (fun (cb, offs) ->
        let c = San.new_cache ~base:cb in
        Array.iter (fun off -> ignore (Quasi_bound.access shadow counters c ~off ~width:8)) offs)
      st
  in
  let qb_ns = per_call ~calls:(3 * n) qb_pass in
  add "quasi_bound.access.ns" "ns" qb_ns;
  (* dispatch self time: the whole cached access minus its Quasi_bound
     part on the same offsets, from equal fresh state *)
  let gs_san, gs_base = W_traversal.make_buffer words giantsan_ix in
  let cached_ns = per_call ~calls:(3 * n) (cached_pass gs_san (streams ~seed gs_base)) in
  add "sanitizer.dispatch_self.ns.giantsan" "ns" (cached_ns -. qb_ns);
  Array.iteri
    (fun k (cb, offs) ->
      let h0 = counters.Counters.cache_hits in
      let c = San.new_cache ~base:cb in
      Array.iter (fun off -> ignore (Quasi_bound.access shadow counters c ~off ~width:8)) offs;
      add ("quasi_bound.hit_ratio." ^ W_traversal.kernels.(k)) "ratio"
        (float_of_int (counters.Counters.cache_hits - h0) /. float_of_int (Array.length offs)))
    st;
  let rs = Array.map (fun (lo, hi) -> (lo land lnot 7, hi)) (regions ~seed base) in
  add "region_check.check.ns" "ns"
    (per_call ~calls:(Array.length rs) (fun () ->
         Array.iter (fun (l, r) -> ignore (Region_check.check shadow ~l ~r)) rs));
  let outcomes = Array.map (fun (l, r) -> Region_check.check shadow ~l ~r) rs in
  let share p =
    float_of_int (Array.fold_left (fun s o -> if p o then s + 1 else s) 0 outcomes)
    /. float_of_int (Array.length outcomes)
  in
  add "region_check.word_share" "ratio" (share (( = ) Region_check.Safe_word));
  add "region_check.slow_share" "ratio" (share (( = ) Region_check.Safe_slow));
  let seg0 = base / 8 in
  add "shadow.load_word.ns" "ns"
    (per_call ~calls:n (fun () ->
         for p = seg0 to seg0 + n - 1 do
           ignore (Sys.opaque_identity (Shadow_mem.load_word shadow p))
         done));
  let random_seed = W_traversal.random_seed seed in
  let loads =
    List.fold_left
      (fun s k -> s + (W_traversal.kernel san ~base ~random_seed k).Traversal.t_shadow_loads)
      0 [ 0; 1; 2 ]
  in
  add "shadow.loads_per_op" "count" (float_of_int loads /. float_of_int (3 * n))

(* ---- allocation, poisoning and restore ----------------------------- *)

let sizes ~seed count =
  let rng = Rng.create (mix seed 5) in
  Array.init count (fun _ -> 8 + Rng.int rng 505)

let memsim ~seed add =
  let sz = sizes ~seed 256 in
  let heap = Heap.create Heap.default_config in
  let m = Samples.create () and f = Samples.create () in
  for _ = 1 to reps do
    let t0 = now_ns () in
    let objs = Array.map (fun s -> Heap.malloc heap s) sz in
    let t1 = now_ns () in
    Array.iter (fun o -> ignore (Heap.free heap o.Memobj.base)) objs;
    let t2 = now_ns () in
    Samples.add m (float_of_int (t1 - t0) /. 256.0);
    Samples.add f (float_of_int (t2 - t1) /. 256.0)
  done;
  add "memsim.malloc.ns" "ns" (median (Samples.to_array m));
  add "memsim.free.ns" "ns" (median (Samples.to_array f));
  let heap = Heap.create Heap.default_config in
  let shadow = Shadow_mem.of_heap heap ~fill:State_code.unallocated in
  let objs = Array.map (fun s -> Heap.malloc heap s) sz in
  let segments = Array.fold_left (fun s o -> s + (o.Memobj.block_len / 8)) 0 objs in
  add "folding.poison.ns_per_segment" "ns"
    (per_call ~calls:segments (fun () -> Array.iter (Folding.poison_alloc shadow) objs));
  let heap = Heap.create W_fuzz.heap_config in
  let snap = Heap.snapshot heap in
  let small = Array.sub sz 0 8 in
  add "memsim.restore.ns" "ns"
    (median
       (Array.init 200 (fun _ ->
            let objs = Array.map (fun s -> Heap.malloc heap (s / 4)) small in
            Array.iteri (fun i o -> if i mod 2 = 0 then ignore (Heap.free heap o.Memobj.base)) objs;
            let t0 = now_ns () in
            Heap.restore heap snap;
            float_of_int (now_ns () - t0))))

(* A batch of executable scenarios: the fuzz workload's, when it runs. *)
let scenario_batch ~seed = function
  | Some (st : W_fuzz.state) -> Array.sub st.W_fuzz.scenarios 0 (min 64 (Array.length st.W_fuzz.scenarios))
  | None ->
    let kept = ref [] in
    Array.iter
      (fun sc ->
        if List.length !kept < 64 then
          match Exec.run sc with Ok _ -> kept := sc :: !kept | Error _ -> ())
      (W_fuzz.candidates ~seed);
    Array.of_list (List.rev !kept)

let fuzz_layers batch add =
  let run san sc = ignore (W_fuzz.run_on san sc) in
  for ix = 0 to n_backends - 1 do
    let san = Backend.create backends.(ix) W_fuzz.heap_config in
    san.San.snapshot ();
    let times =
      Array.map
        (fun sc ->
          run san sc;
          let t0 = now_ns () in
          san.San.restore ();
          float_of_int (now_ns () - t0))
        batch
    in
    add ("sanitizer.restore.ns." ^ backend_name ix) "ns" (median times)
  done;
  let gs, shadow = Gs_runtime.create_exposed W_fuzz.heap_config in
  gs.San.snapshot ();
  let stores0 = gs.San.shadow_stores () in
  let journal = ref 0 and stores = ref 0 in
  Array.iter
    (fun sc ->
      run gs sc;
      journal := !journal + Shadow_mem.journal_segments shadow;
      stores := !stores + (gs.San.shadow_stores () - stores0);
      gs.San.restore ())
    batch;
  let per_exec x = float_of_int x /. float_of_int (Array.length batch) in
  add "shadow.journal_segments_per_exec" "count" (per_exec !journal);
  add "shadow.stores_per_op" "count" (per_exec !stores);
  List.iter
    (fun tool ->
      let san = Harness.make_sanitizer tool in
      san.San.snapshot ();
      add
        ("bugs.scenario_run.ns." ^ String.lowercase_ascii (Harness.tool_name tool))
        "ns"
        (per_item batch (fun sc -> Fun.protect ~finally:san.San.restore (fun () -> run san sc))))
    Harness.all_tools;
  let ctx = Exec.make_ctx () in
  add "fuzz.exec.ns" "ns" (per_item batch (fun sc -> ignore (Exec.run ~ctx sc)));
  add "fuzz.exec.ns.rebuild" "ns" (per_item batch (fun sc -> ignore (Exec.run sc)))

(* ---- analysis: generation, planning and the interpreter ------------ *)

let analysis ~seed add =
  add "workload.specgen.ms" "ms" (ms_of (fun () -> W_profiles.generate (W_profiles.profiles ~seed)));
  let st = W_profiles.setup ~seed in
  add "analysis.plan.ms" "ms" (ms_of (fun () -> W_profiles.plan_all st.W_profiles.progs giantsan_ix));
  let ns_per_op = Array.make n_backends 0.0 in
  let plain = ref 0 and cached = ref 0 and eliminated = ref 0 in
  for ix = 0 to n_backends - 1 do
    let ns = ref 0 and ops = ref 0 in
    Array.iteri
      (fun p _ ->
        if W_profiles.runs st ix p then begin
          let t0 = now_ns () in
          let o = W_profiles.run st ix p in
          ns := !ns + (now_ns () - t0);
          W_profiles.restore st ix;
          ops := !ops + o.Interp.ops;
          if ix = giantsan_ix then begin
            let x = o.Interp.stats in
            plain := !plain + x.Interp.x_plain;
            cached := !cached + x.Interp.x_cached;
            eliminated := !eliminated + x.Interp.x_eliminated
          end
        end)
      st.W_profiles.progs;
    ns_per_op.(ix) <- float_of_int !ns /. float_of_int !ops;
    add ("analysis.interp.ns_per_op." ^ backend_name ix) "ns" ns_per_op.(ix)
  done;
  let total = float_of_int (!plain + !cached + !eliminated) in
  add "analysis.eliminated_share" "ratio" (float_of_int !eliminated /. total);
  add "analysis.cached_share" "ratio" (float_of_int !cached /. total);
  add "ratio.giantsan_over_native.profiles" "ratio"
    (ns_per_op.(giantsan_ix) /. ns_per_op.(native_ix))

(* ---- the service tick, phase by phase ------------------------------ *)

(* The phases are timed on [W_serve.replica], a copy of [Loop.run]'s tick;
   [check] fails the run when the copy's running totals after any tick
   differ from those of [Loop.run] on the same configuration. *)
let service ~seed ~check add =
  let sp = Spans.create () in
  let cfg =
    { (W_serve.config ~seed ~jobs:W_serve.jobs ~virtual_clock:false giantsan_ix) with
      Giantsan_service.Loop.ticks = 16 }
  in
  let copy = W_serve.replica cfg sp in
  let loop = ref [] in
  ignore (Giantsan_service.Loop.run cfg ~progress:(fun line -> loop := W_serve.progress_totals line :: !loop));
  check (Array.to_list copy = List.rev !loop) (fun () ->
      "serve: the per-layer copy of Loop.run's tick serves other requests than Loop.run");
  let spans = Spans.spans sp in
  (* per tick (unit): the quantum tasks' summed and longest durations *)
  let quanta = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.Spans.name = "service.quantum" then begin
        let sum, longest = try Hashtbl.find quanta s.Spans.unit_id with Not_found -> (0, 0) in
        let d = Spans.duration s in
        Hashtbl.replace quanta s.Spans.unit_id (sum + d, max longest d)
      end)
    spans;
  let med xs = median (Array.of_list (List.map float_of_int xs)) in
  add "service.arrivals.ns_per_tick" "ns" (median (Spans.durations sp "service.arrivals"));
  add "service.quantum.ns_per_tick" "ns" (med (Hashtbl.fold (fun _ (sum, _) acc -> sum :: acc) quanta []));
  add "service.audit.ns" "ns" (median (Spans.durations sp "service.audit"));
  add "service.windows.ns_per_tick" "ns" (median (Spans.durations sp "service.windows"));
  add "parallel.pool_run.overhead_ns" "ns"
    (med
       (List.filter_map
          (fun s ->
            if s.Spans.name = "parallel.pool_run" then
              Some (Spans.duration s - snd (Hashtbl.find quanta s.Spans.unit_id))
            else None)
          spans));
  let rng = Rng.create (mix seed 6) in
  let values = Array.init 4096 (fun _ -> 100 + Rng.int rng 100_000) in
  let h = Giantsan_telemetry.Latency.create "probe" in
  add "telemetry.latency_observe.ns" "ns"
    (per_call ~calls:(Array.length values) (fun () ->
         Array.iter (Giantsan_telemetry.Latency.observe h) values))

let run ~seed ?fuzz ~check add =
  let words = W_traversal.seeded_words seed in
  check_path ~seed words add;
  giantsan_core ~seed words add;
  memsim ~seed add;
  let batch = scenario_batch ~seed fuzz in
  fuzz_layers batch add;
  analysis ~seed add;
  service ~seed ~check add
