(* Workload [profiles]: the 24 Table 2 programs, re-seeded from the
   benchmark seed, three variants each. Generation and instrumentation
   happen in set-up; each timed unit is one [Interp.run] of one program
   under one backend, on a long-lived sanitizer restored to its pristine
   snapshot between runs. *)

module San = Giantsan_sanitizer.Sanitizer
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles
module Runner = Giantsan_workload.Runner
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Plan = Giantsan_analysis.Plan
module Ast = Giantsan_ir.Ast
open Common

let runner_config ix =
  match backends.(ix) with
  | Backend.Native -> Runner.Native
  | Backend.Giantsan -> Runner.Giantsan
  | Backend.Asan -> Runner.Asan
  | Backend.Pac -> Runner.Pac
  | Backend.Lfp -> Runner.Lfp

(* Runner's heap with a 2 MiB arena instead of 8 MiB: every program fits,
   and five long-lived sanitizers plus their snapshots stay small. *)
let heap = { Giantsan_memsim.Heap.arena_size = 2 lsl 20; redzone = 16; quarantine_budget = 256 * 1024 }

type state = {
  names : string array;
  progs : Ast.program array;
  lfp_builds : bool array;  (** LFP skips its CE/RE projects *)
  plans : Plan.t array array;  (** [backend][program] *)
  sans : San.t array;  (** per backend, snapshotted pristine *)
  expected_env : (string * int) list array;  (** native's final variables *)
}

(* Each Table 2 profile is generated [variants] times, from seeds derived
   from the benchmark seed, so a run averages over more than one program
   per profile. *)
let variants = 3

let profiles ~seed =
  Array.of_list
    (List.concat_map
       (fun v ->
         List.map
           (fun p -> { p with Specgen.p_seed = mix seed ((v * 1_000_000) + p.Specgen.p_seed) })
           Profiles.all)
       (List.init variants Fun.id))

let generate profs = Array.map Specgen.generate profs

let plan_all progs ix =
  let mode = Runner.instrument_mode (runner_config ix) in
  Array.map (Instrument.plan mode) progs

let runs st ix p = ix <> lfp_ix || st.lfp_builds.(p)

(* The sanitizer is restored after the run returns, outside the timing
   the callers wrap around [run]. *)
let run st ix p = Interp.run st.sans.(ix) st.plans.(ix).(p) st.progs.(p)
let restore st ix = st.sans.(ix).San.restore ()

let setup ~seed =
  let profs = profiles ~seed in
  let progs = generate profs in
  let sans =
    Array.init n_backends (fun ix ->
        let san = Runner.make_sanitizer ~heap (runner_config ix) in
        san.San.snapshot ();
        san)
  in
  let st =
    {
      names = Array.map (fun p -> p.Specgen.p_name) profs;
      progs;
      lfp_builds = Array.map (fun p -> p.Specgen.p_lfp_status = `Ok) profs;
      plans = Array.init n_backends (plan_all progs);
      sans;
      expected_env = [||];
    }
  in
  let native p =
    let o = run st native_ix p in
    restore st native_ix;
    o.Interp.final_env
  in
  { st with expected_env = Array.init (Array.length progs) native }

let outcome_ok st p (o : Interp.outcome) =
  (not o.Interp.crashed) && (not o.Interp.out_of_memory) && (not o.Interp.fuel_exhausted)
  && o.Interp.reports = [] && o.Interp.final_env = st.expected_env.(p)

let measure st ~budget_ns ~spans acc =
  for_budget acc ~budget_ns (fun round ->
      Array.iter
        (fun ix ->
          Array.iteri
            (fun p _ ->
              if runs st ix p then begin
                let t0 = now_ns () in
                let o =
                  Spans.unit_span spans
                    (Printf.sprintf "profiles.%s.%s" st.names.(p) (backend_name ix))
                    (fun () -> run st ix p)
                in
                let ns = now_ns () - t0 in
                restore st ix;
                charge acc ix ~key:p ~units:o.Interp.ops ~ns;
                if ix = giantsan_ix then sample_latency acc ~key:p ns;
                check acc (outcome_ok st p o) (fun () ->
                    Printf.sprintf "profile %s under %s: %d reports%s%s%s%s" st.names.(p)
                      (backend_name ix) (List.length o.Interp.reports)
                      (if o.Interp.crashed then ", crashed" else "")
                      (if o.Interp.out_of_memory then ", out of memory" else "")
                      (if o.Interp.fuel_exhausted then ", out of fuel" else "")
                      (if o.Interp.final_env <> st.expected_env.(p) then ", final_env differs"
                       else ""))
              end)
            st.progs)
        (rotation round))
