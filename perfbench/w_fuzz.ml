(* Workload [fuzz]: a seeded batch of differential-testing scenarios,
   generated and mutated in set-up. Each round runs the batch through
   [Exec.run ~ctx] (persistent mode, the whole [Harness.all_tools]
   matrix), then through one long-lived sanitizer per backend, restoring
   it after every scenario the way the persistent executor does. *)

module San = Giantsan_sanitizer.Sanitizer
module Scenario = Giantsan_bugs.Scenario
module Difftest = Giantsan_bugs.Difftest
module Harness = Giantsan_bugs.Harness
module Exec = Giantsan_fuzz.Exec
module Mutate = Giantsan_fuzz.Mutate
module Rng = Giantsan_util.Rng
open Common

let batch = 2048

(* The harness's per-scenario heap (see [Harness.make_sanitizer]). *)
let heap_config =
  { Giantsan_memsim.Heap.arena_size = 32 * 1024; redzone = 16; quarantine_budget = 16 * 1024 }

let violations =
  [|
    Difftest.V_overflow; Difftest.V_underflow; Difftest.V_far_jump; Difftest.V_uaf;
    Difftest.V_double_free; Difftest.V_mid_free;
  |]

type state = {
  scenarios : Scenario.t array;
  expected_matrix : (Harness.tool * bool) list array;  (** rebuild-mode verdicts *)
  expected : bool array array;  (** [backend][scenario]: reported anything *)
  ctx : Exec.ctx;
  sans : San.t array;  (** per backend, snapshotted pristine *)
}

(* Generated and mutated candidates, in seed order. Candidates that
   [Exec.run] cannot execute (an unallocated slot, arena exhaustion) are
   skipped, as the fuzzer itself skips them. *)
let candidates ~seed =
  let pool =
    Array.init 512 (fun i ->
        let s = mix seed (100 + i) in
        if i mod 2 = 0 then Difftest.gen_clean ~seed:s
        else Difftest.gen_buggy ~seed:s violations.(i / 2 mod Array.length violations))
  in
  let rng = Rng.create (mix seed 3) in
  Array.init (2 * batch) (fun i -> Mutate.mutate rng ~pool pool.(i mod Array.length pool))

let run_on san sc =
  match Scenario.run_reports san sc with
  | reports -> Some (reports <> [])
  | exception (Failure _ | Out_of_memory) -> None

let tool_of_backend = function
  | Backend.Giantsan -> Some Harness.Giantsan
  | Backend.Asan -> Some Harness.Asan
  | Backend.Lfp -> Some Harness.Lfp
  | Backend.Pac -> Some Harness.Pac
  | Backend.Native -> None

(* Each backend's verdict on a fresh sanitizer: the rebuild-mode
   [Exec.run] already ran one per tool; native runs here. *)
let fresh_verdicts sc (o : Exec.outcome) =
  Array.map
    (fun b ->
      match tool_of_backend b with
      | Some tool -> Some (List.assoc tool o.Exec.verdicts)
      | None -> run_on (Backend.create b heap_config) sc)
    backends

let setup ~seed =
  let kept = ref [] and n = ref 0 in
  Array.iter
    (fun sc ->
      if !n < batch then
        match Exec.run sc with
        | Error _ -> ()
        | Ok o ->
          let fresh = fresh_verdicts sc o in
          if Array.for_all Option.is_some fresh then begin
            kept := (sc, o.Exec.verdicts, Array.map Option.get fresh) :: !kept;
            incr n
          end)
    (candidates ~seed);
  let kept = Array.of_list (List.rev !kept) in
  {
    scenarios = Array.map (fun (sc, _, _) -> sc) kept;
    expected_matrix = Array.map (fun (_, v, _) -> v) kept;
    expected = Array.init n_backends (fun ix -> Array.map (fun (_, _, f) -> f.(ix)) kept);
    ctx = Exec.make_ctx ();
    sans =
      Array.init n_backends (fun ix ->
          let san = Backend.create backends.(ix) heap_config in
          san.San.snapshot ();
          san);
  }

(* One persistent exec under one backend: run, then restore. *)
let exec_one st ix sc =
  let san = st.sans.(ix) in
  Fun.protect ~finally:(fun () -> san.San.restore ()) (fun () -> run_on san sc)

let measure st ~budget_ns ~spans acc =
  for_budget acc ~budget_ns (fun round ->
      Array.iteri
        (fun i sc ->
          let t0 = now_ns () in
          let r = Spans.unit_span spans "fuzz.exec" (fun () -> Exec.run ~ctx:st.ctx sc) in
          charge acc matrix ~key:i ~units:1 ~ns:(now_ns () - t0);
          check acc
            (match r with
            | Ok o -> o.Exec.divergences = [] && o.Exec.verdicts = st.expected_matrix.(i)
            | Error _ -> false)
            (fun () ->
              match r with
              | Error e -> Printf.sprintf "fuzz exec %s: Error %s" sc.Scenario.sc_id e
              | Ok o ->
                Printf.sprintf "fuzz exec %s: divergences [%s]" sc.Scenario.sc_id
                  (String.concat "; " (List.map Exec.divergence_name o.Exec.divergences))))
        st.scenarios;
      Array.iter
        (fun ix ->
          let name = "fuzz.scenario." ^ backend_name ix in
          Array.iteri
            (fun i sc ->
              let t0 = now_ns () in
              let v = Spans.unit_span spans name (fun () -> exec_one st ix sc) in
              let ns = now_ns () - t0 in
              charge acc ix ~key:i ~units:1 ~ns;
              if ix = giantsan_ix then sample_latency acc ~key:i ns;
              check acc
                (v = Some st.expected.(ix).(i))
                (fun () ->
                  Printf.sprintf "fuzz scenario %s under %s: verdict differs from a fresh sanitizer"
                    sc.Scenario.sc_id (backend_name ix)))
            st.scenarios)
        (rotation round))
