(* Workload [serve]: [Loop.run] with 16 tenants, the default request mix,
   the real clock and [min 2 nproc] pool domains, once per backend per
   round. It is a closed loop: a tick starts once the previous tick's pool
   has joined. Each tick is timed between [Loop.run]'s per-tick progress
   callbacks and is an input of its own: throughput is requests served
   over tick time, and a unit of latency is one GiantSan tick. The first
   tick of a run is left out, with its requests, since its interval
   includes [Loop.run]'s construction of the tenants. (The service's own
   per-request latencies come from a microsecond clock and read 1 ns for
   most requests.) The traced run times the same [Loop.run], with one span
   per tick. *)

module Loop = Giantsan_service.Loop
module Tenant = Giantsan_service.Tenant
module Pool = Giantsan_parallel.Pool
open Common

let tenants = 16
let ticks = 128
let jobs = min 2 (Pool.default_jobs ())

let config ~seed ~jobs ~virtual_clock ix =
  {
    Loop.default_config with
    Loop.tenants;
    seed;
    ticks;
    jobs;
    report_every = 1;
    tenant_cfg = { Tenant.default_config with Tenant.backend = backends.(ix); virtual_clock };
  }

type totals = { ops : int; errors : int }

type state = {
  configs : Loop.config array;  (** per backend, as timed *)
  expected : totals array;
  virtual_ops : int;  (** requests a virtual-clock GiantSan run serves *)
}

(* Under the real clock a request's latency never feeds back into the
   request stream, so the verdicts are a function of the seed alone and a
   serial run is the reference for the two-domain ones. The virtual clock
   draws latency jitter from the tenant's request stream, so a
   virtual-clock run serves the same number of requests but a different
   mix; only its op count is compared. *)
let setup ~seed =
  let expected =
    Array.init n_backends (fun ix ->
        let o = Loop.run (config ~seed ~jobs:1 ~virtual_clock:false ix) in
        { ops = o.Loop.o_ops; errors = o.Loop.o_errors })
  in
  let virt = Loop.run (config ~seed ~jobs:1 ~virtual_clock:true giantsan_ix) in
  {
    configs = Array.init n_backends (config ~seed ~jobs ~virtual_clock:false);
    expected;
    virtual_ops = virt.Loop.o_ops;
  }

type run_result = { totals : totals; healthy : bool }

(* The cumulative request and report totals in a progress line of
   [Loop.run] ("tick 3/128  ops=1234    err=5 ..."). *)
let progress_totals line = Scanf.sscanf line " tick %d/%d ops=%d err=%d" (fun _ _ ops errors -> { ops; errors })

(* [Loop.run] with [tick i ~ops ~start_ns ~end_ns] called at the end of
   every tick [i] but the first, [ops] being the requests served in it.
   The callback's own time falls between two ticks. *)
let timed_run cfg tick =
  let last = ref None and i = ref 0 and served = ref 0 in
  let progress line =
    let now = now_ns () in
    let total = (progress_totals line).ops in
    Option.iter (fun start_ns -> tick !i ~ops:(total - !served) ~start_ns ~end_ns:now) !last;
    served := total;
    incr i;
    last := Some (now_ns ())
  in
  let o = Loop.run ~progress cfg in
  { totals = { ops = o.Loop.o_ops; errors = o.Loop.o_errors }; healthy = Loop.healthy o && o.Loop.o_shed = 0 }

(* A copy of [Loop.run]'s tick without SLO, policy, chaos, the Degraded
   half quantum, the quarantine checks, the stall detector or the
   summary: the same calls in the same order, each phase inside a span, so
   that the per-layer panel can time the phases one by one. It must be
   kept in step with [Loop.run]; [Layers.service] checks that its running
   totals after every tick, which it returns, match [Loop.run]'s. *)
let replica (cfg : Loop.config) sp =
  let ts =
    Spans.record sp "service.create" (fun () ->
        Array.init cfg.Loop.tenants (fun id -> Tenant.create ~id ~seed:cfg.Loop.seed cfg.Loop.tenant_cfg))
  in
  let sum f = Array.fold_left (fun s t -> s + f t) 0 ts in
  Array.init cfg.Loop.ticks (fun tick ->
      Spans.new_unit sp;
      Spans.record sp "service.tick" (fun () ->
          Spans.record sp "service.arrivals" (fun () ->
              Array.iter (fun t -> Tenant.tick_arrivals t ~mean:cfg.Loop.arrival_mean) ts);
          let forks = Array.map (fun _ -> Spans.fork sp) ts in
          Spans.record sp "parallel.pool_run" (fun () ->
              ignore
                (Pool.run ~jobs:cfg.Loop.jobs
                   (Array.mapi
                      (fun i t () ->
                        Spans.record forks.(i) "service.quantum" (fun () ->
                            Tenant.run_quantum t ~max_ops:cfg.Loop.quantum))
                      ts)));
          Spans.join sp (Array.to_list forks);
          if cfg.Loop.audit_every > 0 && (tick + 1) mod cfg.Loop.audit_every = 0 then
            Array.iter (fun t -> Spans.record sp "service.audit" (fun () -> ignore (Tenant.audit t))) ts;
          Spans.record sp "service.windows" (fun () ->
              Array.iter (fun t -> ignore (Tenant.poll_windows t)) ts));
      { ops = sum Tenant.ops; errors = sum Tenant.errors })

let measure st ~budget_ns ~spans acc =
  check acc
    (st.virtual_ops = st.expected.(giantsan_ix).ops)
    (fun () ->
      Printf.sprintf "serve: a virtual-clock run served %d requests, a real-clock run %d"
        st.virtual_ops st.expected.(giantsan_ix).ops);
  for_budget acc ~budget_ns (fun round ->
      Array.iter
        (fun ix ->
          let tick i ~ops ~start_ns ~end_ns =
            charge acc ix ~key:i ~units:ops ~ns:(end_ns - start_ns);
            if ix = giantsan_ix then begin
              sample_latency acc ~key:i (end_ns - start_ns);
              Option.iter (fun sp -> Spans.add_unit sp "service.tick" ~start_ns ~end_ns) spans
            end
          in
          let r = timed_run st.configs.(ix) tick in
          let want = st.expected.(ix) in
          check acc (r.healthy && r.totals = want) (fun () ->
              Printf.sprintf "serve under %s: %d ops / %d reports (expected %d / %d)%s"
                (backend_name ix) r.totals.ops r.totals.errors want.ops want.errors
                (if r.healthy then "" else ", unhealthy")))
        (rotation round))
