module Pool = Giantsan_parallel.Pool
module Fault = Giantsan_chaos.Fault
module Table = Giantsan_util.Table
module Backend = Giantsan_policy.Backend
module Policy = Giantsan_policy.Policy
module T = Giantsan_telemetry

type config = {
  tenants : int;
  seed : int;
  ticks : int;
  quantum : int;
  arrival_mean : int;
  jobs : int;
  slo : Slo.t;
  policy : Policy.spec option;
  tenant_cfg : Tenant.config;
  chaos : (int * Fault.shadow_fault * int) option;
  audit_every : int;
  report_every : int;
  upshift_after : int;
}

let default_config =
  {
    tenants = 4;
    seed = 7;
    ticks = 64;
    quantum = 32;
    arrival_mean = 24;
    jobs = 1;
    slo = Slo.none;
    policy = None;
    tenant_cfg = Tenant.default_config;
    chaos = None;
    audit_every = 8;
    report_every = 0;
    upshift_after = 4;
  }

type tenant_summary = {
  s_id : int;
  s_backend : Backend.id;
  s_state : Tenant.state;
  s_ops : int;
  s_errors : int;
  s_shed : int;
  s_breaches : int;
  s_windows : int;
  s_p50 : float;
  s_p99 : float;
  s_p999 : float;
  s_ops_per_sec : float;
  s_span_ns : int;
}

type outcome = {
  o_tenants : tenant_summary list;
  o_latency : T.Latency.t;
  o_ops : int;
  o_errors : int;
  o_shed : int;
  o_breaches : int;
  o_quarantined : int;
  o_ops_per_sec : float;
  o_chaos : (int * string) option;
  o_faults : (int * string) list;
  o_downshifts : (int * string) list;
  o_upshifts : (int * string) list;
  o_dumps : (int * string list) list;
  o_recorders : (int * string list) list;
}

(* Sustained per-tenant rate over the whole run, against the tenant's own
   clock. Window.rate only covers the last k windows; the summary wants
   the whole-run number. *)
let sustained_rate ~ops ~span_ns =
  if span_ns <= 0 then 0.0 else float_of_int ops /. (float_of_int span_ns /. 1e9)

let summarize (t : Tenant.t) =
  let lat = Tenant.latency t in
  let span_ns = Tenant.now_ns t in
  {
    s_id = Tenant.id t;
    s_backend = Tenant.backend t;
    s_state = Tenant.state t;
    s_ops = Tenant.ops t;
    s_errors = Tenant.errors t;
    s_shed = Tenant.shed t;
    s_breaches = Tenant.breaches t;
    s_windows = Tenant.windows_closed t;
    s_p50 = T.Latency.p50 lat;
    s_p99 = T.Latency.p99 lat;
    s_p999 = T.Latency.p999 lat;
    s_ops_per_sec = sustained_rate ~ops:(Tenant.ops t) ~span_ns;
    s_span_ns = span_ns;
  }

(* Escalation ladder: consecutive breached windows walk the tenant down
   breached -> degraded -> quarantined; one clean window walks it back to
   healthy (quarantine is terminal). *)
let escalate t streak =
  let open Tenant in
  let next =
    if streak >= 3 then Quarantined else if streak >= 2 then Degraded else Breached
  in
  if state t <> next then begin
    set_state t next;
    record_state t next
  end;
  next

let quarantine_with_dump t dumps ~detail =
  Tenant.record_fault t ~detail;
  if Tenant.state t <> Tenant.Quarantined then begin
    Tenant.set_state t Tenant.Quarantined;
    Tenant.record_state t Tenant.Quarantined
  end;
  dumps := (Tenant.id t, Tenant.dump t) :: !dumps

let run ?progress cfg =
  if cfg.tenants < 1 then invalid_arg "Loop.run: tenants < 1";
  if cfg.ticks < 0 then invalid_arg "Loop.run: ticks < 0";
  let backends =
    match cfg.policy with
    | None -> Array.make cfg.tenants cfg.tenant_cfg.Tenant.backend
    | Some spec -> Array.of_list (Policy.assign spec ~tenants:cfg.tenants)
  in
  let tenants =
    Array.init cfg.tenants (fun id ->
        Tenant.create ~id ~seed:cfg.seed
          { cfg.tenant_cfg with Tenant.backend = backends.(id) })
  in
  let dumps = ref [] in
  let faults = ref [] in
  let downshifts = ref [] in
  let upshifts = ref [] in
  let chaos_note = ref None in
  (* consecutive clean windows per tenant, for the ladder's return
     direction: [upshift_after] of them earn a climb back toward the
     tenant's original assignment (the [backends] array, which is the
     ceiling [Policy.upshift] honours) *)
  let clean_windows = Array.make cfg.tenants 0 in
  (* Escalation endpoint: without a policy a third consecutive breach
     quarantines; with one, the tenant first walks the downshift ladder —
     a fresh runtime on a cheaper backend, state back to Healthy, streak
     restarted — and only quarantines once it breaches at the cheapest
     rung (PartiSan's degrade-coverage-before-degrading-service move). *)
  let punish t =
    clean_windows.(Tenant.id t) <- 0;
    let streak = Tenant.breach_streak t + 1 in
    Tenant.set_breach_streak t streak;
    let quarantine () =
      if escalate t streak = Tenant.Quarantined then
        dumps := (Tenant.id t, Tenant.dump t) :: !dumps
    in
    match cfg.policy with
    | Some spec when streak >= 3 -> (
      match Policy.downshift spec ~current:(Tenant.backend t) with
      | Some backend ->
        downshifts := (Tenant.id t, Backend.name backend) :: !downshifts;
        Tenant.repartition t ~backend;
        if Tenant.state t <> Tenant.Healthy then begin
          Tenant.set_state t Tenant.Healthy;
          Tenant.record_state t Tenant.Healthy
        end
      | None -> quarantine ())
    | _ -> quarantine ()
  in
  (* per-tenant snapshots from the previous control-plane pass, for the
     stall detector: a tick that completed nothing is only visible as a
     delta against these *)
  let last_ops = Array.make cfg.tenants 0 in
  let last_shed = Array.make cfg.tenants 0 in
  (* one pool for the whole run: its helper domains are spawned here, once,
     and parked between ticks; they are joined when the run returns *)
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  for tick = 0 to cfg.ticks - 1 do
    (* 1. arrivals (serial; private arrival streams) *)
    Array.iter (fun t -> Tenant.tick_arrivals t ~mean:cfg.arrival_mean) tenants;
    (* 2. serve one quantum per tenant on the pool; a degraded tenant's
       quantum is halved, which is the visible cost of the Degraded state *)
    let tasks =
      Array.map
        (fun t () ->
          let q =
            (* half quantum, floored at one op — except that half of a zero
               quantum must stay zero, or degradation would grant a fully
               stalled loop more service than a healthy one *)
            if Tenant.state t = Tenant.Degraded then
              min cfg.quantum (max 1 (cfg.quantum / 2))
            else cfg.quantum
          in
          Tenant.run_quantum t ~max_ops:q)
        tenants
    in
    ignore (Pool.run_in pool tasks);
    (* 3. control plane, serial, tenant-id order *)
    (match cfg.chaos with
    | Some (victim, fault, at_tick)
      when at_tick = tick && victim >= 0 && victim < cfg.tenants ->
      let detail = Tenant.plant_fault tenants.(victim) fault in
      chaos_note := Some (victim, detail)
    | _ -> ());
    Array.iter
      (fun t ->
        (* shadow-vs-oracle audit: a corrupted shadow plane is a fault,
           not an SLO matter — straight to quarantine, recorder dumped *)
        (if
           cfg.audit_every > 0
           && (tick + 1) mod cfg.audit_every = 0
           && Tenant.state t <> Tenant.Quarantined
         then
           match Tenant.audit t with
           | None -> ()
           | Some detail ->
             faults := (Tenant.id t, detail) :: !faults;
             quarantine_with_dump t dumps ~detail);
        (* SLO watchdog over every newly closed window span *)
        if Tenant.state t <> Tenant.Quarantined then
          match Tenant.poll_windows t with
          | None ->
            (* a tenant that closes no window produces nothing for the
               watchdog to evaluate — which used to make a fully wedged
               tenant (zero completed ops, demand piling up) look healthy
               forever. Under an active SLO, such a tick is a stall:
               count it against the breach streak so a stalled tenant
               walks the same escalation ladder as a slow one. *)
            let id = Tenant.id t in
            if
              (not (Slo.is_none cfg.slo))
              && Tenant.ops t = last_ops.(id)
              && (Tenant.queue_depth t > 0 || Tenant.shed t > last_shed.(id))
            then begin
              Tenant.record_breach t
                {
                  Slo.b_slo = "stalled";
                  b_value = 0.0;
                  b_limit =
                    (match cfg.slo.Slo.min_ops_per_sec with
                    | Some f -> f
                    | None -> 0.0);
                };
              punish t
            end
          | Some ws ->
            let breaches =
              Slo.evaluate cfg.slo ~p999_ns:ws.Tenant.ws_p999_ns
                ~error_rate:ws.Tenant.ws_error_rate
                ~ops_per_sec:ws.Tenant.ws_ops_per_sec
            in
            if breaches = [] then begin
              Tenant.set_breach_streak t 0;
              if Tenant.state t <> Tenant.Healthy then begin
                Tenant.set_state t Tenant.Healthy;
                Tenant.record_state t Tenant.Healthy
              end;
              (* the ladder's return direction: [upshift_after]
                 consecutive clean windows earn a climb back toward the
                 tenant's original assignment (repartition emits the
                 [Tenant_backend] recorder event) *)
              let id = Tenant.id t in
              clean_windows.(id) <- clean_windows.(id) + 1;
              match cfg.policy with
              | Some spec
                when cfg.upshift_after > 0
                     && clean_windows.(id) >= cfg.upshift_after -> (
                match
                  Policy.upshift spec ~current:(Tenant.backend t)
                    ~ceiling:backends.(id)
                with
                | Some backend ->
                  upshifts := (id, Backend.name backend) :: !upshifts;
                  Tenant.repartition t ~backend;
                  clean_windows.(id) <- 0
                | None -> ())
              | _ -> ()
            end
            else begin
              List.iter (Tenant.record_breach t) breaches;
              punish t
            end)
      tenants;
    Array.iter
      (fun t ->
        last_ops.(Tenant.id t) <- Tenant.ops t;
        last_shed.(Tenant.id t) <- Tenant.shed t)
      tenants;
    match progress with
    | Some f when cfg.report_every > 0 && (tick + 1) mod cfg.report_every = 0 ->
      let ops = Array.fold_left (fun a t -> a + Tenant.ops t) 0 tenants in
      let errors = Array.fold_left (fun a t -> a + Tenant.errors t) 0 tenants in
      let breaches = Array.fold_left (fun a t -> a + Tenant.breaches t) 0 tenants in
      let quar =
        Array.fold_left
          (fun a t -> if Tenant.state t = Tenant.Quarantined then a + 1 else a)
          0 tenants
      in
      f
        (Printf.sprintf "tick %*d/%d  ops=%-7d err=%-4d breach=%-3d quarantined=%d"
           (String.length (string_of_int cfg.ticks))
           (tick + 1) cfg.ticks ops errors breaches quar)
    | _ -> ()
  done;
  let summaries = Array.to_list (Array.map summarize tenants) in
  let latency =
    Array.fold_left
      (fun acc t -> T.Latency.merge_as "global" acc (Tenant.latency t))
      (T.Latency.create "global") tenants
  in
  {
    o_tenants = summaries;
    o_latency = latency;
    o_ops = List.fold_left (fun a s -> a + s.s_ops) 0 summaries;
    o_errors = List.fold_left (fun a s -> a + s.s_errors) 0 summaries;
    o_shed = List.fold_left (fun a s -> a + s.s_shed) 0 summaries;
    o_breaches = List.fold_left (fun a s -> a + s.s_breaches) 0 summaries;
    o_quarantined =
      List.fold_left
        (fun a s -> if s.s_state = Tenant.Quarantined then a + 1 else a)
        0 summaries;
    o_ops_per_sec = List.fold_left (fun a s -> a +. s.s_ops_per_sec) 0.0 summaries;
    o_chaos = !chaos_note;
    o_faults = List.rev !faults;
    o_downshifts = List.rev !downshifts;
    o_upshifts = List.rev !upshifts;
    o_dumps = List.rev !dumps;
    o_recorders =
      Array.to_list (Array.map (fun t -> (Tenant.id t, Tenant.dump t)) tenants);
  }

let healthy o = o.o_breaches = 0 && o.o_faults = [] && o.o_quarantined = 0

let render_summary o =
  let fns v = Printf.sprintf "%.0f" v in
  let row s =
    [
      Printf.sprintf "tenant-%d" s.s_id;
      Backend.name s.s_backend;
      Tenant.state_name s.s_state;
      string_of_int s.s_ops;
      string_of_int s.s_errors;
      string_of_int s.s_shed;
      string_of_int s.s_breaches;
      fns s.s_p50;
      fns s.s_p99;
      fns s.s_p999;
      fns s.s_ops_per_sec;
    ]
  in
  let global =
    [
      "global";
      "-";
      (if healthy o then "healthy" else "degraded");
      string_of_int o.o_ops;
      string_of_int o.o_errors;
      string_of_int o.o_shed;
      string_of_int o.o_breaches;
      fns (T.Latency.p50 o.o_latency);
      fns (T.Latency.p99 o.o_latency);
      fns (T.Latency.p999 o.o_latency);
      fns o.o_ops_per_sec;
    ]
  in
  let header =
    [
      "scope"; "backend"; "state"; "ops"; "err"; "shed"; "breach"; "p50";
      "p99"; "p999"; "ops/s";
    ]
  in
  Table.render ((header :: List.map row o.o_tenants) @ [ global ])

let service_rows o =
  let open T.Export in
  let global =
    {
      sv_scope = "global";
      sv_tenants = List.length o.o_tenants;
      sv_windows = List.fold_left (fun a s -> a + s.s_windows) 0 o.o_tenants;
      sv_ops = o.o_ops;
      sv_errors = o.o_errors;
      sv_breaches = o.o_breaches;
      sv_ops_per_sec = o.o_ops_per_sec;
      sv_latency_p50 = T.Latency.p50 o.o_latency;
      sv_latency_p99 = T.Latency.p99 o.o_latency;
      sv_latency_p999 = T.Latency.p999 o.o_latency;
    }
  in
  let tenant s =
    {
      sv_scope = Printf.sprintf "tenant-%d" s.s_id;
      sv_tenants = 1;
      sv_windows = s.s_windows;
      sv_ops = s.s_ops;
      sv_errors = s.s_errors;
      sv_breaches = s.s_breaches;
      sv_ops_per_sec = s.s_ops_per_sec;
      sv_latency_p50 = s.s_p50;
      sv_latency_p99 = s.s_p99;
      sv_latency_p999 = s.s_p999;
    }
  in
  global :: List.map tenant o.o_tenants
