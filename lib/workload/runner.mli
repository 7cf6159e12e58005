(** Execute workload profiles under every sanitizer configuration and
    collapse the event counts through the cost model. This is the engine
    behind Table 2 and Figure 10. *)

type config = Giantsan_analysis.Instrument.mode =
  | Native
  | Asan
  | Asanmm
  | Lfp
  | Pac
  | Giantsan
  | Cache_only
  | Elim_only
      (** The configurations of {!Giantsan_policy.Backend}'s registry,
          re-exported with their constructors. *)

val config_name : config -> string
(** The registry row's label, used in Table 2 columns, reports and the
    bench JSON (["Native"], ["ASan--"], ["CacheOnly"], ...). *)

val all_configs : config list
(** Native first, then the sanitizers, the two ablations, and PAC last —
    what [table2], [sweep] and the bench profile sweep run. *)

val make_sanitizer :
  ?heap:Giantsan_memsim.Heap.config -> config -> Giantsan_sanitizer.Sanitizer.t
(** The registry row's constructor. [heap] defaults to an 8 MiB arena with
    the paper's redzone/quarantine settings. *)

val instrument_mode : config -> Giantsan_analysis.Instrument.mode
(** How the static pipeline lowers checks for this configuration — the
    configuration itself, since {!config} is {!Giantsan_analysis.Instrument.mode}
    (e.g. [Elim_only] keeps elimination/promotion but never emits cached
    accesses). *)

type status =
  | Completed
  | Compile_error  (** the tool cannot build the project (LFP, Table 2) *)
  | Runtime_error

type result = {
  r_profile : string;
  r_config : config;
  r_status : status;
  r_ops : int;
  r_shadow_loads : int;
  r_shadow_stores : int;  (** metadata stores (poisoning traffic) *)
  r_counters : Giantsan_sanitizer.Counters.t;
  r_stats : Giantsan_analysis.Interp.exec_stats option;
  r_sim_ns : float;  (** simulated time; [nan] when not Completed *)
  r_reports : int;
}

val run_one :
  ?heap:Giantsan_memsim.Heap.config -> Specgen.profile -> config -> result
(** Execute one (profile, configuration) cell: build a fresh private
    sanitizer via {!make_sanitizer}, generate the profile's program,
    instrument and interpret it, and fold the event counts through the
    cost model. Deterministic — same inputs, bit-identical [result] —
    and self-contained, so cells may run on concurrent domains
    ({!Giantsan_parallel.Sweep}). *)

val run_profile : ?configs:config list -> Specgen.profile -> result list
(** [run_one] for each configuration ([all_configs] by default), in
    order. *)

val overhead_pct : native:float -> sanitized:float -> float
(** Percent slowdown relative to native, Table 2's headline number:
    [(sanitized / native - 1) * 100]. *)
