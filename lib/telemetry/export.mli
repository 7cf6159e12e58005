(** Exporters: turn the in-memory telemetry (trace ring, counters,
    histograms, spans, bench rows) into NDJSON / JSON files, plus the
    line-by-line NDJSON checker the CI gate runs over every dump. *)

val ndjson_lines : (int * Event.t) list -> string list
(** One compact JSON object per event, in order. *)

val check_ndjson : ?lax:bool -> string -> (int, string) result
(** Validate a whole NDJSON document (empty lines allowed); returns the
    number of event lines or the first error, prefixed with its line
    number. A valid line is one JSON object with an ["ev"] string field
    and a non-negative ["seq"] int field — and, unless [lax] (default
    [false]), the ["ev"] value must be one of {!Event.all_names}: an
    unknown kind fails with a named [unknown event kind] error instead of
    being accepted silently. [lax] is the escape hatch for foreign dumps
    with event kinds this build does not know (the CLI exposes it as
    [--lax]). *)

(** {1 summary.json} *)

val summary_json :
  ?spans:Span.t list ->
  ?tools:(string * (string * int) list * Histogram.set) list ->
  unit ->
  string
(** Metrics snapshot: per-tool aggregated counters and histograms plus the
    completed spans. [tools] entries are (tool name, counters assoc,
    histogram set). Rows are keyed by tool name — duplicates are merged
    (counters summed, histograms merged) and the output is sorted by name,
    so the document is independent of registration order and stable when a
    backend is skipped. *)

(** {1 BENCH_giantsan.json} *)

type bench_profile = {
  bp_profile : string;
  bp_config : string;
  bp_sim_ns : float;  (** simulated ns for the whole profile run *)
  bp_ops : int;
  bp_shadow_loads : int;
  bp_shadow_stores : int;  (** metadata stores (poisoning traffic) *)
  bp_region_checks : int;
  bp_fast_checks : int;
  bp_slow_checks : int;
  bp_word_checks : int;
      (** fast checks settled by the word kernel (one 8-byte shadow load);
          a subdivision of [bp_fast_checks], exported with its own
          [word_path_ratio] *)
}

type service_row = {
  sv_scope : string;  (** ["global"] or ["tenant-N"] *)
  sv_tenants : int;
  sv_windows : int;  (** closed rate windows the row aggregates *)
  sv_ops : int;
  sv_errors : int;  (** sanitizer reports produced while serving *)
  sv_breaches : int;  (** SLO breach events *)
  sv_ops_per_sec : float;  (** sustained throughput over the run *)
  sv_latency_p50 : float;  (** ns, from the HDR latency histogram *)
  sv_latency_p99 : float;
  sv_latency_p999 : float;
}
(** One row of the [service] section: the sustained-traffic numbers the
    ROADMAP's service mode is measured by. *)

val bench_json :
  profiles:bench_profile list -> ?service:service_row list -> unit -> string
(** The BENCH_giantsan.json document ([giantsan-bench/v2]): the [schema]
    tag, per-profile simulated cost with ns/op, shadow loads and fast-path
    ratio, and — when [service] is non-empty — the sustained-traffic rows
    (latency percentiles + ops/sec). Every value derives from event counts,
    so the document is byte-identical across machines and [--jobs]. Schema
    documented in EXPERIMENTS.md. *)

val parse_bench_service : string -> (service_row list, string) result
(** Parse the [service] section back out of a BENCH_giantsan.json document
    ([Ok []] when the section is absent) — the export round-trip tests
    hold [bench_json]/[parse_bench_service] to a lossless loop. *)

(** {1 Performance regression gate}

    One engine evaluates a declarative rule table over the [profiles]
    sections of two BENCH_giantsan.json documents: the committed baseline
    and a fresh run. The sweep is deterministic (seeded scenarios, the
    event-count cost model), so event counts must reproduce exactly and
    [ns_per_op] may move only within a tolerance. *)

type gate_profile = {
  g_profile : string;
  g_config : string;
  g_ns_per_op : float;
  g_counts : (string * int) list;
      (** the fields the gate requires to match exactly: ops, shadow
          loads/stores, region/fast/slow/word check counts, in that order *)
}

(** Which pairs of rows a rule judges (left, right). *)
type selector =
  | Baseline_rows
      (** every baseline row against the current row with the same
          profile and config; a row on one side only is a violation *)
  | Pair of (string * string) * (string * string)
      (** two current-run rows, each named by (profile, config); a missing
          one is malformed input *)
  | Per_config of (string * string)
      (** per config, the current run's row on the first profile against
          its row on the second, for every config with a row on either; a
          config with only one is a violation *)

type rule = {
  name : string;
  select : selector;
  holds : gate_profile -> gate_profile -> bool;  (** left row, right row *)
  message : gate_profile -> gate_profile -> string;  (** when it fails *)
}

val gate_rules : rule list
(** The gate, in evaluation order: [count:FIELD] (exact equality with the
    baseline for each field of [g_counts]), [ns-regressed] and
    [ns-improved] (ns/op within ±25%), [fig11-word-path] and
    [fig11-vs-asan] (GiantSan's reverse row keeps ≥ 0.5 of its checks on
    the word path and is no slower than ASan's), [fuzzmode-counts] and
    [fuzzmode-not-slower] (per backend, persistent rows match rebuild
    counts and are no slower) and [fuzzmode-speedup] (≥ 5x on giantsan). *)

type gate_failure =
  | Malformed of string
      (** a document is not a bench JSON, or lacks rows a rule requires *)
  | Violations of string list  (** every failed rule, with its message *)

val check_bench :
  ?rules:rule list -> baseline:string -> current:string -> unit ->
  (int, gate_failure) result
(** Evaluate [rules] (default {!gate_rules}) over the two documents.
    Returns the number of distinct row pairs judged, or the failure. *)

val write_file : string -> string -> unit
(** [write_file path body] truncates and writes (with a trailing
    newline). *)
