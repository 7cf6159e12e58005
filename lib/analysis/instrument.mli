(** Check-instance generation (§4.4): turn a program into an instrumentation
    plan for a given tool.

    The pipeline mirrors Figure 8: first every access conceptually gets an
    instruction-level check, then static analysis upgrades or removes them:

    - {b aliased-check merging}: const-offset accesses off the same pointer
      in straight-line code become one span check — [p\[0\]] and [p\[1\]]
      collapse to [CI(p, p+16)] (GiantSan; ASan-- can only drop exact
      duplicates since its checks are instruction-level);
    - {b check-in-loop promotion}: a counted loop with an affine subscript
      and invariant bounds gets one preheader region check covering the
      whole footprint — the [CI(x, x+4N)] of Figure 8c (ASan-- can only
      hoist loop-invariant addresses);
    - {b history caching}: everything in a loop that cannot be promoted
      (unbounded loop, data-dependent subscript) is routed through the
      quasi-bound cache when the tool has one;
    - the rest stays a plain per-access check. *)

(** The sanitizer configurations of Table 2 plus the PAC backend and the
    §5.2 ablations. This is the one definition of the configuration set:
    [Giantsan_policy.Backend] holds one registry row per constructor
    (names, runtime, scores), and [Runner.config] and [Harness.tool]
    re-export it. *)
type mode =
  | Native  (** no checks (the overhead baseline) *)
  | Asan  (** instruction-level checks everywhere *)
  | Asanmm  (** ASan--: ASan minus statically redundant checks *)
  | Lfp
      (** pointer-derived bounds checks at every access; the plan passes the
          base pointer through (LFP needs to know which pointer the bounds
          derive from) but no static optimization applies *)
  | Pac
      (** tagged-pointer authentication at every access; like LFP the plan
          threads the base pointer through (the check authenticates the
          pointer's signing allocation) and no static optimization applies *)
  | Giantsan  (** merging + promotion + caching + anchors *)
  | Cache_only  (** ablation: GiantSan with caching, no merging/promotion *)
  | Elim_only  (** ablation: GiantSan with merging/promotion, no caching *)

val plan : mode -> Giantsan_ir.Ast.program -> Plan.t
