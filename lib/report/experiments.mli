(** Experiment drivers: one per table/figure in the paper's evaluation.

    Every driver runs its whole experiment (deterministically) and returns
    the rendered report as a string. The CLI in
    [bin/] exposes each one as a subcommand, and EXPERIMENTS.md records the
    paper-vs-measured comparison. *)

type outcome = {
  o_id : string;  (** "table2", "fig11", ... *)
  o_title : string;
  o_body : string;  (** rendered tables/notes *)
}

val table1 : unit -> outcome
(** Operation- vs instruction-level check counts on Table 1's four idioms. *)

val table2 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** SPEC-like overhead study incl. the ablation columns (§5.1, §5.2).
    [quick] runs 6 of the 24 profiles (for smoke tests). [jobs] shards the
    profile rows across a domain pool (default 1 = serial); the rendered
    table is byte-identical for every value. *)

val fig10 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Proportion of accesses per optimization category (§5.2). [jobs] as in
    {!table2}. *)

val table3 : unit -> outcome
(** Juliet-shaped detection study (§5.3). *)

val table4 : unit -> outcome
(** CVE scenario detection (§5.3). *)

val table5 : ?scale:int -> unit -> outcome
(** Magma-shaped redzone study (§5.3). [scale] divides the population
    sizes (default 1 = full size). *)

val fig11 : ?sizes_kb:int list -> ?reps:int -> unit -> outcome
(** Traversal-pattern timing study (§5.4): wall-clock milliseconds for
    Native / GiantSan / ASan on forward, random and reverse scans. *)

(** {2 Extension experiments}

    Not in the paper: ablations of design choices the paper asserts, so the
    repository can measure them. *)

val ablation_encoding : unit -> outcome
(** Shadow-encoding design space: metadata loads per region check under
    ASan's plain encoding, a capped run-length encoding, and binary
    folding, across region sizes. *)

val sweep_redzone : unit -> outcome
(** Detection of long-jump overflows as the redzone grows: the trade-off
    anchor-based checking dissolves (§4.4.1). *)

val sweep_quarantine : unit -> outcome
(** Use-after-free detection as allocation churn ages the freed block
    through quarantines of different budgets (§5.4's bypass window). *)

val compat : unit -> outcome
(** The §2.1 compatibility argument, measured: a SoftBound-flavoured
    pointer-based checker loses everything once a pointer is laundered
    through an integer; location-based GiantSan is unaffected. *)

val all_ids : string list
(** The paper's seven experiments. *)

val extra_ids : string list

val run : ?quick:bool -> ?jobs:int -> string -> outcome
(** Run one experiment by id (paper or extension). [jobs] parallelizes the
    experiments that shard cleanly (currently [table2] and [fig10]); the
    others ignore it. Raises [Invalid_argument] on unknown ids. *)
