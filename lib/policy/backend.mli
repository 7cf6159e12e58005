(** The backend registry: one row per sanitizer configuration of Table 2
    (plus PAC and the §5.2 ablations), holding every fact the rest of the
    repo needs about a configuration — its runtime, its names, its
    constructor and metadata plane, its fuzz coverage tag and, for the
    five runtimes, the overhead factor and detection scores the policy
    engine optimizes over. Runner, Harness, Fuzz, Policy and the bench
    read this one table; adding a backend means writing its runtime and
    adding one row. *)

type id = Giantsan | Asan | Lfp | Pac | Native
(** The five runtimes. ASan-- and the two ablations are rows that reuse
    the ASan or GiantSan runtime under another name. *)

type config = Giantsan_analysis.Instrument.mode
(** A configuration: one registry row. [Runner.config] and [Harness.tool]
    re-export this type with its constructors. *)

type detection_class =
  | Oob  (** spatial: heap/stack/global out-of-bounds *)
  | Uaf  (** temporal: use-after-free while quarantined *)
  | Uaf_realloc
      (** temporal, post-recycling: the freed memory already belongs to a
          new allocation — only the tagged-pointer scheme catches this *)
  | Double_free

val all_classes : detection_class list

val class_name : detection_class -> string
(** Spec name: "oob", "uaf", "uaf-realloc", "double-free". *)

val class_of_name : string -> detection_class option

(** The backend's metadata plane, exposed so the service tenant can plant
    faults into it and audit it. *)
type plane =
  | Shadow of Giantsan_shadow.Shadow_mem.t  (** GiantSan's folded shadow *)
  | Sigs of Giantsan_pac.Pac.t  (** PAC's signature table *)
  | Plain
      (** no injectable metadata plane here (ASan, ASan--, LFP, Native and
          the ablation rows) *)

type scores = {
  overhead : float;
      (** run-time overhead factor (1.0 = native), calibrated from the
          published SPEC geomeans the runtime models; the policy budget is
          expressed in this unit *)
  oob : int;  (** detection scores: 0 = blind, 1 = partial, 2 = full *)
  uaf : int;
  uaf_realloc : int;
  double_free : int;
}

type row = {
  config : config;
  runtime : id;  (** the runtime [create_exposed] builds *)
  name : string;  (** lowercase spec name: "giantsan", "asan--", ... *)
  label : string;
      (** Table 2 column and bench JSON [config]: "GiantSan", "ASan--",
          "CacheOnly", ... *)
  display : string;
      (** [Sanitizer.name] of what [create_exposed] builds (the reports'
          [detected_by]): the label, except "GiantSan-CacheOnly" and
          "GiantSan-ElimOnly" *)
  tag : string;  (** two-letter fuzz coverage tag *)
  create_exposed :
    ?pac_key:int ->
    Giantsan_memsim.Heap.config ->
    Giantsan_sanitizer.Sanitizer.t * plane;
      (** a fresh, fully private runtime (own heap, own metadata) plus its
          plane; [pac_key] seeds the PA key of the PAC row and is ignored
          by the others *)
  scores : scores option;  (** [Some] exactly for the five runtime rows *)
}

val rows : row list
(** The registry, one row per {!config} constructor: native, giantsan,
    asan, asan--, lfp, pac, cacheonly, elimonly. *)

val row : config -> row

val find : string -> row option
(** Look a row up by spec name (case-insensitive, trimmed). *)

val all : id list
(** The five runtimes in ascending-overhead order (ties in {!Policy} break
    toward the front of this list). *)

val name : id -> string
(** The runtime row's spec name: "giantsan", "asan", "lfp", "pac",
    "native". *)

val of_name : string -> id option
(** The runtime of a runtime row's spec name; [None] for the other rows. *)

val overhead : id -> float

val detection : id -> detection_class -> int
(** 0 = blind, 1 = partial, 2 = full. The DESIGN.md matrix, scored. *)

val create_exposed :
  ?pac_key:int ->
  id ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t * plane
(** The runtime row's constructor. The service plane derives one [pac_key]
    per tenant so a signature table forged under one tenant's key never
    authenticates under another's (defaults to
    {!Giantsan_pac.Pac.default_key}). *)

val create :
  ?pac_key:int ->
  id ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t
