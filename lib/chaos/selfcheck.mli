(** Shadow-vs-oracle self-check for the GiantSan encoding.

    The shadow a correct GiantSan runtime maintains is a {e pure function}
    of the heap's ground truth: every segment's code is determined by the
    owning object's kind, status and geometry (redzones, folded good run
    with degrees [degree_at (count - j)], trailing partial segment, freed
    codes over quarantined payloads, unallocated elsewhere — §4.1). This
    module recomputes that function from the oracle and compares it
    byte-for-byte against the live shadow. On a healthy run the result is
    empty after {e every} operation; any divergence is a corruption that no
    legal operation sequence can produce, which is what makes the chaos
    engine's corruption-always-flagged contract checkable. *)

type mismatch_class =
  | Overclaim
      (** the shadow claims more addressable/covered bytes than the truth:
          the dangerous direction — real violations can be missed *)
  | Underclaim
      (** the shadow claims fewer: false positives, availability loss *)
  | Drift
      (** same claims, wrong category (e.g. freed where redzone belongs) *)

val class_name : mismatch_class -> string

type mismatch = {
  seg : int;
  expected : int;
  actual : int;
  cls : mismatch_class;
}

val expected_code : Giantsan_memsim.Heap.t -> int -> int
(** The one code segment [seg] must carry given the heap's current ground
    truth. *)

val run :
  heap:Giantsan_memsim.Heap.t ->
  shadow:Giantsan_shadow.Shadow_mem.t ->
  mismatch list
(** Full-arena byte-exact audit, in segment order. Every segment is
    compared. The walk goes a shadow word (8 segments) at a time: a word
    with no owner whose shadow reads eight [unallocated] bytes passes on
    two in-place queries; any other word is compared lane by lane against
    {!Giantsan_spec.Model.code_in_object}, one owner fetch per run of
    segments sharing an owner. The result equals comparing every segment
    [seg] with [expected_code heap seg]. Reads are uncounted so the audit
    never perturbs the event-count-derived cost model, and nothing is
    allocated unless a mismatch is found. Empty = shadow provably
    consistent with ground truth. *)

val mismatch_to_string : mismatch -> string
