(** Segment folding: building the folded-segment summary for an allocation
    (§4.1, Figure 5).

    For an object with [G] good segments, the j-th good segment gets folding
    degree [floor (log2 (G - j))] — the largest [x] such that the [2^x]
    segments starting at j are all good. Counted from the object's tail this
    yields the paper's pattern: one (0)-folded, two (1)-folded, four
    (2)-folded segments, and so on. Poisoning is linear in the number of
    segments, like ASan's. *)

val degree_at : good_segments:int -> int
(** [degree_at ~good_segments] is the folding degree of a segment followed
    by [good_segments - 1] further good segments (i.e. [floor (log2
    good_segments)], capped at [State_code.max_degree]).
    Requires [good_segments >= 1]. *)

val poison_good_run :
  Giantsan_shadow.Shadow_mem.t -> first_seg:int -> count:int -> unit
(** Write the folded codes for a run of [count] good segments starting at
    segment index [first_seg]. The degree sequence depends only on [count]
    (position [j] carries [degree_at (count - j)]) and is the suffix of one
    shared sequence, so the codes come from a memoized byte template
    (rebuilt per power-of-two bracket) and land in the shadow as a single
    batched blit — same bytes and same store count as one store per
    segment, without the per-segment loop. [Ref_kernel.poison_good_run]
    in the spec library is the per-position oracle it is tested against. *)

type fault =
  | Overstate_last of int
      (** the final segment of every good run claims this folding degree
          instead of 0, vouching for up to [8 * (2^d - 1)] bytes past the
          object's end — a silent detection-window shrink, never a false
          positive. [Overstate_last 1] reproduces the historical
          [misfold_for_testing] switch. *)

val set_fault : fault option -> unit
(** Arm (or with [None] disarm) the poison-kernel fault plan for the
    {e calling domain}. Domain-local on purpose: parallel chaos cells each
    arm their own fault without racing, and a worker's fault never leaks to
    its siblings. Exists solely so the differential fuzzer's self-tests and
    the chaos engine can prove a real folding bug would be caught; nothing
    else may arm it. *)

val current_fault : unit -> fault option

val with_fault : fault option -> (unit -> 'a) -> 'a
(** [with_fault f body] arms [f], runs [body], and restores the previous
    plan even on exceptions. *)

val poison_alloc :
  Giantsan_shadow.Shadow_mem.t -> Giantsan_memsim.Memobj.t -> unit
(** Shadow for a fresh allocation: left redzone, folded good segments,
    trailing partial segment, right redzone. *)

val poison_free :
  Giantsan_shadow.Shadow_mem.t -> Giantsan_memsim.Memobj.t -> unit

val poison_evict :
  Giantsan_shadow.Shadow_mem.t -> Giantsan_memsim.Memobj.t -> unit

val upper_bound : Giantsan_shadow.Shadow_mem.t -> addr:int -> int
(** Locate the exact end of the addressable run containing [addr] by
    skipping over folded segments (Figure 7): returns the first
    non-addressable address at or after [addr]. At most
    [ceil (log2 (n/8))] folded-segment hops plus the final partial segment.
    Counts its shadow loads. Returns [addr] itself when [addr]'s segment
    state proves nothing (error code at its segment). The result is clamped
    to the arena end ([8 * segments]): a fold near the tail whose jump
    lands past the shadow never yields a quasi-bound beyond the arena. *)

val lower_bound : Giantsan_shadow.Shadow_mem.t -> addr:int -> int
(** The §5.4 mitigation for reverse traversals: locate the start of the
    good-segment run ending at [addr] "by enumerating the folding degrees
    and checking whether corresponding folded segments exist". From the
    current run start [p], try jumps of [2^d] segments (largest first): a
    segment [p - 2^d] whose folding degree is at least [d] proves the whole
    gap good. Within one object's layout the jump degrees are always
    available, so the object base is found in O(log^2 n) shadow loads —
    done once before a reverse scan, it makes the scan metadata-free.
    Returns the lowest address [l] (8-aligned) such that every byte of
    [\[l, align8 addr)] is addressable. *)
