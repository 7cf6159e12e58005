(** Byte-level ground truth about addressability.

    The oracle is the referee: property tests compare every sanitizer's
    verdicts against it, and the bug harness uses it to decide whether a
    synthetic access really was a violation. It is maintained by the heap,
    never consulted by sanitizers. *)

type byte_state =
  | Unallocated  (** never allocated, or recycled after quarantine *)
  | Addressable  (** inside a live object *)
  | Redzone  (** inside a redzone of a live or quarantined object *)
  | Freed  (** inside a quarantined (freed, not yet recycled) object *)

type t

val create : arena_size:int -> t
val state : t -> int -> byte_state
val set_range : t -> lo:int -> hi:int -> byte_state -> unit
(** Set bytes [lo, hi) to a state. *)

val range_addressable : t -> lo:int -> hi:int -> bool
(** Are all bytes of [lo, hi) addressable? [true] for an empty range. *)

val first_bad : t -> lo:int -> hi:int -> int option
(** Address of the first non-addressable byte in [lo, hi), if any. *)

val set_owner : t -> lo:int -> hi:int -> Memobj.t option -> unit
(** Record which object owns the 8-byte segments overlapping [lo, hi)
    (redzones included). *)

val owner : t -> int -> Memobj.t option
(** The object whose block covers [addr], if any. *)

val word_unowned : t -> int -> bool
(** [word_unowned t seg]: segments [seg, seg + 8) all lie in the arena and
    none has an owner — the 8-owner query of the shadow self-check's
    word-wide walk. Allocates nothing. *)

val owner_run_start : t -> lo:int -> int -> int
(** [owner_run_start t ~lo seg]: the lowest [s >= lo] such that segments
    [s, seg] all share segment [seg]'s owner slot (all unowned, or all
    owned by the same allocation) — so a caller fetches the owner once per
    run instead of once per segment. Requires [0 <= lo <= seg] and [seg]
    inside the arena. Allocates nothing. *)

val fold_owners : t -> ('a -> Memobj.t -> 'a) -> 'a -> 'a
(** Fold over every owner slot holding an object, segment order. An object
    spanning k segments is visited k times — callers dedupe by id (the heap
    snapshot does, to record each reachable object's status once). *)

type snapshot

val snapshot : t -> snapshot
(** Copy of the byte states and the owner map (fuzz-mode restore point). *)

val restore : t -> snapshot -> unit
(** Reinstate a snapshot. Must come from this oracle. *)
