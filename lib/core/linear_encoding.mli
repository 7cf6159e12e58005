(** Design-space ablation: capped run-length shadow encoding.

    Binary folding spends 6 bits on a logarithm, covering up to [8 * 2^63]
    bytes per shadow byte. The obvious alternative with the same bit budget
    stores the run length itself: [m\[p\] = min(63, good segments from p)].
    Checks then hop runs — O(N / 63) loads for an N-segment region instead
    of folding's O(1) — and the cap cannot be raised without stealing code
    space from the partial/error states. This module implements that
    alternative so the repository can measure the paper's design choice
    instead of just asserting it (see the [ablation-encoding] experiment).

    Code layout (mirrors {!State_code}'s monotone style):
    - [1..63]: this and the next [v - 1] segments are good;
    - [72 - k] ([65..71]): k-partial;
    - [> 72]: error codes (shared with {!State_code}). *)

val max_run : int
(** 63. *)

val poison_good_run :
  Giantsan_shadow.Shadow_mem.t -> first_seg:int -> count:int -> unit
(** Write the run-length codes for [count] good segments starting at
    [first_seg]: [min (max_run, remaining)] at each position, descending
    to 1 at the run's end. *)

val check : Giantsan_shadow.Shadow_mem.t -> l:int -> r:int -> bool
(** Region check by run hopping; [l] 8-aligned. True = safe. *)
