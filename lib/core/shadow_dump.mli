(** Human-readable shadow memory dumps, in the spirit of the shadow-byte
    legend ASan prints under its crash reports. Debugging aid for the
    simulator and the examples. *)

val around :
  Giantsan_shadow.Shadow_mem.t -> addr:int -> ?radius:int -> unit -> string
(** Render the segments surrounding [addr] ([radius] segments each side,
    default 4), one line per segment (e.g.
    ["seg   42 [336,344)  (3)-folded"]), marking the segment containing
    [addr] with an arrow. Does not count metadata loads (uses peeks). *)

val run_summary : Giantsan_shadow.Shadow_mem.t -> lo:int -> hi:int -> string
(** Compact run-length summary of a segment range, e.g.
    ["2x heap-redzone, 128x folded(<=7), 1x 4-partial, 2x heap-redzone"]. *)
