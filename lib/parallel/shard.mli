(** Shard = one task plus the sanitizer state it privately owns.

    The engine's safety story is ownership, not locking: a shard constructs
    its own [Arena]/[Shadow_mem]/sanitizer inside its task thunk and never
    lets them escape, and its telemetry goes to the running domain's private
    ring ({!Giantsan_telemetry.Trace} is domain-local, and [with_capture]
    swaps in a fresh ring per shard, so two shards that happen to run
    consecutively on the same worker domain cannot see each other's
    events either).

    What crosses domains is only the immutable result and the captured
    event list, both published by the pool's end-of-batch hand-off. *)

type 'a traced = {
  t_result : 'a;
  t_events : (int * Giantsan_telemetry.Event.t) list;
      (** the shard's private trace, sequence numbers starting at 0 *)
}

val run_traced :
  ?capacity:int -> jobs:int -> (unit -> 'a) array -> 'a traced array
(** Run every task under {!Pool.run} with a per-shard trace capture
    ([capacity] as in [Trace.enable]). Results come back in task order;
    feed the event lists to {!Merge.resequence} to obtain the canonical
    merged trace. *)
