(** Fixed-size domain pool over a lock-free task queue.

    The queue is the simplest structure that is linearizable and
    contention-free enough for our task shapes: a batch's tasks live in an
    immutable array and domains claim indices with a single
    [Atomic.fetch_and_add] — a Michael-Scott deque degenerates to exactly
    this when tasks are only pushed once, up front. Each result slot is
    written by the one domain that claimed its index, and the mutex
    hand-off that ends a batch publishes all slots to the caller.

    A pool of [jobs] domains is the calling domain plus [jobs - 1] helper
    domains, spawned once by {!with_pool} and parked on a condition
    variable between batches. In every batch the caller claims tasks too,
    from the same cursor as the helpers.

    Determinism contract: results come back in {e task order}, never in
    completion order, so callers observe the same value for any [jobs] —
    only wall-clock changes. Tasks must not share mutable sanitizer state;
    see the shard-ownership invariant in ARCHITECTURE.md. A helper's
    domain-local state ([Domain.DLS]: trace sink, folding fault plan,
    folding template) persists from one batch to the next, so a task must
    leave it as it found it. *)

type t
(** A live pool; valid only inside the {!with_pool} body that made it. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — what the CLI [--jobs]
    flags default to. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [max 1 jobs - 1] helper domains, runs [f]
    with the pool, and joins the helpers when [f] returns or raises. *)

val run_in : t -> (unit -> 'a) array -> 'a array
(** Run one batch on the pool and return the results in task order, once
    every helper has finished the batch.

    A batch of at most one task, or any batch on a one-domain pool, runs
    inline on the calling domain: the serial reference the determinism
    tests compare against. Otherwise the caller runs its share with its
    own trace switch off (see {!Giantsan_telemetry.Trace.paused}), as a
    helper's is, so a task never traces differently for the domain that
    claimed it. If a task raises, the batch is poisoned: tasks already
    claimed run to completion, but no new tasks are claimed, and the
    exception of the {e lowest-indexed} failing task is re-raised — the
    raised exception is independent of scheduling (the lowest failing
    index is always claimed before any later failure can poison the
    batch). The next batch starts clean.

    Call it only from the domain that called {!with_pool}, never from
    inside one of the pool's own tasks; raises [Invalid_argument] once
    the pool is closed. *)

val run : jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] is {!run_in} on a pool of [jobs] domains, clamped to
    [1 .. Array.length tasks], made for this one batch. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run] over [fun () -> f x], preserving list order. *)
