(** The event sink: one bounded ring {e per domain} the runtimes emit into.
    Disabled by default, and the disabled path is a no-op that allocates
    nothing — the [emit_*] entry points take their payloads as immediate
    arguments and only build the event value once the switch has been
    checked, so an instrumented hot loop pays a load-and-branch when tracing
    is off (verified by the zero-allocation test).

    The same switch gates histogram observation in the runtimes: when
    [is_on] is false the sanitizers run exactly the pre-telemetry code
    paths.

    {b Concurrency.} The sink lives in domain-local storage
    ([Domain.DLS]): every function below reads and mutates only the calling
    domain's switch and ring. A freshly spawned domain starts with tracing
    off, so worker domains emit nothing until they opt in, and a pool's
    calling domain runs its share of tasks under [paused] — the parallel
    engine ({!Giantsan_parallel.Shard}) wraps each shard in [with_capture]
    to give it a private ring, and merges the captured event lists
    deterministically afterwards. Apart from the atomic gate below, nothing
    here is shared across domains, so no locking is needed.

    {b The process-wide gate.} One atomic counter, shared by all domains,
    holds how many domains have their switch on. [is_on] and every
    [emit_*] read it first and only look up the calling domain's sink when
    it is non-zero, so with tracing off everywhere a disabled check or emit
    costs one atomic load: no DLS lookup, no allocation. [enable],
    [disable] and [with_capture] (on its exception path too) keep the count
    exact, and a domain that exits with its switch on is counted out. *)

val is_on : unit -> bool

val active_domains : unit -> int
(** Domains whose switch is currently on (the gate [is_on] reads first). *)

val enable : ?capacity:int -> unit -> unit
(** Turn the sink on with a fresh ring ([capacity] defaults to 65536
    events; older events are overwritten past that). *)

val disable : unit -> unit
val clear : unit -> unit

val events : unit -> (int * Event.t) list
(** Retained events of the calling domain's sink, oldest first, each with
    its per-sink sequence number. *)

val emitted : unit -> int
(** Total events emitted since [enable]/[clear] (monotonic through
    wraparound). *)

val dropped : unit -> int

val with_capture : ?capacity:int -> (unit -> 'a) -> 'a * (int * Event.t) list
(** Run the thunk with tracing on in a private fresh ring, restoring the
    previous sink state afterwards (even on exceptions), and return the
    thunk's result with the captured events. Per-domain, like everything
    else here: captures on different domains never interleave. *)

val paused : (unit -> 'a) -> 'a
(** Run the thunk with the calling domain's switch off, and turn it back
    on afterwards (even on exceptions) if it was on: nothing the thunk
    emits is recorded, and the ring keeps what it held. With the switch
    already off this is just the call. *)

(** {1 Emission points} — free functions so call sites stay one line. *)

val emit_malloc : tool:string -> base:int -> size:int -> kind:string -> unit
val emit_free : tool:string -> addr:int -> unit
val emit_access : tool:string -> addr:int -> width:int -> fast:bool -> unit
val emit_shadow_load : tool:string -> count:int -> unit
val emit_cache_hit : tool:string -> off:int -> unit
val emit_cache_update : tool:string -> ub:int -> unit

val emit_region_check :
  tool:string -> lo:int -> hi:int -> fast:bool -> loads:int -> unit

val emit_report : tool:string -> kind:string -> addr:int -> unit
val emit_phase_begin : name:string -> unit
val emit_phase_end : name:string -> unit
