(* Shared machinery: the clock, seeds, the backend rotation, sample
   statistics and the per-run accumulator every workload fills. *)

module Backend = Giantsan_policy.Backend

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The five backends in report order. Rounds rotate which one goes first
   so that no backend always runs on a cold cache or right after a GC. *)
let backends = [| Backend.Native; Backend.Giantsan; Backend.Asan; Backend.Pac; Backend.Lfp |]

let n_backends = Array.length backends
let native_ix = 0
let giantsan_ix = 1
let asan_ix = 2
let lfp_ix = 4
let backend_name ix = Backend.name backends.(ix)
let rotation round = Array.init n_backends (fun i -> (round + i) mod n_backends)

(* Derive an independent 30-bit seed for one input stream from the
   benchmark seed. *)
let mix seed salt =
  Giantsan_util.Rng.int (Giantsan_util.Rng.create ((seed * 1_000_003) + salt)) (1 lsl 30)

(* Growable float buffer for timings. It lives outside the OCaml heap, so
   that the samples a run logs, which grow with the number of rounds and
   so with the program's speed, do not count in [peak_heap_mb]. *)
module Samples = struct
  module A = Bigarray.Array1

  type t = { mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t; mutable n : int }

  let create () = { a = A.create Bigarray.float64 Bigarray.c_layout 64; n = 0 }

  let add t x =
    if t.n = A.dim t.a then begin
      let b = A.create Bigarray.float64 Bigarray.c_layout (2 * t.n) in
      A.blit t.a (A.sub b 0 t.n);
      t.a <- b
    end;
    A.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let get t i = A.get t.a i
  let to_array t = Array.init t.n (A.get t.a)
end

(* numpy-linear quantile of an unsorted array. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

(* What one measured run produced. Every timed unit is logged with the
   input it ran ([key]: a kernel, a program, a scenario, a service tick)
   and the backend that ran it, or [matrix] for a pass through the whole
   backend matrix at once (the fuzz workload's [Exec.run]). *)
type acc = {
  single_domain : bool;  (** see [input_time] and [for_budget] *)
  log_slot : Samples.t;  (** [key * slots + backend], one per timed unit *)
  log_ns : Samples.t;
  work : (int, int) Hashtbl.t;  (** slot -> units of work of one run *)
  lat : (int, Samples.t) Hashtbl.t;  (** input -> times of one GiantSan unit *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let matrix = n_backends
let slots = n_backends + 1

let new_acc ~single_domain () =
  {
    single_domain;
    log_slot = Samples.create ();
    log_ns = Samples.create ();
    work = Hashtbl.create 1024;
    lat = Hashtbl.create 1024;
    attempted = 0;
    failed = 0;
    first_failure = None;
  }

(* Log one timed unit: [units] of work on input [key] under backend [ix]
   (or [matrix]) took [ns]. *)
let charge acc ix ~key ~units ~ns =
  let slot = (key * slots) + ix in
  Hashtbl.replace acc.work slot units;
  Samples.add acc.log_slot (float_of_int slot);
  Samples.add acc.log_ns (float_of_int ns)

(* Log one GiantSan unit of latency on input [key]. *)
let sample_latency acc ~key ns =
  let xs =
    match Hashtbl.find_opt acc.lat key with
    | Some xs -> xs
    | None ->
      let xs = Samples.create () in
      Hashtbl.replace acc.lat key xs;
      xs
  in
  Samples.add xs (float_of_int ns)

(* One output check: every unit is attempted once and fails at most once. *)
let check acc ok describe =
  acc.attempted <- acc.attempted + 1;
  if not ok then begin
    acc.failed <- acc.failed + 1;
    if acc.first_failure = None then acc.first_failure <- Some (describe ())
  end

(* An input's time. For a single-domain workload it is the 10th
   percentile of the input's raw wall times over the run. On the shared
   2-vCPU VM this was written on, the speed of either CPU flips between
   two states every few hundred milliseconds to a few seconds: a 30 s
   trace of [traversal], cut into 250 ms slices, had the slices' median
   unit at 0.7-0.8 of the run's median in the fast state and 1.0-1.1 in
   the slow one, and the share of fast slices varied from run to run, so
   that a median moved with it by up to a third. Such a workload's units
   (microseconds to milliseconds) each run in one state; the fast state is
   the code's speed with its core to itself, a low percentile stays in it
   as long as a tenth of the samples do, and a change to the code moves it
   in full. A [serve] tick runs on both CPUs, and each tick of a run is
   met only about a dozen times per backend, too few for a low percentile
   to be steady: there an input's time is its median. *)
let input_time acc ts = quantile ts (if acc.single_domain then 0.1 else 0.5)

(* Units per second of backend [ix], or of [matrix]: the work of one pass
   over all inputs divided by the sum of the inputs' times. Without a
   matrix call of its own, one unit run once under each backend counts as
   one matrix unit: the harmonic combination of the backend rates. *)
let rec rate acc ix =
  let times = Hashtbl.create 1024 in
  for i = 0 to acc.log_ns.Samples.n - 1 do
    let slot = int_of_float (Samples.get acc.log_slot i) in
    if slot mod slots = ix then
      Hashtbl.replace times slot (Samples.get acc.log_ns i :: (try Hashtbl.find times slot with Not_found -> []))
  done;
  if Hashtbl.length times = 0 && ix = matrix then
    1.0 /. List.fold_left (fun s b -> s +. (1.0 /. rate acc b)) 0.0 (List.init n_backends Fun.id)
  else
    let units, ns =
      Hashtbl.fold
        (fun slot ts (u, ns) -> (u + Hashtbl.find acc.work slot, ns +. input_time acc (Array.of_list ts)))
        times (0, 0.0)
    in
    float_of_int units /. (ns /. 1e9)

(* (p50, p99, samples, inputs) of one GiantSan unit, in nanoseconds: the
   quantiles of the inputs' times, over the inputs. *)
let latency acc =
  let times = Hashtbl.fold (fun _ xs l -> input_time acc (Samples.to_array xs) :: l) acc.lat [] in
  let xs = Array.of_list times in
  let samples = Hashtbl.fold (fun _ xs n -> n + xs.Samples.n) acc.lat 0 in
  (quantile xs 0.5, quantile xs 0.99, samples, Array.length xs)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_cpus : int array -> bool = "perfbench_set_cpus"

(* The CPUs this process may run on, read before any round pins it. *)
let cpus = allowed_cpus ()

(* Run [round] with increasing round numbers until [budget_ns] has passed;
   at least one round always runs. A single-domain workload's rounds run
   pinned to each CPU the process may use in turn, at least [slice_ns] on
   one before moving to the next: a process left to the scheduler can stay
   on one virtual CPU for a whole run, and on the VM this was written on
   one of the two at times ran 1.7x slower than the other for minutes. *)
let slice_ns = 250_000_000

let for_budget acc ~budget_ns round =
  let pinned = acc.single_domain && Array.length cpus > 1 in
  let start = now_ns () in
  let r = ref 0 and c = ref 0 and slice_end = ref (start + slice_ns) in
  if pinned then ignore (set_cpus [| cpus.(0) |]);
  while !r = 0 || now_ns () < start + budget_ns do
    round !r;
    incr r;
    if pinned && now_ns () >= !slice_end then begin
      c := (!c + 1) mod Array.length cpus;
      ignore (set_cpus [| cpus.(!c) |]);
      slice_end := now_ns () + slice_ns
    end
  done;
  if pinned then ignore (set_cpus cpus)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }
