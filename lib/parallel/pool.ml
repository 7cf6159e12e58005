module Trace = Giantsan_telemetry.Trace

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* One batch of tasks, type-erased so that a pool of any result type can
   hand it to its helpers: [exec i] runs task [i] and records its result or
   its exception (setting [poisoned] on a failure). *)
type batch = {
  n : int;
  next : int Atomic.t;
  poisoned : bool Atomic.t;
  exec : int -> unit;
}

let no_batch =
  { n = 0; next = Atomic.make 0; poisoned = Atomic.make false; exec = ignore }

(* The one claim loop, run by the caller and by every helper. Claims are a
   single [fetch_and_add]; once [poisoned] is set no new task is claimed,
   but a claimed task always runs to completion (its slot is always
   written). *)
let rec drain b =
  if not (Atomic.get b.poisoned) then begin
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.exec i;
      drain b
    end
  end

(* The mutable fields are guarded by [mutex]: the current batch, a counter
   that names it, how many helpers have not finished it yet, and the
   shutdown flag. Helpers sleep on [wake] between batches; the caller
   sleeps on [idle] until the last helper is done. *)
type t = {
  helpers : int;
  mutex : Mutex.t;
  wake : Condition.t;
  idle : Condition.t;
  mutable batch : batch;
  mutable epoch : int;
  mutable busy : int;
  mutable closed : bool;
}

let helper p () =
  let rec await seen =
    Mutex.lock p.mutex;
    while p.epoch = seen && not p.closed do
      Condition.wait p.wake p.mutex
    done;
    if p.closed then Mutex.unlock p.mutex
    else begin
      let epoch = p.epoch and b = p.batch in
      Mutex.unlock p.mutex;
      drain b;
      Mutex.lock p.mutex;
      p.busy <- p.busy - 1;
      if p.busy = 0 then Condition.signal p.idle;
      Mutex.unlock p.mutex;
      await epoch
    end
  in
  await 0

let with_pool ~jobs f =
  let p =
    {
      helpers = max 1 jobs - 1;
      mutex = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      batch = no_batch;
      epoch = 0;
      busy = 0;
      closed = false;
    }
  in
  let spawned = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect p.mutex (fun () ->
          p.closed <- true;
          Condition.broadcast p.wake);
      List.iter Domain.join !spawned)
    (fun () ->
      for _ = 1 to p.helpers do
        spawned := Domain.spawn (helper p) :: !spawned
      done;
      f p)

let run_in p tasks =
  if p.closed then invalid_arg "Pool.run_in: pool already closed";
  let n = Array.length tasks in
  if p.helpers = 0 || n <= 1 then
    (* inline serial reference: same claiming order, no helpers; an
       exception propagates immediately, so later tasks never start — the
       behaviour the poison flag mirrors in the parallel path *)
    Array.map (fun task -> task ()) tasks
  else begin
    (* one slot per task, written exactly once by the claiming domain; the
       mutex hand-off at the end of the batch publishes the helpers' writes
       to the caller *)
    let slots = Array.make n None in
    let poisoned = Atomic.make false in
    let exec i =
      match tasks.(i) () with
      | r -> slots.(i) <- Some (Ok r)
      | exception e ->
        slots.(i) <- Some (Error e);
        Atomic.set poisoned true
    in
    let b = { n; next = Atomic.make 0; poisoned; exec } in
    Mutex.protect p.mutex (fun () ->
        p.batch <- b;
        p.epoch <- p.epoch + 1;
        p.busy <- p.helpers;
        Condition.broadcast p.wake);
    (* a helper's trace switch is off, so the caller turns its own off
       while it runs tasks: what a task traces must not depend on which
       domain claimed it *)
    Trace.paused (fun () -> drain b);
    Mutex.protect p.mutex (fun () ->
        while p.busy > 0 do
          Condition.wait p.idle p.mutex
        done;
        (* drop the batch so parked helpers keep no task or result alive *)
        p.batch <- no_batch);
    (* Claims are monotone, so unclaimed (None) slots form a suffix and
       exist only once poison is set — i.e. only after some claimed slot
       holds an Error at a strictly lower index. The lowest-indexed
       failing task is always claimed (everything below a claimed index
       is claimed first), so scanning in order re-raises its exception
       deterministically, for any schedule and any pool size. *)
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> assert false)
      slots
  end

let run ~jobs tasks =
  with_pool ~jobs:(min jobs (Array.length tasks)) (fun p -> run_in p tasks)

let map ~jobs f xs =
  Array.to_list (run ~jobs (Array.map (fun x () -> f x) (Array.of_list xs)))
