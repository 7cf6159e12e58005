let default_capacity = 65536

(* One sink per domain (Domain.DLS): each worker domain spawned by the
   parallel engine gets its own switch + ring, so runtimes may emit from any
   domain without synchronisation and one shard's capture can never observe
   another shard's events. A freshly spawned domain starts with tracing off,
   which also keeps the disabled fast path allocation-free there. *)
type sink = {
  mutable on : bool;
  mutable buf : Event.t Ring.t;
  mutable exit_hooked : bool;
}

let sink_key =
  (* the placeholder ring is never pushed to while [on] is false; [enable]
     installs a real one *)
  Domain.DLS.new_key (fun () ->
      { on = false; buf = Ring.create ~capacity:1; exit_hooked = false })

let sink () = Domain.DLS.get sink_key

(* Process-wide gate: how many domains currently have their switch on.
   Every flip of a sink's [on] goes through [set_on], so the count stays
   exact; a domain that exits while tracing is taken off by the [at_exit]
   hook [enable]/[with_capture] install. While the count is 0 — the normal,
   untraced state — [live_sink] answers with a shared always-off sink after
   one atomic load, skipping the DLS lookup altogether. *)
let active = Atomic.make 0
let off_sink = { on = false; buf = Ring.create ~capacity:1; exit_hooked = true }

let[@inline] live_sink () =
  if Atomic.get active = 0 then off_sink else Domain.DLS.get sink_key

let set_on s v =
  if s.on <> v then begin
    s.on <- v;
    if v then Atomic.incr active else Atomic.decr active
  end

let turn_on s =
  if not s.exit_hooked then begin
    s.exit_hooked <- true;
    Domain.at_exit (fun () -> set_on s false)
  end;
  set_on s true

let active_domains () = Atomic.get active
let is_on () = (live_sink ()).on

let enable ?(capacity = default_capacity) () =
  let s = sink () in
  s.buf <- Ring.create ~capacity;
  turn_on s

let disable () = set_on (sink ()) false
let clear () = Ring.clear (sink ()).buf
let events () = Ring.to_seq_list (sink ()).buf
let emitted () = Ring.pushed (sink ()).buf
let dropped () = Ring.dropped (sink ()).buf

let with_capture ?(capacity = default_capacity) f =
  let s = sink () in
  let saved_on = s.on and saved_buf = s.buf in
  s.buf <- Ring.create ~capacity;
  turn_on s;
  Fun.protect
    ~finally:(fun () ->
      set_on s saved_on;
      s.buf <- saved_buf)
    (fun () ->
      let r = f () in
      (r, Ring.to_seq_list s.buf))

let paused f =
  let s = live_sink () in
  if not s.on then f ()
  else begin
    set_on s false;
    Fun.protect ~finally:(fun () -> set_on s true) f
  end

(* Each emitter checks the switch before constructing the event, so the
   disabled path performs no allocation; with no domain tracing it is one
   atomic load and a branch. *)

let emit_malloc ~tool ~base ~size ~kind =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Malloc { tool; base; size; kind })

let emit_free ~tool ~addr =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Free { tool; addr })

let emit_access ~tool ~addr ~width ~fast =
  let s = live_sink () in
  if s.on then
    Ring.push s.buf
      (Event.Access
         { tool; addr; width; path = (if fast then Event.Fast else Event.Slow) })

let emit_shadow_load ~tool ~count =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Shadow_load { tool; count })

let emit_cache_hit ~tool ~off =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Cache_hit { tool; off })

let emit_cache_update ~tool ~ub =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Cache_update { tool; ub })

let emit_region_check ~tool ~lo ~hi ~fast ~loads =
  let s = live_sink () in
  if s.on then
    Ring.push s.buf
      (Event.Region_check
         {
           tool; lo; hi;
           path = (if fast then Event.Fast else Event.Slow);
           loads;
         })

let emit_report ~tool ~kind ~addr =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Report { tool; kind; addr })

let emit_phase_begin ~name =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Phase_begin { name })

let emit_phase_end ~name =
  let s = live_sink () in
  if s.on then Ring.push s.buf (Event.Phase_end { name })
