module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

let believed_end (obj : Memsim.Memobj.t) =
  obj.base + Size_class.round_up obj.size

let create config =
  let heap = Memsim.Heap.create config in
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  let name = "LFP" in
  let report ?base ~addr ~size () =
    counters.Counters.errors <- counters.Counters.errors + 1;
    let r =
      Report.make
        ~kind:(Report.classify_access heap ~addr ~base)
        ~addr ~size ~detected_by:name
    in
    Trace.emit_report ~tool:name ~kind:(Report.kind_name r.Report.kind) ~addr;
    Some r
  in
  let malloc ?kind size =
    counters.Counters.mallocs <- counters.Counters.mallocs + 1;
    (* The allocator hands out the class size so the slot really exists;
       the oracle still only marks the requested bytes addressable, which
       is exactly LFP's blind spot. *)
    let obj = Memsim.Heap.malloc heap ?kind size in
    Trace.emit_malloc ~tool:name ~base:obj.Memsim.Memobj.base ~size
      ~kind:(Memsim.Memobj.kind_name obj.Memsim.Memobj.kind);
    obj
  in
  let free ptr =
    counters.Counters.frees <- counters.Counters.frees + 1;
    Trace.emit_free ~tool:name ~addr:ptr;
    match Memsim.Heap.free heap ptr with
    | Ok _ -> None
    | Error err ->
      let r = San.free_error_report ~name ~addr:ptr err in
      (match r with
      | Some r ->
        counters.Counters.errors <- counters.Counters.errors + 1;
        Trace.emit_report ~tool:name
          ~kind:(Report.kind_name r.Report.kind)
          ~addr:ptr
      | None -> ());
      r
  in
  (* Bounds check against the slot of [anchor] (the pointer the bounds were
     derived from). *)
  let bounds_check ~anchor ~lo ~hi =
    counters.Counters.bounds_checks <- counters.Counters.bounds_checks + 1;
    if anchor < 64 then report ~addr:anchor ~size:(hi - lo) ()
    else
      match Memsim.Heap.find_object heap anchor with
      | None ->
        (* The pointer does not point into any slot LFP knows about: the
           derived bounds are garbage and real LFP performs no check. *)
        None
      | Some obj ->
        if
          obj.Memsim.Memobj.kind = Memsim.Memobj.Stack
          && obj.Memsim.Memobj.size < 1024
        then
          (* LFP's stack protection is incomplete: only allocas moved to
             its aligned regions (large arrays) carry derivable bounds.
             This is why Table 3 shows LFP catching a sliver of CWE-121. *)
          None
        else if obj.Memsim.Memobj.status <> Memsim.Memobj.Live then
          report ~base:obj.Memsim.Memobj.base ~addr:lo ~size:(hi - lo) ()
        else begin
          let b_lo = obj.Memsim.Memobj.base and b_hi = believed_end obj in
          if lo < b_lo || hi > b_hi then
            report ~base:obj.Memsim.Memobj.base
              ~addr:(if lo < b_lo then lo else b_hi)
              ~size:(hi - lo) ()
          else None
        end
  in
  let access ~base ~addr ~width =
    let anchor = if base > 0 then base else addr in
    let r = bounds_check ~anchor ~lo:addr ~hi:(addr + width) in
    (* LFP consults its per-slot bound table, never shadow: every check is
       a constant-time fast-path comparison *)
    if Trace.is_on () then begin
      Histogram.observe hists.Histogram.h_access_width width;
      Trace.emit_access ~tool:name ~addr ~width ~fast:true
    end;
    r
  in
  let check_region ~lo ~hi =
    if hi <= lo then None
    else begin
      let r = bounds_check ~anchor:lo ~lo ~hi in
      Trace.emit_region_check ~tool:name ~lo ~hi ~fast:true ~loads:0;
      r
    end
  in
  (* LFP keeps no metadata beyond the allocator's own object index, so the
     heap snapshot already carries its whole world. *)
  let snapshot, restore =
    San.snapshot_slot
      ~cap:(fun () ->
        (Memsim.Heap.snapshot heap, San.counters_copy counters))
      ~put:(fun (hs, cs) ->
        Memsim.Heap.restore heap hs;
        San.counters_restore counters cs)
  in
  let san = {
    San.name;
    heap;
    counters;
    hists;
    shadow_loads = (fun () -> 0);
    shadow_stores = (fun () -> 0);
    malloc;
    free;
    access;
    check_region;
    new_cache = (fun ~base -> San.new_cache ~base);
    cached_access =
      (fun cache ~off ~width ->
        access ~base:cache.San.cache_base
          ~addr:(cache.San.cache_base + off) ~width);
    flush_cache = (fun _ -> None);
    supports_operation_level = true;
    snapshot;
    restore;
  }
  in
  San.Registry.register san;
  san
