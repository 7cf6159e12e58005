module Memsim = Giantsan_memsim
module Shadow_mem = Giantsan_shadow.Shadow_mem
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

(* [report]'s anchor for an unanchored check *)
let no_anchor = min_int

let create_exposed_variant ~name ~use_cache ~check_underflow config =
  let heap = Memsim.Heap.create config in
  let m = Shadow_mem.of_heap heap ~fill:State_code.unallocated in
  Memsim.Heap.set_evict_hook heap (Folding.poison_evict m);
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  (* quarantine-residency bookkeeping (telemetry only): the free sequence
     number each block entered quarantine at, keyed by object id *)
  let quarantined_at : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* [anchor] is a plain int so the check path never boxes an option;
     [no_anchor] marks an unanchored check and the option is built here, on
     the report path only *)
  let report ~anchor ~addr ~size =
    counters.Counters.errors <- counters.Counters.errors + 1;
    let base = if anchor = no_anchor then None else Some anchor in
    let r =
      Report.make
        ~kind:(Report.classify_access heap ~addr ~base)
        ~addr ~size ~detected_by:name
    in
    Trace.emit_report ~tool:name ~kind:(Report.kind_name r.Report.kind) ~addr;
    Some r
  in
  let count_region outcome =
    counters.Counters.region_checks <- counters.Counters.region_checks + 1;
    match outcome with
    | Region_check.Safe_fast ->
      counters.Counters.fast_checks <- counters.Counters.fast_checks + 1
    | Region_check.Safe_word ->
      counters.Counters.fast_checks <- counters.Counters.fast_checks + 1;
      counters.Counters.word_checks <- counters.Counters.word_checks + 1
    | Region_check.Safe_slow | Region_check.Bad _ ->
      counters.Counters.slow_checks <- counters.Counters.slow_checks + 1
  in
  let ci ~anchor ~l ~r ~size =
    let traced = Trace.is_on () in
    let loads_before = if traced then Shadow_mem.loads m else 0 in
    let outcome = Region_check.check_unaligned m ~l ~r in
    count_region outcome;
    if traced then begin
      let loads = Shadow_mem.loads m - loads_before in
      Histogram.observe hists.Histogram.h_loads_per_check loads;
      Trace.emit_region_check ~tool:name ~lo:l ~hi:r
        ~fast:
          (match outcome with
          | Region_check.Safe_fast | Region_check.Safe_word -> true
          | Region_check.Safe_slow | Region_check.Bad _ -> false)
        ~loads;
      if loads > 0 then Trace.emit_shadow_load ~tool:name ~count:loads
    end;
    match outcome with
    | Region_check.Safe_fast | Region_check.Safe_slow | Region_check.Safe_word
      ->
      None
    | Region_check.Bad addr -> report ~anchor ~addr ~size
  in
  let malloc ?kind size =
    counters.Counters.mallocs <- counters.Counters.mallocs + 1;
    let obj = Memsim.Heap.malloc heap ?kind size in
    Folding.poison_alloc m obj;
    counters.Counters.poison_segments <-
      counters.Counters.poison_segments + (obj.Memsim.Memobj.block_len / 8);
    if Trace.is_on () then begin
      Trace.emit_malloc ~tool:name ~base:obj.Memsim.Memobj.base ~size
        ~kind:(Memsim.Memobj.kind_name obj.Memsim.Memobj.kind);
      Histogram.observe hists.Histogram.h_fold_degree
        (if size >= 8 then Folding.degree_at ~good_segments:(size / 8) else 0)
    end;
    obj
  in
  let free ptr =
    counters.Counters.frees <- counters.Counters.frees + 1;
    Trace.emit_free ~tool:name ~addr:ptr;
    match Memsim.Heap.free heap ptr with
    | Ok { freed; evicted } ->
      Folding.poison_free m freed;
      List.iter (Folding.poison_evict m) evicted;
      if Trace.is_on () then begin
        let now = counters.Counters.frees in
        Hashtbl.replace quarantined_at freed.Memsim.Memobj.id now;
        List.iter
          (fun (o : Memsim.Memobj.t) ->
            match Hashtbl.find_opt quarantined_at o.Memsim.Memobj.id with
            | None -> ()
            | Some entered ->
              Hashtbl.remove quarantined_at o.Memsim.Memobj.id;
              Histogram.observe hists.Histogram.h_quarantine_residency
                (now - entered))
          evicted
      end;
      None
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
  (* Traced only: the access event follows the check's own events;
     [slow_before] is the slow-check count read before the check ran. *)
  let note_access ~addr ~width ~slow_before =
    Histogram.observe hists.Histogram.h_access_width width;
    Trace.emit_access ~tool:name ~addr ~width
      ~fast:(counters.Counters.slow_checks = slow_before)
  in
  let access ~base ~addr ~width =
    let slow_before = counters.Counters.slow_checks in
    let r =
      if base > 0 && addr >= base then
        (* anchor-based: protect everything between the anchor and the
           access *)
        ci ~anchor:base ~l:base ~r:(addr + width) ~size:width
      else if base > 0 && check_underflow then begin
        counters.Counters.underflow_checks <-
          counters.Counters.underflow_checks + 1;
        match ci ~anchor:base ~l:addr ~r:base ~size:width with
        | Some r -> Some r
        | None ->
          if addr + width > base then
            ci ~anchor:base ~l:base ~r:(addr + width) ~size:width
          else None
      end
      else
        (* no anchor (or underflow anchoring disabled, the §5.4 degraded
           mode): check only the accessed bytes *)
        ci ~anchor:no_anchor ~l:addr ~r:(addr + width) ~size:width
    in
    if Trace.is_on () then note_access ~addr ~width ~slow_before;
    r
  in
  let check_region ~lo ~hi = ci ~anchor:lo ~l:lo ~r:hi ~size:(hi - lo) in
  let cached_access (cache : San.cache) ~off ~width =
    let base = cache.San.cache_base in
    let addr = base + off in
    if use_cache && (off >= 0 || check_underflow) then begin
      let slow_before = counters.Counters.slow_checks in
      let outcome = Quasi_bound.access m counters cache ~off ~width in
      let r =
        match outcome with
        | Quasi_bound.Ok_cached | Quasi_bound.Ok_checked -> None
        | Quasi_bound.Bad addr -> report ~anchor:base ~addr ~size:width
      in
      if Trace.is_on () then begin
        (match outcome with
        | Quasi_bound.Ok_cached -> Trace.emit_cache_hit ~tool:name ~off
        | Quasi_bound.Ok_checked ->
          Trace.emit_cache_update ~tool:name ~ub:(San.cache_ub cache)
        | Quasi_bound.Bad _ -> ());
        note_access ~addr ~width ~slow_before
      end;
      r
    end
    else
      (* no caching, or a negative offset in the degraded §5.4 mode: the
         plain check, which for [addr < base] without underflow anchoring
         is the unanchored check of the accessed bytes *)
      access ~base ~addr ~width
  in
  let flush_cache cache =
    if not use_cache then None
    else
      match Quasi_bound.flush m counters cache with
      | None -> None
      | Some addr -> report ~anchor:cache.San.cache_base ~addr ~size:0
  in
  let snapshot, restore =
    San.snapshot_slot
      ~cap:(fun () ->
        ( Memsim.Heap.snapshot heap,
          Shadow_mem.snapshot m,
          San.counters_copy counters,
          Hashtbl.copy quarantined_at ))
      ~put:(fun (hs, ss, cs, qs) ->
        Memsim.Heap.restore heap hs;
        Shadow_mem.restore m ss;
        San.counters_restore counters cs;
        Hashtbl.reset quarantined_at;
        Hashtbl.iter (Hashtbl.add quarantined_at) qs)
  in
  let san =
    {
      San.name;
      heap;
      counters;
      hists;
      shadow_loads = (fun () -> Shadow_mem.loads m);
      shadow_stores = (fun () -> Shadow_mem.stores m);
      malloc;
      free;
      access;
      check_region;
      new_cache = (fun ~base -> San.new_cache ~base);
      cached_access;
      flush_cache;
      supports_operation_level = true;
      snapshot;
      restore;
    }
  in
  San.Registry.register san;
  (san, m)

let create_variant ~name ~use_cache ?(check_underflow = true) config =
  fst (create_exposed_variant ~name ~use_cache ~check_underflow config)

let create config = create_variant ~name:"GiantSan" ~use_cache:true config

let create_exposed config =
  create_exposed_variant ~name:"GiantSan" ~use_cache:true
    ~check_underflow:true config
