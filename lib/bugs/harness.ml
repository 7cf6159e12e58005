module Memsim = Giantsan_memsim

module Backend = Giantsan_policy.Backend

type tool = Giantsan_analysis.Instrument.mode =
  | Native
  | Asan
  | Asanmm
  | Lfp
  | Pac
  | Giantsan
  | Cache_only
  | Elim_only

let tool_name tool = (Backend.row tool).label

let all_tools = [ Giantsan; Asan; Asanmm; Lfp; Pac ]

let make_sanitizer ?(redzone = 16) ?(quarantine = 16 * 1024) tool =
  let config =
    { Memsim.Heap.arena_size = 32 * 1024; redzone; quarantine_budget = quarantine }
  in
  fst ((Backend.row tool).create_exposed config)

let detected ?redzone ?quarantine tool scenario =
  Scenario.run (make_sanitizer ?redzone ?quarantine tool) scenario

let count_detected ?redzone ?quarantine tool scenarios =
  List.fold_left
    (fun acc sc ->
      if detected ?redzone ?quarantine tool sc then acc + 1 else acc)
    0 scenarios

let false_positives ?redzone tool scenarios =
  List.fold_left
    (fun acc sc ->
      if (not sc.Scenario.sc_buggy) && detected ?redzone tool sc then acc + 1
      else acc)
    0 scenarios

let validate_corpus scenarios =
  List.filter_map
    (fun sc ->
      match Scenario.validate sc with Ok () -> None | Error e -> Some e)
    scenarios
