module Heap = Giantsan_memsim.Heap
module San = Giantsan_sanitizer.Sanitizer
module Instrument = Giantsan_analysis.Instrument
module Gs_runtime = Giantsan_core.Gs_runtime
module Asan_runtime = Giantsan_asan.Asan_runtime
module Pac_runtime = Giantsan_pac.Pac_runtime

type id = Giantsan | Asan | Lfp | Pac | Native
type config = Instrument.mode

type detection_class = Oob | Uaf | Uaf_realloc | Double_free

let all_classes = [ Oob; Uaf; Uaf_realloc; Double_free ]

let class_name = function
  | Oob -> "oob"
  | Uaf -> "uaf"
  | Uaf_realloc -> "uaf-realloc"
  | Double_free -> "double-free"

let class_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "oob" -> Some Oob
  | "uaf" -> Some Uaf
  | "uaf-realloc" -> Some Uaf_realloc
  | "double-free" -> Some Double_free
  | _ -> None

(* The per-backend metadata plane, for fault injection and audits: what a
   chaos fault can corrupt and what the tenant audit can sweep. *)
type plane =
  | Shadow of Giantsan_shadow.Shadow_mem.t
  | Sigs of Giantsan_pac.Pac.t
  | Plain

type scores = {
  overhead : float;
  oob : int;
  uaf : int;
  uaf_realloc : int;
  double_free : int;
}

type row = {
  config : config;
  runtime : id;
  name : string;
  label : string;
  display : string;
  tag : string;
  create_exposed : ?pac_key:int -> Heap.config -> San.t * plane;
  scores : scores option;
}

let plain create ?pac_key:_ heap = (create heap, Plain)

let scores overhead oob uaf uaf_realloc double_free =
  Some { overhead; oob; uaf; uaf_realloc; double_free }

(* Overheads (1.0 = uninstrumented) are calibrated from the published SPEC
   geomeans the backends model: GiantSan 1.46x (the paper's headline), ASan
   2.13x, LFP ~1.62x, PACSan ~1.58x. The policy engine only needs the
   ordering and rough spacing to be right; EXPERIMENTS.md records how the
   repo's own cost-model sweep compares.

   Detection scores (oob, uaf, uaf-realloc, double-free) are 0 = blind,
   1 = partial, 2 = full — the DESIGN.md matrix, each cell justified there
   with the code path that earns it. Only the tagged-pointer scheme
   survives use-after-free once the quarantine has recycled the memory
   (the stale tag fails authentication no matter who owns the bytes now);
   the shadow-based tools see plausible live shadow and LFP a plausible
   live slot. LFP's size-class rounding hides intra-slot overflows, and a
   freed slot is caught only until it is reused. *)
let rows =
  [
    { config = Instrument.Native; runtime = Native; name = "native";
      label = "Native"; display = "Native"; tag = "NA";
      create_exposed = plain Giantsan_sanitizer.Native.create;
      scores = scores 1.0 0 0 0 0 };
    { config = Instrument.Giantsan; runtime = Giantsan; name = "giantsan";
      label = "GiantSan"; display = "GiantSan"; tag = "GS";
      create_exposed =
        (fun ?pac_key:_ heap ->
          let san, shadow = Gs_runtime.create_exposed heap in
          (san, Shadow shadow));
      scores = scores 1.46 2 2 0 2 };
    { config = Instrument.Asan; runtime = Asan; name = "asan";
      label = "ASan"; display = "ASan"; tag = "AS";
      create_exposed = plain Asan_runtime.create;
      scores = scores 2.13 2 2 0 2 };
    (* the ASan runtime; only the instrumentation plan differs *)
    { config = Instrument.Asanmm; runtime = Asan; name = "asan--";
      label = "ASan--"; display = "ASan--"; tag = "AM";
      create_exposed = plain (Asan_runtime.create_named "ASan--");
      scores = None };
    { config = Instrument.Lfp; runtime = Lfp; name = "lfp";
      label = "LFP"; display = "LFP"; tag = "LF";
      create_exposed = plain Giantsan_lfp.Lfp_runtime.create;
      scores = scores 1.62 1 1 0 1 };
    { config = Instrument.Pac; runtime = Pac; name = "pac";
      label = "PAC"; display = "PAC"; tag = "PA";
      create_exposed =
        (fun ?pac_key heap ->
          let san, sigs = Pac_runtime.create_exposed ?key:pac_key heap in
          (san, Sigs sigs));
      scores = scores 1.58 2 2 2 2 };
    (* the §5.2 ablations: the GiantSan runtime under another name, with
       the instrumentation plan selecting which optimization survives *)
    { config = Instrument.Cache_only; runtime = Giantsan; name = "cacheonly";
      label = "CacheOnly"; display = "GiantSan-CacheOnly"; tag = "CO";
      create_exposed =
        plain
          (Gs_runtime.create_variant ~name:"GiantSan-CacheOnly" ~use_cache:true);
      scores = None };
    { config = Instrument.Elim_only; runtime = Giantsan; name = "elimonly";
      label = "EliminationOnly"; display = "GiantSan-ElimOnly"; tag = "EO";
      create_exposed =
        plain
          (Gs_runtime.create_variant ~name:"GiantSan-ElimOnly" ~use_cache:false);
      scores = None };
  ]

let row config = List.find (fun r -> r.config = config) rows

let find s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun r -> r.name = s) rows

(* The five runtime rows: the ones that carry scores. *)
let runtimes =
  List.filter_map (fun r -> Option.map (fun s -> (r, s)) r.scores) rows

let runtime_row id = List.find (fun (r, _) -> r.runtime = id) runtimes

(* Ascending overhead — the order [Policy] breaks ties and walks the
   downshift ladder in. *)
let all =
  List.map
    (fun (r, _) -> r.runtime)
    (List.stable_sort
       (fun (_, a) (_, b) -> Float.compare a.overhead b.overhead)
       runtimes)

let name id = (fst (runtime_row id)).name

let of_name s =
  match find s with
  | Some { runtime; scores = Some _; _ } -> Some runtime
  | _ -> None

let overhead id = (snd (runtime_row id)).overhead

let detection id cls =
  let s = snd (runtime_row id) in
  match cls with
  | Oob -> s.oob
  | Uaf -> s.uaf
  | Uaf_realloc -> s.uaf_realloc
  | Double_free -> s.double_free

let create_exposed ?pac_key id heap =
  (fst (runtime_row id)).create_exposed ?pac_key heap

let create ?pac_key id heap = fst (create_exposed ?pac_key id heap)
