module Memsim = Giantsan_memsim
module Memobj = Memsim.Memobj
module Shadow_mem = Giantsan_shadow.Shadow_mem
module State_code = Giantsan_core.State_code

type mismatch_class = Overclaim | Underclaim | Drift

let class_name = function
  | Overclaim -> "overclaim"
  | Underclaim -> "underclaim"
  | Drift -> "drift"

type mismatch = {
  seg : int;
  expected : int;
  actual : int;
  cls : mismatch_class;
}

(* The GiantSan shadow is a pure function of the heap's ground truth: for
   every segment, the owning object's kind, status and geometry determine
   the one code the poisoning pass must have written. The per-object code
   itself lives in the executable specification ([Model.code_in_object]),
   so this audit and the lockstep refinement harness can never disagree
   about what "correct" means; this module only supplies the oracle-side
   ownership lookup. Any divergence — injected or organic — is a
   corruption, because no legal operation sequence can produce it. *)
let code_of_owner slot seg =
  match slot with
  | None -> State_code.unallocated
  | Some { Memobj.status = Memobj.Recycled; _ } ->
    (* recycled blocks have their owner cleared; a stale owner here would
       itself be an oracle bug, surfaced as a mismatch *)
    State_code.unallocated
  | Some ({ Memobj.status = (Memobj.Live | Memobj.Quarantined) as st; _ } as obj) ->
    Giantsan_spec.Model.code_in_object
      ~live:(st = Memobj.Live)
      ~kind:obj.Memobj.kind ~base:obj.Memobj.base ~size:obj.Memobj.size seg

let expected_code heap seg =
  code_of_owner (Memsim.Oracle.owner (Memsim.Heap.oracle heap) (seg * 8)) seg

let classify ~expected ~actual =
  let ea = State_code.addressable_in_segment expected
  and aa = State_code.addressable_in_segment actual in
  let ec = State_code.covered_bytes expected
  and ac = State_code.covered_bytes actual in
  if aa > ea || ac > ec then Overclaim
  else if aa < ea || ac < ec then Underclaim
  else Drift

(* [acc] with segment [seg] prepended if its shadow byte is not [expected]. *)
let compare_lane shadow seg expected acc =
  let actual = Shadow_mem.peek shadow seg in
  if actual = expected then acc
  else { seg; expected; actual; cls = classify ~expected ~actual } :: acc

(* Word-wide walk, high to low so the mismatch list comes out ascending.
   Most of an arena is unowned, and an unowned word is passed on two
   in-place queries: no segment of it has an owner, and its shadow word is
   eight [unallocated] bytes. Every other word — owned, failing the
   compare, or the arena's final partial word — is compared lane by lane,
   fetching the owner once per run of its segments that share one. The
   reads are uncounted: the self-check is an out-of-band audit and must not
   perturb the event-count-derived cost model. Nothing is allocated unless
   a mismatch is found. *)
let run ~heap ~shadow =
  let oracle = Memsim.Heap.oracle heap in
  let n = Shadow_mem.segments shadow in
  let out = ref [] in
  let word_lo = ref (((n - 1) / 8) * 8) in
  while !word_lo >= 0 do
    let p = !word_lo in
    if
      not
        (Shadow_mem.word_is shadow p State_code.unallocated
        && Memsim.Oracle.word_unowned oracle p)
    then begin
      let top = ref (Int.min n (p + 8) - 1) in
      while !top >= p do
        let first = Memsim.Oracle.owner_run_start oracle ~lo:p !top in
        let slot = Memsim.Oracle.owner oracle (!top * 8) in
        for seg = !top downto first do
          out := compare_lane shadow seg (code_of_owner slot seg) !out
        done;
        top := first - 1
      done
    end;
    word_lo := p - 8
  done;
  !out

let mismatch_to_string m =
  Printf.sprintf "seg %d: expected %s, found %s (%s)" m.seg
    (State_code.describe m.expected)
    (State_code.describe m.actual)
    (class_name m.cls)
