(* The PAC backend: tag mechanics, the sign/authenticate/strip lifecycle,
   the post-recycling detection the other backends lose, and the tag-forge
   chaos plane. White-box tests drive [Pac] directly (tagged pointers);
   black-box tests drive the untagged [Pac_runtime] adapter through the
   common sanitizer interface. *)

module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Memsim = Giantsan_memsim
module Pac = Giantsan_pac.Pac
module Pac_runtime = Giantsan_pac.Pac_runtime
module Rng = Giantsan_util.Rng

let fresh ?(config = Helpers.mid_config) () = Pac_runtime.create_exposed config

(* ------------------------------------------------------------------ *)
(* Tag mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let test_tag_bits () =
  let t = Pac.create () in
  let base = 0x1234 in
  let ptr = Pac.sign t ~base in
  Alcotest.(check int) "address bits survive signing" base (Pac.strip ptr);
  Alcotest.(check bool) "tag lives above bit 48" true
    (ptr lsr Pac.pac_shift = Pac.tag_of ptr);
  Alcotest.(check int) "with_tag/tag_of round-trip" (Pac.tag_of ptr)
    (Pac.tag_of (Pac.with_tag base (Pac.tag_of ptr)));
  Alcotest.(check int) "strip removes the tag" base
    (Pac.strip (Pac.with_tag base 0xffff))

let test_compute_is_keyed =
  Helpers.q "different keys, salts or bases give different PACs (mostly)"
    QCheck.(triple (int_bound 1_000_000) (int_bound 10_000) (int_bound 1000))
    (fun (base, salt, key) ->
      let a = Pac.create ~key () and b = Pac.create ~key:(key + 1) () in
      let pa = Pac.compute a ~base ~salt in
      (* 16-bit PACs collide; the property that must hold exactly is
         determinism per (key, base, salt) and range *)
      pa = Pac.compute a ~base ~salt
      && pa land lnot ((1 lsl Pac.pac_bits) - 1) = 0
      && Pac.compute b ~base ~salt
         land lnot ((1 lsl Pac.pac_bits) - 1)
         = 0)

(* ------------------------------------------------------------------ *)
(* Lifecycle: sign / authenticate / strip                              *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let t = Pac.create () in
  let ptr = Pac.sign t ~base:4096 in
  (match Pac.authenticate t ptr ~base:4096 with
  | Ok a -> Alcotest.(check int) "auth strips" 4096 a
  | Error f -> Alcotest.fail (Pac.failure_to_string f));
  Alcotest.(check bool) "release strips the signature" true
    (Pac.release t ~base:4096);
  (match Pac.authenticate t ptr ~base:4096 with
  | Error Pac.Stale -> ()
  | Ok _ -> Alcotest.fail "stale pointer authenticated"
  | Error f -> Alcotest.fail (Pac.failure_to_string f));
  Alcotest.(check bool) "second release is a no-op" false
    (Pac.release t ~base:4096)

(* Use-after-free where the memory has already been recycled: the freed
   base is re-signed with a fresh salt, so the stale pointer sees a live
   signature with the wrong tag — Forged, not missed. This is exactly the
   detection redzone/quarantine schemes lose once the quarantine rotates
   (Backend.detection Pac Uaf_realloc = 2, everyone else 0). *)
let test_salt_reuse_after_recycle () =
  let t = Pac.create () in
  let stale = Pac.sign t ~base:8192 in
  ignore (Pac.release t ~base:8192);
  let fresh_ptr = Pac.sign t ~base:8192 in
  Alcotest.(check bool) "fresh salt, different tag" true
    (Pac.tag_of stale <> Pac.tag_of fresh_ptr);
  (match Pac.authenticate t stale ~base:8192 with
  | Error (Pac.Forged _) -> ()
  | Ok _ -> Alcotest.fail "stale pointer authenticated against recycled base"
  | Error Pac.Stale -> Alcotest.fail "recycled base should hold a live signature");
  match Pac.authenticate t fresh_ptr ~base:8192 with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Pac.failure_to_string f)

let test_salts_never_repeat =
  Helpers.q "salts are fresh across sign/release cycles"
    QCheck.(int_range 1 32)
    (fun cycles ->
      let t = Pac.create () in
      let salts = ref [] in
      for _ = 1 to cycles do
        ignore (Pac.sign t ~base:64);
        (match Pac.salt_of t ~base:64 with
        | Some s -> salts := s :: !salts
        | None -> ());
        ignore (Pac.release t ~base:64)
      done;
      List.length (List.sort_uniq compare !salts) = cycles)

(* Interior pointers: arithmetic preserves the tag on real hardware, so
   [retag] must hand out the allocation's live tag for any offset, and the
   result must authenticate. *)
let test_interior_pointer () =
  let t = Pac.create () in
  let ptr = Pac.sign t ~base:4096 in
  (match Pac.retag t (4096 + 40) ~base:4096 with
  | Some interior ->
    Alcotest.(check int) "interior keeps the allocation tag" (Pac.tag_of ptr)
      (Pac.tag_of interior);
    Alcotest.(check int) "interior keeps its address" (4096 + 40)
      (Pac.strip interior);
    (match Pac.authenticate t interior ~base:4096 with
    | Ok a -> Alcotest.(check int) "authenticates at its offset" (4096 + 40) a
    | Error f -> Alcotest.fail (Pac.failure_to_string f))
  | None -> Alcotest.fail "retag refused a live base");
  ignore (Pac.release t ~base:4096);
  Alcotest.(check bool) "retag refuses a dead base" true
    (Pac.retag t (4096 + 40) ~base:4096 = None)

(* Realloc modelled as the allocator does it: new allocation, then free of
   the old one. The old pointer's tag must die with the old allocation and
   the new pointer's tag must keep working. *)
let test_tag_across_realloc () =
  let san, pac = fresh () in
  let old_obj = san.San.malloc 64 in
  let old_base = old_obj.Memsim.Memobj.base in
  let old_ptr = Pac.sign pac ~base:old_base in
  ignore (Pac.release pac ~base:old_base);
  (* grow: fresh allocation gets its own signature *)
  let new_obj = san.San.malloc 128 in
  let new_base = new_obj.Memsim.Memobj.base in
  ignore (san.San.free old_base);
  Alcotest.(check bool) "old tag is dead" true
    (match Pac.authenticate pac old_ptr ~base:old_base with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "new base stays signed" true (Pac.has pac ~base:new_base);
  Alcotest.(check bool) "new object accessible" true
    (Helpers.check_is_safe
       (san.San.access ~base:new_base ~addr:(new_base + 8) ~width:8))

(* ------------------------------------------------------------------ *)
(* The untagged adapter through the common interface                   *)
(* ------------------------------------------------------------------ *)

let test_adapter_inbounds_and_oob () =
  let san, _ = fresh () in
  let obj = san.San.malloc 100 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "inside" true
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 50) ~width:4));
  match san.San.access ~base ~addr:(base + 100) ~width:1 with
  | Some r ->
    Alcotest.(check string) "one past the end" "heap-buffer-overflow"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "overflow missed"

(* PAC enforces the exact signed size — the size-class slack LFP tolerates
   (char p[600] rounded to 640, p[610] missed) is out of bounds here. *)
let test_adapter_no_size_class_slack () =
  let san, _ = fresh () in
  let obj = san.San.malloc 600 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "p[610] caught (LFP misses it)" false
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 610) ~width:1))

let test_adapter_uaf_and_double_free () =
  let san, _ = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  ignore (san.San.free base);
  (match san.San.access ~base ~addr:(base + 8) ~width:4 with
  | Some r ->
    Alcotest.(check string) "stale access" "heap-use-after-free"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "use-after-free missed");
  match san.San.free base with
  | Some r ->
    Alcotest.(check string) "second free" "double-free"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "double free missed"

let test_adapter_region_checks () =
  let san, _ = fresh () in
  let obj = san.San.malloc 256 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "whole object" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 256)));
  Alcotest.(check bool) "one past" false
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 257)));
  Alcotest.(check bool) "empty region is trivially safe" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:base))

let test_adapter_counters () =
  let san, pac = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  ignore (san.San.access ~base ~addr:base ~width:8);
  ignore (san.San.check_region ~lo:base ~hi:(base + 64));
  let c = san.San.counters in
  Alcotest.(check int) "every check is one authentication" 2
    c.Counters.auth_checks;
  Alcotest.(check int) "auth_checks joins total_checks" 2
    (Counters.total_checks c);
  Alcotest.(check int) "shadow loads = authentications" (Pac.auths pac)
    (san.San.shadow_loads ());
  Alcotest.(check int) "shadow stores = signature writes" (Pac.signs pac)
    (san.San.shadow_stores ())

(* ------------------------------------------------------------------ *)
(* Chaos plane: tag forging is always detected                         *)
(* ------------------------------------------------------------------ *)

(* [forge] xors an odd mask into a stored PAC, so authentication of the
   victim can never accidentally still pass — a forged tag must always be
   detected, across any seed. *)
let test_forged_tags_always_detected =
  Helpers.q "seeded tag-forge sweep: every forge detected"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let san, pac = fresh ~config:Helpers.small_config () in
      let bases =
        List.init (1 + Rng.int rng 6) (fun _ ->
            (san.San.malloc (16 + Rng.int rng 64)).Memsim.Memobj.base)
      in
      match Pac.forge pac ~pick:(Rng.int rng 64) ~mask:(Rng.int rng 0xffff) with
      | None -> false (* live signatures exist; forge must land *)
      | Some victim ->
        List.for_all
          (fun base ->
            let safe =
              Helpers.check_is_safe (san.San.access ~base ~addr:base ~width:8)
            in
            if base = victim then (not safe) && Pac.audit pac <> None
            else safe)
          bases)

let test_forged_report_is_wild_access () =
  let san, pac = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  ignore (Pac.forge pac ~pick:0 ~mask:0b1010);
  match san.San.access ~base ~addr:base ~width:8 with
  | Some r ->
    Alcotest.(check string) "forged tag reports wild access" "wild-access"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "forged tag authenticated"

let test_drop_is_stale_not_forged () =
  let san, pac = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  (match Pac.drop pac ~pick:0 with
  | Some victim -> Alcotest.(check int) "drop hits the only base" base victim
  | None -> Alcotest.fail "drop found nothing");
  Alcotest.(check bool) "audit alone cannot see a drop" true
    (Pac.audit pac = None);
  match Pac.check pac ~base with
  | Some Pac.Stale -> ()
  | None -> Alcotest.fail "dropped signature still authenticated"
  | Some (Pac.Forged _) -> Alcotest.fail "drop misclassified as forge"

let suite =
  ( "pac",
    [
      Helpers.qt "tag bits: pack/strip/with_tag round-trip" `Quick test_tag_bits;
      test_compute_is_keyed;
      Helpers.qt "sign/authenticate/strip lifecycle" `Quick test_lifecycle;
      Helpers.qt "salt reuse: recycled base rejects the stale tag" `Quick
        test_salt_reuse_after_recycle;
      test_salts_never_repeat;
      Helpers.qt "interior pointers authenticate via retag" `Quick
        test_interior_pointer;
      Helpers.qt "realloc: old tag dies, new tag lives" `Quick
        test_tag_across_realloc;
      Helpers.qt "adapter: in-bounds pass, overflow reported" `Quick
        test_adapter_inbounds_and_oob;
      Helpers.qt "adapter: exact bounds, no size-class slack" `Quick
        test_adapter_no_size_class_slack;
      Helpers.qt "adapter: use-after-free and double-free" `Quick
        test_adapter_uaf_and_double_free;
      Helpers.qt "adapter: region checks cost one authentication" `Quick
        test_adapter_region_checks;
      Helpers.qt "adapter: auth_checks and signature traffic" `Quick
        test_adapter_counters;
      test_forged_tags_always_detected;
      Helpers.qt "forged tag reports wild-access" `Quick
        test_forged_report_is_wild_access;
      Helpers.qt "stolen strip: stale, invisible to audit alone" `Quick
        test_drop_is_stale_not_forged;
    ] )
