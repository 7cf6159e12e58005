(* Check-instance generation (§4.4): the Figure 8 pipeline and the Table 1
   idioms, as instrumentation plans. *)

module Ast = Giantsan_ir.Ast
module B = Giantsan_ir.Builder
module Plan = Giantsan_analysis.Plan
module Instrument = Giantsan_analysis.Instrument

(* Figure 8a as IR:
     x = p[0]; y = p[1];
     for (i = 0..N) { j = x[i]; y[j] = i; }
     memset(x, 0, 4N) *)
let figure8 () =
  let b = B.create () in
  let x_load = B.access b ~base:"p" ~index:(B.i 0) ~scale:8 () in
  let y_load = B.access b ~base:"p" ~index:(B.i 1) ~scale:8 () in
  let xi = B.access b ~base:"x" ~index:(B.v "i") ~scale:4 () in
  let yj = B.access b ~base:"y" ~index:(B.v "j") ~scale:4 () in
  let loop =
    B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.v "N")
      [ B.assign "j" (Ast.Load xi); Ast.Store (yj, B.v "i") ]
  in
  let loop_id = match loop with Ast.For { loop_id; _ } -> loop_id | _ -> -1 in
  let prog =
    B.program "figure8"
      [
        B.assign "x" (Ast.Load x_load);
        B.assign "y" (Ast.Load y_load);
        loop;
        B.memset b ~dst:"x" ~doff:(B.i 0) ~len:B.(i 4 * v "N") ~value:(B.i 0);
      ]
  in
  (prog, x_load, y_load, xi, yj, loop_id)

let test_figure8_giantsan () =
  let prog, x_load, y_load, xi, yj, loop_id = figure8 () in
  let plan = Instrument.plan Instrument.Giantsan prog in
  (* p[0], p[1] merged into one span check *)
  Alcotest.(check bool) "p[0] eliminated" true
    (Plan.decision_of plan x_load.Ast.acc_id = Plan.Eliminated);
  Alcotest.(check bool) "p[1] eliminated" true
    (Plan.decision_of plan y_load.Ast.acc_id = Plan.Eliminated);
  let merged = Plan.stmt_pre_of plan x_load.Ast.acc_id in
  Alcotest.(check int) "one merged span check" 1 (List.length merged);
  (match merged with
  | [ { Plan.rg_base = "p"; rg_lo = Ast.Int 0; rg_hi = Ast.Int 16 } ] -> ()
  | _ -> Alcotest.fail "span should be CI(p, p+16)");
  (* x[i] promoted to a preheader check CI(x, x + 4N) *)
  Alcotest.(check bool) "x[i] eliminated" true
    (Plan.decision_of plan xi.Ast.acc_id = Plan.Eliminated);
  (match Plan.loop_pre_of plan loop_id with
  | [ { Plan.rg_base = "x"; _ } ] -> ()
  | l -> Alcotest.failf "expected 1 preheader check on x, got %d" (List.length l));
  (* y[j] is data-dependent: history-cached *)
  Alcotest.(check bool) "y[j] cached" true
    (Plan.decision_of plan yj.Ast.acc_id = Plan.Cached);
  Alcotest.(check (list string)) "cache on y" [ "y" ]
    (Plan.caches_of plan loop_id)

let test_figure8_asan () =
  let prog, x_load, y_load, xi, yj, _ = figure8 () in
  let plan = Instrument.plan Instrument.Asan prog in
  List.iter
    (fun (acc : Ast.access) ->
      Alcotest.(check bool) "everything plain" true
        (Plan.decision_of plan acc.Ast.acc_id = Plan.Plain))
    [ x_load; y_load; xi; yj ];
  Alcotest.(check bool) "no anchors" false plan.Plan.use_anchor

let test_figure8_asanmm () =
  let prog, x_load, y_load, xi, yj, loop_id = figure8 () in
  let plan = Instrument.plan Instrument.Asanmm prog in
  (* different offsets: ASan-- cannot span-merge them *)
  Alcotest.(check bool) "p[0] stays" true
    (Plan.decision_of plan x_load.Ast.acc_id = Plan.Plain);
  Alcotest.(check bool) "p[1] stays" true
    (Plan.decision_of plan y_load.Ast.acc_id = Plan.Plain);
  (* the affine LOAD x[i] gets ASan--'s first+last endpoint elision... *)
  Alcotest.(check bool) "x[i] endpoint-elided" true
    (Plan.decision_of plan xi.Ast.acc_id = Plan.Eliminated);
  Alcotest.(check int) "two endpoint checks" 2
    (List.length (Plan.loop_pre_of plan loop_id));
  (* ...but the data-dependent store y[j] stays instruction-level *)
  Alcotest.(check bool) "y[j] per-iteration" true
    (Plan.decision_of plan yj.Ast.acc_id = Plan.Plain)

let test_figure8_ablations () =
  let prog, _, _, xi, yj, _ = figure8 () in
  let cache_only = Instrument.plan Instrument.Cache_only prog in
  Alcotest.(check bool) "CacheOnly: x[i] cached, not promoted" true
    (Plan.decision_of cache_only xi.Ast.acc_id = Plan.Cached);
  Alcotest.(check bool) "CacheOnly: y[j] cached" true
    (Plan.decision_of cache_only yj.Ast.acc_id = Plan.Cached);
  let elim_only = Instrument.plan Instrument.Elim_only prog in
  Alcotest.(check bool) "ElimOnly: x[i] promoted" true
    (Plan.decision_of elim_only xi.Ast.acc_id = Plan.Eliminated);
  Alcotest.(check bool) "ElimOnly: y[j] plain (no cache)" true
    (Plan.decision_of elim_only yj.Ast.acc_id = Plan.Plain)

let test_asanmm_dedupe () =
  (* p[0] + p[0]: the second, identical check is redundant *)
  let b = B.create () in
  let a1 = B.access b ~base:"p" ~index:(B.i 0) ~scale:4 () in
  let a2 = B.access b ~base:"p" ~index:(B.i 0) ~scale:4 () in
  let prog =
    B.program "dup"
      [
        B.malloc "p" (B.i 64);
        B.assign "s" B.(Ast.Load a1 + Ast.Load a2);
      ]
  in
  let plan = Instrument.plan Instrument.Asanmm prog in
  Alcotest.(check bool) "first stays" true
    (Plan.decision_of plan a1.Ast.acc_id = Plan.Plain);
  Alcotest.(check bool) "duplicate dropped" true
    (Plan.decision_of plan a2.Ast.acc_id = Plan.Eliminated)

let test_reassignment_blocks_merge () =
  (* p[0]; p = q; p[0] — the two accesses are different objects *)
  let b = B.create () in
  let a1 = B.access b ~base:"p" ~index:(B.i 0) ~scale:4 () in
  let a2 = B.access b ~base:"p" ~index:(B.i 0) ~scale:4 () in
  let prog =
    B.program "reassign"
      [
        B.malloc "p" (B.i 64);
        B.malloc "q" (B.i 64);
        B.assign "s" (Ast.Load a1);
        B.assign "p" (B.v "q");
        B.assign "t" (Ast.Load a2);
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "no merge across reassignment" true
    (Plan.decision_of plan a1.Ast.acc_id = Plan.Plain
    && Plan.decision_of plan a2.Ast.acc_id = Plan.Plain)

let test_free_blocks_promotion () =
  (* a loop that frees inside its body must not be promoted *)
  let b = B.create () in
  let acc = B.access b ~base:"p" ~index:(B.v "i") ~scale:4 () in
  let prog =
    B.program "free_in_loop"
      [
        B.malloc "p" (B.i 256);
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 4)
          [
            Ast.Store (acc, B.i 1);
            B.if_ B.(v "i" = i 3) [ B.free (B.v "p") ] [];
          ];
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "not promoted (freed in body)" true
    (Plan.decision_of plan acc.Ast.acc_id <> Plan.Eliminated)

let test_if_guard_blocks_promotion () =
  (* conditionally executed accesses must not be hoisted (could check bytes
     that are never touched) — they fall back to caching *)
  let b = B.create () in
  let acc = B.access b ~base:"p" ~index:(B.v "i") ~scale:4 () in
  let prog =
    B.program "guarded"
      [
        B.malloc "p" (B.i 256);
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 100)
          [ B.if_ B.(v "i" < i 3) [ Ast.Store (acc, B.i 1) ] [] ];
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "guarded access cached, not promoted" true
    (Plan.decision_of plan acc.Ast.acc_id = Plan.Cached)

let test_variant_bound_blocks_promotion () =
  (* hi is reassigned inside the loop: bounds not invariant *)
  let b = B.create () in
  let acc = B.access b ~base:"p" ~index:(B.v "i") ~scale:4 () in
  let prog =
    B.program "variant_bound"
      [
        B.malloc "p" (B.i 256);
        B.assign "n" (B.i 10);
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.v "n")
          [ Ast.Store (acc, B.i 1); B.assign "n" B.(v "n" - i 1) ];
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "variant bound: cached fallback" true
    (Plan.decision_of plan acc.Ast.acc_id = Plan.Cached)

let test_while_loop_cached () =
  let b = B.create () in
  let acc = B.access b ~base:"p" ~index:(B.v "i") ~scale:8 () in
  let prog =
    B.program "while"
      [
        B.malloc "p" (B.i 256);
        B.assign "i" (B.i 0);
        B.while_ b ~cond:B.(v "i" < i 32)
          [ Ast.Store (acc, B.v "i"); B.assign "i" B.(v "i" + i 1) ];
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "while-loop access cached" true
    (Plan.decision_of plan acc.Ast.acc_id = Plan.Cached);
  let plan_elim = Instrument.plan Instrument.Elim_only prog in
  Alcotest.(check bool) "no cache in ElimOnly: plain" true
    (Plan.decision_of plan_elim acc.Ast.acc_id = Plan.Plain)

let test_asanmm_invariant_hoist () =
  (* p[3] inside a loop: same address every iteration — ASan-- hoists it *)
  let b = B.create () in
  let acc = B.access b ~base:"p" ~index:(B.i 3) ~scale:4 () in
  let loop =
    B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 50) [ Ast.Store (acc, B.v "i") ]
  in
  let loop_id = match loop with Ast.For { loop_id; _ } -> loop_id | _ -> -1 in
  let prog = B.program "hoist" [ B.malloc "p" (B.i 64); loop ] in
  let plan = Instrument.plan Instrument.Asanmm prog in
  Alcotest.(check bool) "hoisted" true
    (Plan.decision_of plan acc.Ast.acc_id = Plan.Eliminated);
  Alcotest.(check int) "one preheader check" 1
    (List.length (Plan.loop_pre_of plan loop_id))

let test_negative_stride_promotion () =
  (* p[N-1-i]: coeff -4; the promoted footprint still covers [0, 4N) *)
  let b = B.create () in
  let acc = B.access b ~base:"p" ~index:B.(v "N" - i 1 - v "i") ~scale:4 () in
  let loop =
    B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.v "N") [ Ast.Store (acc, B.v "i") ]
  in
  let loop_id = match loop with Ast.For { loop_id; _ } -> loop_id | _ -> -1 in
  let prog =
    B.program "reverse" [ B.malloc "p" (B.i 256); B.assign "N" (B.i 64); loop ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "reverse affine promoted" true
    (Plan.decision_of plan acc.Ast.acc_id = Plan.Eliminated);
  Alcotest.(check int) "one preheader check" 1
    (List.length (Plan.loop_pre_of plan loop_id))

let test_copy_propagation_merges () =
  (* q = p: accesses through q must-alias accesses through p *)
  let b = B.create () in
  let a1 = B.access b ~base:"p" ~index:(B.i 0) ~scale:8 () in
  let a2 = B.access b ~base:"q" ~index:(B.i 1) ~scale:8 () in
  let prog =
    B.program "copyprop"
      [
        B.malloc "p" (B.i 64);
        B.assign "q" (B.v "p");
        B.assign "s" B.(Ast.Load a1 + Ast.Load a2);
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "both eliminated" true
    (Plan.decision_of plan a1.Ast.acc_id = Plan.Eliminated
    && Plan.decision_of plan a2.Ast.acc_id = Plan.Eliminated);
  (match Plan.stmt_pre_of plan a1.Ast.acc_id with
  | [ { Plan.rg_base = "p"; rg_lo = Ast.Int 0; rg_hi = Ast.Int 16 } ] -> ()
  | _ -> Alcotest.fail "expected one span CI(p, p+16) keyed on the root");
  (* the merged program still runs clean *)
  let san = Helpers.giantsan () in
  let out = Giantsan_analysis.Interp.run san plan prog in
  Alcotest.(check bool) "clean run" true (out.Giantsan_analysis.Interp.reports = [])

let test_copy_propagation_root_reassign () =
  (* reassigning the root kills the alias: no merge across it *)
  let b = B.create () in
  let a1 = B.access b ~base:"p" ~index:(B.i 0) ~scale:8 () in
  let a2 = B.access b ~base:"q" ~index:(B.i 1) ~scale:8 () in
  let prog =
    B.program "copyprop_kill"
      [
        B.malloc "p" (B.i 64);
        B.assign "q" (B.v "p");
        B.assign "s" (Ast.Load a1);
        B.malloc "p" (B.i 64);
        B.assign "t" (Ast.Load a2);
      ]
  in
  let plan = Instrument.plan Instrument.Giantsan prog in
  Alcotest.(check bool) "no merge across the root's death" true
    (Plan.decision_of plan a1.Ast.acc_id = Plan.Plain
    && Plan.decision_of plan a2.Ast.acc_id = Plan.Plain)

let test_native_plan_disabled () =
  let prog, _, _, _, _, _ = figure8 () in
  let plan = Instrument.plan Instrument.Native prog in
  Alcotest.(check bool) "disabled" false plan.Plan.enabled

let test_static_stats () =
  let prog, _, _, _, _, _ = figure8 () in
  let stats = Plan.static_stats (Instrument.plan Instrument.Giantsan prog) in
  Alcotest.(check int) "eliminated sites" 3 stats.Plan.s_eliminated;
  Alcotest.(check int) "cached sites" 1 stats.Plan.s_cached;
  Alcotest.(check bool) "pre-checks exist" true (stats.Plan.s_pre_checks >= 2)

let suite =
  ( "instrument",
    [
      Helpers.qt "Figure 8: GiantSan plan" `Quick test_figure8_giantsan;
      Helpers.qt "Figure 8: ASan plan" `Quick test_figure8_asan;
      Helpers.qt "Figure 8: ASan-- plan" `Quick test_figure8_asanmm;
      Helpers.qt "Figure 8: ablation plans" `Quick test_figure8_ablations;
      Helpers.qt "ASan--: duplicate elimination" `Quick test_asanmm_dedupe;
      Helpers.qt "reassignment is a merge barrier" `Quick
        test_reassignment_blocks_merge;
      Helpers.qt "free in loop blocks promotion" `Quick test_free_blocks_promotion;
      Helpers.qt "if-guard blocks promotion" `Quick test_if_guard_blocks_promotion;
      Helpers.qt "variant bound blocks promotion" `Quick
        test_variant_bound_blocks_promotion;
      Helpers.qt "while loops cache" `Quick test_while_loop_cached;
      Helpers.qt "ASan--: invariant hoisting" `Quick test_asanmm_invariant_hoist;
      Helpers.qt "negative stride promotion" `Quick test_negative_stride_promotion;
      Helpers.qt "copy propagation merges aliases" `Quick
        test_copy_propagation_merges;
      Helpers.qt "root reassignment kills aliases" `Quick
        test_copy_propagation_root_reassign;
      Helpers.qt "native plan is disabled" `Quick test_native_plan_disabled;
      Helpers.qt "static stats" `Quick test_static_stats;
    ] )
