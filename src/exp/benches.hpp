#pragma once
// The named experiment suites (the former hand-rolled bench binaries, the
// large-k scale sweep and the ad-hoc scenario driver), each a declarative
// body over the sweep/batch/sink subsystem.
// Registered by name in bench_registry.cpp and run through disp_bench.

#include "exp/sink.hpp"

namespace disp::exp {

// Table 1 scaling rows (benches_table1.cpp).
void benchTable1SyncRooted(BenchContext& ctx);    // E1
void benchTable1AsyncRooted(BenchContext& ctx);   // E2
void benchTable1SyncGeneral(BenchContext& ctx);   // E3
void benchTable1AsyncGeneral(BenchContext& ctx);  // E4
void benchTable1Memory(BenchContext& ctx);        // E5

// Large-k scale sweep, streams cells to JSONL (benches_scale.cpp).
void benchTable1Scale(BenchContext& ctx);         // E15

// Web-scale ingest & memory campaign: peak-RSS-annotated general SYNC
// cells on 10^6..10^7-node graphs (benches_scale.cpp).
void benchScaleReal(BenchContext& ctx);           // E19

// Figure / lemma probes (benches_figs.cpp).
void benchFig1EmptySelection(BenchContext& ctx);  // E6
void benchFig2Oscillation(BenchContext& ctx);     // E7
void benchFig5SyncProbe(BenchContext& ctx);       // E8
void benchFig7AsyncProbe(BenchContext& ctx);      // E9
void benchFig6GuestSeeOff(BenchContext& ctx);     // E10

// Ablations and the lower bound (benches_misc.cpp).
void benchLowerBoundLine(BenchContext& ctx);      // E11
void benchAblationTechniques(BenchContext& ctx);  // E12
void benchAblationScheduler(BenchContext& ctx);   // E13

// Tiny observed cells exercising the trace/observer API end to end; the
// CI trace-smoke gate runs it under --trace (benches_misc.cpp).
void benchTraceSmoke(BenchContext& ctx);          // E16

// Ad-hoc workloads: the --graphs/--placements/--ks spec cross-product
// (benches_misc.cpp).
void benchScenario(BenchContext& ctx);            // E17

// Fault loads vs protocols: the self-stabilization scorecard over the
// --faults axis (benches_faults.cpp).
void benchFaults(BenchContext& ctx);              // E20

}  // namespace disp::exp
