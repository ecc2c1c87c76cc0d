//===- bench_obs_overhead.cpp - Observability overhead gate ----------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the per-operation cost of the aqua/obs primitives and *gates*
// the two that are compiled into every hot path unconditionally:
//
//  * a disabled trace span (one relaxed atomic load + branch), and
//  * a suppressed log statement (same shape).
//
// These run inside the B&B node loop and the simulator's instruction
// dispatch, so their disabled cost is the whole "observability is free
// when off" contract. The gate threshold is deliberately generous (a
// relaxed load is ~1 ns; the budget is 150 ns) so it only catches real
// structural regressions -- an accidental mutex, string construction, or
// clock read on the disabled path -- never scheduler noise. Unlike the
// throughput benches, this gate ignores AQUAVOL_BENCH_NO_TIMING_GATE:
// the budget is two orders of magnitude above the measured cost, so a
// loaded runner cannot trip it spuriously.
//
// Enabled-path costs (span record, counter add, histogram observe) are
// reported in the JSON artifact for trend tracking but not gated.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/obs/Log.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"

#include <cstdio>

using namespace aqua;
using namespace benchutil;

namespace {

constexpr int Iters = 1 << 20;

/// Nanoseconds per iteration of \p Fn(i) over Iters iterations.
template <typename F> double nsPerOp(F &&Fn) {
  // Warmup pass, then the best of three timed passes (minimum filters out
  // scheduler preemption, which only ever adds time).
  for (int I = 0; I < Iters / 16; ++I)
    Fn(I);
  double Best = 1e18;
  for (int Pass = 0; Pass < 3; ++Pass) {
    WallTimer T;
    for (int I = 0; I < Iters; ++I)
      Fn(I);
    Best = std::min(Best, T.seconds());
  }
  return Best / Iters * 1e9;
}

} // namespace

int main() {
  JsonReporter Json("obs_overhead");
  header("Observability overhead (ns/op)");

  // ----- Disabled paths: the always-compiled-in cost.
  obs::Tracer::setEnabled(false);
  double DisabledSpanNs = nsPerOp([](int) {
    AQUA_TRACE_SPAN("bench.disabled", "bench");
  });
  obs::setLogLevel(obs::LogLevel::Error);
  double DisabledLogNs = nsPerOp([](int I) {
    AQUA_LOG_DEBUG("bench", "suppressed %d", I);
  });
  // A span that would carry args, while disabled: arg() must cost only the
  // null-Name branch, never a string conversion or allocation.
  double DisabledArgSpanNs = nsPerOp([](int I) {
    obs::SpanGuard Span("bench.disabled_args", "bench");
    Span.arg("i", static_cast<std::uint64_t>(I));
    Span.arg("phase", "bench");
  });
  // Request context around a disabled span: two thread-local stores plus
  // the span's load+branch, the whole per-request overhead when off.
  double DisabledRequestNs = nsPerOp([](int I) {
    obs::RequestScope Scope(static_cast<std::uint64_t>(I) | 1);
    AQUA_TRACE_SPAN("bench.disabled_request", "bench");
  });

  // ----- Enabled paths: reported, not gated.
  obs::Counter &C = obs::metrics().counter("bench.obs_overhead.counter");
  double CounterNs = nsPerOp([&](int) { C.add(); });
  obs::Histogram &H = obs::metrics().histogram(
      "bench.obs_overhead.histogram", obs::defaultLatencyBucketsSec());
  double HistogramNs = nsPerOp([&](int I) { H.observe(I * 1e-6); });
  obs::Tracer Ring(1 << 12);
  double RecordNs = nsPerOp([&](int) {
    Ring.complete("bench.record", "bench", 0, 1, obs::PidPipeline, 0);
  });
  obs::Tracer::setEnabled(true);
  double EnabledSpanNs = nsPerOp([](int) {
    AQUA_TRACE_SPAN("bench.enabled", "bench");
  });
  obs::Tracer::setEnabled(false);
  obs::Tracer::global().clear();

  std::printf("  disabled span      %8.2f ns\n", DisabledSpanNs);
  std::printf("  disabled log       %8.2f ns\n", DisabledLogNs);
  std::printf("  disabled arg span  %8.2f ns\n", DisabledArgSpanNs);
  std::printf("  disabled req scope %8.2f ns\n", DisabledRequestNs);
  std::printf("  counter add        %8.2f ns\n", CounterNs);
  std::printf("  histogram observe  %8.2f ns\n", HistogramNs);
  std::printf("  ring record        %8.2f ns\n", RecordNs);
  std::printf("  enabled span       %8.2f ns\n", EnabledSpanNs);

  Json.add("per_op")
      .metric("disabled_span_ns", DisabledSpanNs)
      .metric("disabled_log_ns", DisabledLogNs)
      .metric("disabled_arg_span_ns", DisabledArgSpanNs)
      .metric("disabled_request_scope_ns", DisabledRequestNs)
      .metric("counter_add_ns", CounterNs)
      .metric("histogram_observe_ns", HistogramNs)
      .metric("ring_record_ns", RecordNs)
      .metric("enabled_span_ns", EnabledSpanNs);

  constexpr double BudgetNs = 150.0;
  bool Pass = DisabledSpanNs <= BudgetNs && DisabledLogNs <= BudgetNs &&
              DisabledArgSpanNs <= BudgetNs && DisabledRequestNs <= BudgetNs;
  std::printf("\n  disabled-path budget %.0f ns: %s\n", BudgetNs,
              Pass ? "PASS" : "FAIL");
  Json.write();
  return Pass ? 0 : 1;
}
