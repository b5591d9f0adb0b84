// Tests of the benchmark's own pieces: the tail-percentile rule, the
// digest fold, span attribution (self time = span minus covered
// children), and that the forwarding decorators leave every workload's
// results bit-identical.
//
//   python3 perfbench/run.py --selftest

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "digest.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void TestMedian() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestTailQuantileNeedsTenSamplesBeyond() {
  // 1000 samples: p99 is rank 990 and 10 samples lie beyond it.
  auto p99 = TailQuantile(OneTo(1000), 0.99);
  EXPECT(p99.has_value() && *p99 == 990.0);
  // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
  EXPECT(!TailQuantile(OneTo(999), 0.99).has_value());
  // Order of the input does not matter.
  std::vector<double> reversed = OneTo(1000);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT(TailQuantile(reversed, 0.99) == p99);
  // The median of 20 samples has exactly 10 beyond it.
  EXPECT(TailQuantile(OneTo(20), 0.5) == std::optional<double>(10.0));
  EXPECT(!TailQuantile(OneTo(19), 0.5).has_value());
  EXPECT(!TailQuantile({}, 0.99).has_value());
}

void TestDigestFold() {
  Digest empty;
  EXPECT(empty.value() == 0xcbf29ce484222325ULL);
  Digest one;
  one.Add(std::uint64_t{1});
  EXPECT(one.value() == ((0xcbf29ce484222325ULL ^ 1) * 0x100000001b3ULL));

  Digest ab, ba;
  ab.Add(1.0);
  ab.Add(2.0);
  ba.Add(2.0);
  ba.Add(1.0);
  EXPECT(ab.value() != ba.value());  // order-sensitive

  Digest zero, negative_zero;
  zero.Add(0.0);
  negative_zero.Add(-0.0);
  EXPECT(zero.value() != negative_zero.value());  // bitwise, not ==

  jigsaw::OutputMetrics m;
  m.count = 3;
  m.mean = 1.5;
  m.stddev = 0.5;
  m.std_error = 0.25;
  m.min = 1.0;
  m.max = 2.0;
  m.p50 = 1.5;
  m.p95 = 2.0;
  m.samples = {1.0, 1.5, 2.0};
  Digest base;
  base.Add(m);
  jigsaw::OutputMetrics last_ulp = m;
  last_ulp.p95 = std::nextafter(m.p95, 3.0);
  Digest moved;
  moved.Add(last_ulp);
  EXPECT(base.value() != moved.value());
  jigsaw::OutputMetrics sample = m;
  sample.samples[1] = 1.25;
  Digest resampled;
  resampled.Add(sample);
  EXPECT(base.value() != resampled.value());

  jigsaw::OptimizeResult r;
  r.found = true;
  r.best_valuation = {12, 40, 44};
  r.groups.push_back({{12, 40, 44}, {0.004}, true});
  Digest feasible;
  feasible.Add(r);
  r.groups[0].feasible = false;
  Digest infeasible;
  infeasible.Add(r);
  EXPECT(feasible.value() != infeasible.value());
}

Span MakeSpan(std::int64_t id, std::int64_t parent, SpanKind kind,
              std::int64_t start_ms, std::int64_t end_ms,
              std::uint32_t items = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.op = 0;
  s.kind = kind;
  s.start_ns = start_ms * 1'000'000;
  s.end_ns = end_ms * 1'000'000;
  s.items = items;
  return s;
}

double Self(const OpBreakdown& b, SpanKind k) {
  return b.self_ms[static_cast<std::size_t>(k)];
}

void TestSelfTimeIsSpanMinusCoveredChildren() {
  // One thread: op [0,100] > parse [0,10], optimize [10,90] > models
  // [20,40] and [50,60]; 90..100 is covered by no layer.
  const std::vector<Span> spans = {
      MakeSpan(1, -1, SpanKind::kOperation, 0, 100),
      MakeSpan(2, 1, SpanKind::kSqlParse, 0, 10),
      MakeSpan(3, 1, SpanKind::kCoreOptimize, 10, 90),
      MakeSpan(4, 3, SpanKind::kModelsEval, 20, 40, 7),
      MakeSpan(5, 3, SpanKind::kModelsEval, 50, 60, 3),
  };
  const auto ops = AttributeOperations(spans);
  EXPECT(ops.size() == 1);
  const OpBreakdown& b = ops[0];
  EXPECT(std::abs(b.total_ms - 100) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kSqlParse) - 10) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kCoreOptimize) - 50) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kModelsEval) - 30) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kOperation) - 10) < 1e-9);
  EXPECT(std::abs(b.attributed_ms() + Self(b, SpanKind::kOperation) -
                  b.total_ms) < 1e-9);
  EXPECT(std::abs(b.busy_ms[static_cast<std::size_t>(SpanKind::kCoreOptimize)] -
                  80) < 1e-9);
  EXPECT(b.items[static_cast<std::size_t>(SpanKind::kModelsEval)] == 10);
}

void TestConcurrentChildrenShareWallTime() {
  // optimize [0,100] covers two worker spans, A [10,70] and B [40,100].
  // Its self time is 100 minus the union of A and B (10); where A and B
  // overlap, each gets half, so the parts still add up to 100.
  const std::vector<Span> spans = {
      MakeSpan(1, -1, SpanKind::kOperation, 0, 100),
      MakeSpan(2, 1, SpanKind::kCoreOptimize, 0, 100),
      MakeSpan(3, 2, SpanKind::kModelsEval, 10, 70),
      MakeSpan(4, 2, SpanKind::kPdbProgram, 40, 100),
  };
  const auto ops = AttributeOperations(spans);
  EXPECT(ops.size() == 1);
  const OpBreakdown& b = ops[0];
  EXPECT(std::abs(Self(b, SpanKind::kCoreOptimize) - 10) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kModelsEval) - 45) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kPdbProgram) - 45) < 1e-9);
  EXPECT(std::abs(Self(b, SpanKind::kOperation)) < 1e-9);
}

void SpinFor(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

void TestWorkerSpansJoinTheClientsOperation() {
  SetSingleClient(true);
  SetTracing(true);
  {
    OperationScope op;
    ScopedSpan optimize(SpanKind::kCoreOptimize);
    std::thread worker([] {
      ScopedSpan model(SpanKind::kModelsEval, 5);
      SpinFor(std::chrono::microseconds(2000));
    });
    worker.join();
  }
  SetTracing(false);
  const std::vector<Span> spans = CollectSpans();
  EXPECT(spans.size() == 3);
  const Span* optimize = nullptr;
  const Span* model = nullptr;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kCoreOptimize) optimize = &s;
    if (s.kind == SpanKind::kModelsEval) model = &s;
  }
  EXPECT(optimize != nullptr && model != nullptr);
  if (optimize == nullptr || model == nullptr) return;
  EXPECT(model->parent == optimize->id);
  EXPECT(model->op == optimize->op);
  const auto ops = AttributeOperations(spans);
  EXPECT(ops.size() == 1);
  EXPECT(Self(ops[0], SpanKind::kModelsEval) >= 1.9);
  EXPECT(std::abs(ops[0].attributed_ms() + Self(ops[0], SpanKind::kOperation) -
                  ops[0].total_ms) < 1e-6);
}

/// Tiny instance of each batch workload: the decorated (traced set-up)
/// operation, its traced re-run and the undecorated operation all give
/// one digest, equal to the serial twin's.
void TestDecoratorsForwardBitIdentically() {
  using Factory = std::unique_ptr<BatchWorkload> (*)(const WorkloadOptions&);
  for (Factory make : {&MakeOptimizeFig1, &MakeJoin1e6, &MakeChainFig5}) {
    WorkloadOptions plain;
    plain.seed = 7;
    plain.tiny = true;
    WorkloadOptions traced = plain;
    traced.trace = true;
    std::unique_ptr<BatchWorkload> undecorated = make(plain);
    std::unique_ptr<BatchWorkload> decorated = make(traced);
    EXPECT(undecorated->SetUp(plain).ok());
    EXPECT(decorated->SetUp(traced).ok());
    // The first two input variants, where a workload has more than one.
    const std::size_t variants = std::min<std::size_t>(2, decorated->variants());
    for (std::size_t variant = 0; variant < variants; ++variant) {
      const auto reference = undecorated->RunOp(variant);
      const auto forwarded = decorated->RunOp(variant);
      SetTracing(true);
      const auto spanned = decorated->RunTracedOp(variant);
      SetTracing(false);
      const auto twin = decorated->SerialTwinDigest(variant);
      EXPECT(reference.ok() && forwarded.ok() && spanned.ok() && twin.ok());
      if (!reference.ok() || !forwarded.ok() || !spanned.ok() || !twin.ok()) {
        std::fprintf(stderr, "  in %s\n", decorated->name());
        continue;
      }
      EXPECT(forwarded.value() == reference.value());
      EXPECT(spanned.value() == reference.value());
      EXPECT(twin.value() == reference.value());
    }
    EXPECT(RecordedSpanCount() > 0);
    CollectSpans();
  }

  // The server workload checks every request against its standalone
  // twin itself; its first round must also match across decoration.
  WorkloadOptions serve;
  serve.seed = 7;
  serve.tiny = true;
  serve.seconds = 0.2;
  const WorkloadReport plain = DriveServeMixed(serve);
  serve.trace = true;
  const WorkloadReport traced = DriveServeMixed(serve);
  EXPECT(plain.failed == 0 && traced.failed == 0);
  EXPECT(plain.first_digest == traced.first_digest);
  for (const std::string& e : traced.errors) {
    std::fprintf(stderr, "  serve_mixed: %s\n", e.c_str());
  }
}

/// The drivers end to end on tiny inputs, untraced and traced.
void TestDriversReportEveryMetric() {
  for (const char* name : {"optimize_fig1", "join_1e6", "chain_fig5"}) {
    for (bool trace : {false, true}) {
      WorkloadOptions o;
      o.seed = 3;
      o.tiny = true;
      o.trace = trace;
      o.seconds = 0.2;
      const WorkloadReport r = RunWorkload(name, o);
      EXPECT(r.failed == 0);
      EXPECT(r.attempted >= 2);
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "  %s: %s\n", name, e.c_str());
      }
      auto has = [&](const std::string& metric) {
        for (const Metric& m : r.metrics) {
          if (m.name == metric) return true;
        }
        return false;
      };
      if (trace) {
        EXPECT(has("trace.op_ms") && has("trace.overhead_ratio"));
      } else {
        EXPECT(has("latency_p50_ms") && has("work_per_s") &&
               has("peak_rss_mb") && has("setup_s"));
      }
    }
  }
}

}  // namespace

int main() {
  TestMedian();
  TestTailQuantileNeedsTenSamplesBeyond();
  TestDigestFold();
  TestSelfTimeIsSpanMinusCoveredChildren();
  TestConcurrentChildrenShareWallTime();
  TestWorkerSpansJoinTheClientsOperation();
  TestDecoratorsForwardBitIdentically();
  TestDriversReportEveryMetric();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
