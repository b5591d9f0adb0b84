#include <cmath>
#include <cstdio>

#include "digest.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Traced runs stop issuing operations once this many spans are held in
/// memory (48 bytes each).
constexpr std::size_t kSpanCap = 1'000'000;

std::size_t K(SpanKind kind) { return static_cast<std::size_t>(kind); }

}  // namespace

void WorkloadReport::Set(const std::string& name, double value,
                         const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sql.parse_ms", "ms"},
      {"sql.bind_ms", "ms"},
      {"core.optimize_ms", "ms"},
      {"core.self_ms", "ms"},
      {"core.reuse_ratio", "ratio"},
      {"core.bases", "count"},
      {"core.blackbox_invocations", "count"},
      {"core.basis_lookups", "count"},
      {"core.candidate_precision", "ratio"},
      {"core.plan_risk", "probability"},
      {"core.plan_agreement", "ratio"},
      {"core.finalize_ms", "ms"},
      {"models.eval_ms", "ms"},
      {"models.samples", "count"},
      {"models.ns_per_sample", "ns"},
      {"pdb.program_ms", "ms"},
      {"pdb.realize_ms", "ms"},
      {"pdb.join_ms", "ms"},
      {"pdb.fold_ms", "ms"},
      {"pdb.tuples_realized", "count"},
      {"pdb.tuples_joined", "count"},
      {"pdb.world_cache_generations", "count"},
      {"pdb.world_cache_hit_ratio", "ratio"},
      {"markov.chain_ms", "ms"},
      {"markov.self_ms", "ms"},
      {"markov.honest_step_ratio", "ratio"},
      {"markov.mismatches", "count"},
      {"markov.jump_error", "stderr"},
      {"interactive.prime_ms", "ms"},
      {"interactive.tick_ms", "ms"},
      {"serve.self_ms", "ms"},
      {"serve.publish_ms", "ms"},
      {"serve.sweep_p50_ms", "ms"},
      {"serve.whatif_p50_ms", "ms"},
      {"serve.adhoc_p50_ms", "ms"},
      {"serve.tick_p50_ms", "ms"},
      {"serve.join_p50_ms", "ms"},
      {"serve.contention_ratio", "ratio"},
      {"util.pool_speedup", "ratio"},
      {"trace.op_ms", "ms"},
      {"trace.unattributed_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

void AddSpanMetrics(const std::vector<double>& untraced_ms,
                    const std::string& spans_path, WorkloadReport* report) {
  const std::vector<Span> spans = CollectSpans();
  if (!spans_path.empty() && !WriteSpans(spans_path, spans)) {
    report->notes.push_back("could not write spans to " + spans_path);
  }
  const std::vector<OpBreakdown> ops = AttributeOperations(spans);
  if (ops.empty()) {
    report->Fail("traced run recorded no operation");
    return;
  }
  std::vector<double> traced_ms;
  for (const OpBreakdown& b : ops) {
    traced_ms.push_back(b.total_ms);
    const double closing = b.attributed_ms() + b.self_ms[K(SpanKind::kOperation)];
    if (std::abs(closing - b.total_ms) > 1e-6 * b.total_ms + 1e-9) {
      report->Fail("span attribution of operation " + std::to_string(b.op) +
                   " does not add up to its duration");
    }
  }

  auto mean = [&](auto field) {
    double sum = 0.0;
    for (const OpBreakdown& b : ops) sum += static_cast<double>(field(b));
    return sum / static_cast<double>(ops.size());
  };
  auto self = [&](SpanKind k) {
    return mean([k](const OpBreakdown& b) { return b.self_ms[K(k)]; });
  };
  auto busy = [&](SpanKind k) {
    return mean([k](const OpBreakdown& b) { return b.busy_ms[K(k)]; });
  };
  auto items = [&](SpanKind k) {
    return mean([k](const OpBreakdown& b) { return b.items[K(k)]; });
  };

  report->Set("sql.parse_ms", self(SpanKind::kSqlParse), "ms");
  report->Set("sql.bind_ms", self(SpanKind::kSqlBind), "ms");
  report->Set("core.optimize_ms", busy(SpanKind::kCoreOptimize), "ms");
  report->Set("core.self_ms", self(SpanKind::kCoreOptimize), "ms");
  report->Set("core.finalize_ms", self(SpanKind::kCoreFinalize), "ms");
  report->Set("models.eval_ms", self(SpanKind::kModelsEval), "ms");
  const double samples = items(SpanKind::kModelsEval);
  report->Set("models.samples", samples, "count");
  report->Set("models.ns_per_sample",
              samples > 0 ? busy(SpanKind::kModelsEval) * 1e6 / samples : 0.0,
              "ns");
  report->Set("pdb.program_ms", self(SpanKind::kPdbProgram), "ms");
  report->Set("pdb.realize_ms", self(SpanKind::kPdbRealize), "ms");
  report->Set("pdb.join_ms", self(SpanKind::kPdbJoin), "ms");
  report->Set("pdb.fold_ms", self(SpanKind::kPdbFold), "ms");
  report->Set("pdb.tuples_realized", items(SpanKind::kPdbRealize), "count");
  report->Set("pdb.tuples_joined", items(SpanKind::kPdbJoin), "count");
  report->Set("markov.chain_ms", busy(SpanKind::kMarkovChain), "ms");
  report->Set("markov.self_ms", self(SpanKind::kMarkovChain), "ms");
  report->Set("interactive.prime_ms", self(SpanKind::kInteractivePrime), "ms");
  report->Set("interactive.tick_ms", self(SpanKind::kInteractiveTick), "ms");
  report->Set("serve.self_ms", self(SpanKind::kServeRequest), "ms");
  report->Set("trace.op_ms",
              mean([](const OpBreakdown& b) { return b.total_ms; }), "ms");
  report->Set("trace.unattributed_ms", self(SpanKind::kOperation), "ms");
  const double untraced = Median(untraced_ms);
  report->Set("trace.overhead_ratio",
              untraced > 0 ? Median(traced_ms) / untraced : 0.0, "ratio");
  report->notes.push_back(
      "traced operations: " + std::to_string(ops.size()) +
      ", untraced: " + std::to_string(untraced_ms.size()) +
      ", spans: " + std::to_string(spans.size()) +
      " (layer self times are means per traced operation and add up to "
      "trace.op_ms)");
}

WorkloadReport DriveBatch(BatchWorkload& workload,
                          const WorkloadOptions& options) {
  WorkloadReport report;
  report.workload = workload.name();

  // Set-up: cold time to the first checked answer.
  const std::int64_t t0 = NowNs();
  report.attempted = 1;
  if (jigsaw::Status s = workload.SetUp(options); !s.ok()) {
    report.Fail("set-up: " + s.ToString());
    return report;
  }
  jigsaw::Result<std::uint64_t> first = workload.RunOp(0);
  report.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (!first.ok()) {
    report.Fail("first operation: " + first.status().ToString());
    return report;
  }
  report.first_digest = first.value();
  if (options.setup_only) return report;

  // Digests of completed operations with their variants; checked after
  // the loop.
  const std::size_t variants = workload.variants();
  std::vector<std::pair<std::size_t, std::uint64_t>> digests{
      {0, first.value()}};
  std::size_t next_op = 1;
  auto run = [&](bool traced) {
    const std::size_t variant = next_op++ % variants;
    jigsaw::Result<std::uint64_t> d =
        traced ? workload.RunTracedOp(variant) : workload.RunOp(variant);
    ++report.attempted;
    if (!d.ok()) {
      report.Fail(std::string(traced ? "traced " : "") + "operation: " +
                  d.status().ToString());
    } else {
      digests.emplace_back(variant, d.value());
    }
  };

  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  if (!options.trace) {
    std::vector<double> latencies_ms;
    const std::int64_t start = NowNs();
    do {
      const std::int64_t t = NowNs();
      run(false);
      latencies_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
    } while (NowNs() < deadline);
    const double phase_s = static_cast<double>(NowNs() - start) * 1e-9;
    const double completed = static_cast<double>(digests.size() - 1);
    report.Set("latency_p50_ms", Median(latencies_ms), "ms");
    report.Set("latency_samples", static_cast<double>(latencies_ms.size()),
               "count");
    if (auto p99 = TailQuantile(latencies_ms, 0.99)) {
      report.Set("latency_p99_ms", *p99, "ms");
    }
    report.Set("work_per_s", completed * workload.work_per_op() / phase_s,
               "1/s");
    report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Set("setup_s", report.setup_s, "s");
    report.notes.push_back(std::string("work unit: ") + workload.work_unit() +
                           "; operations rotate through " +
                           std::to_string(variants) + " input variant(s)");
  } else {
    // Pairs of one untraced and one traced operation on the same variant.
    // Once the spans held reach kSpanCap, the rest of the run's time goes
    // to untraced operations only.
    SetSingleClient(true);
    std::vector<double> untraced_ms;
    bool tracing = true;
    do {
      const std::int64_t t = NowNs();
      run(false);
      untraced_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      tracing = tracing && RecordedSpanCount() < kSpanCap;
      if (tracing) {
        --next_op;
        SetTracing(true);
        run(true);
        SetTracing(false);
      }
    } while (NowNs() < deadline);
    AddSpanMetrics(untraced_ms, options.spans_path, &report);
    workload.AddLayerCounters(&report);
  }

  // Checks, outside the timed window: every digest against the serial
  // twin of its variant.
  std::vector<std::uint64_t> twins;
  for (std::size_t variant = 0; variant < variants; ++variant) {
    jigsaw::Result<std::uint64_t> twin = workload.SerialTwinDigest(variant);
    if (!twin.ok()) {
      report.Fail("serial twin: " + twin.status().ToString());
      return report;
    }
    twins.push_back(twin.value());
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const auto [variant, digest] = digests[i];
    if (digest != twins[variant]) {
      report.Fail("operation " + std::to_string(i) + " digest " + Hex(digest) +
                  " != serial twin " + Hex(twins[variant]));
    }
  }
  report.reference_digest = twins[0];
  return report;
}

WorkloadReport RunWorkload(const std::string& name,
                           const WorkloadOptions& options) {
  std::unique_ptr<BatchWorkload> batch;
  if (name == "optimize_fig1") batch = MakeOptimizeFig1(options);
  if (name == "join_1e6") batch = MakeJoin1e6(options);
  if (name == "chain_fig5") batch = MakeChainFig5(options);
  if (batch != nullptr) return DriveBatch(*batch, options);
  if (name == "serve_mixed") return DriveServeMixed(options);
  WorkloadReport report;
  report.workload = name;
  report.attempted = 1;
  report.Fail("unknown workload '" + name + "'");
  return report;
}

}  // namespace perfbench
