// Benchmark driver: runs one workload in this process and prints one JSON
// object describing the run on stdout. perfbench/run.py builds this
// binary, launches it (plus cold set-up probes), and prints the result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--spans <path>]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "digest.h"
#include "workloads.h"

namespace {

using perfbench::Hex;
using perfbench::WorkloadReport;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void Print(const WorkloadReport& r, const perfbench::WorkloadOptions& o) {
  std::string out = "{";
  out += "\"workload\": " + JsonString(r.workload);
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"trace\": " + std::string(o.trace ? "1" : "0");
  out += ", \"setup_only\": " + std::string(o.setup_only ? "true" : "false");
  out += ", \"setup_s\": " + JsonNumber(r.setup_s);
  out += ", \"first_digest\": " + JsonString(Hex(r.first_digest));
  out += ", \"reference_digest\": " + JsonString(Hex(r.reference_digest));
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  out += "], \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out += (i ? ", " : "") + JsonString(r.notes[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <optimize_fig1|join_1e6|"
               "serve_mixed|chain_fig5> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-only] [--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::WorkloadOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (next == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans") {
      options.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !(options.seconds > 0)) return Usage();

  WorkloadReport report = perfbench::RunWorkload(workload, options);
  if (options.trace && !options.setup_only) {
    // Every per-layer metric, 0 where this workload never calls the layer.
    WorkloadReport full = report;
    full.metrics.clear();
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      double value = 0.0;
      for (const perfbench::Metric& m : report.metrics) {
        if (m.name == name) value = m.value;
      }
      full.metrics.push_back({name, value, unit});
    }
    report = std::move(full);
  }
  Print(report, options);
  return report.failed == 0 ? 0 : 1;
}
