#pragma once

/// \file bench_common.h
/// Shared plumbing for the paper-reproduction benchmarks. Every bench
/// binary regenerates one table or figure of the paper's Section 6; the
/// google-benchmark rows are the figure's series points and the counters
/// carry the derived quantities the paper plots (s/point, ms/step,
/// speedup, basis counts).
///
/// Sizes are scaled relative to the paper's 2.4 GHz Core2 Duo + Ruby
/// setup so each binary finishes in about a minute; the *ratios* are what
/// the reproduction checks. Set JIGSAW_BENCH_FULL=1 to run the paper's
/// full parameter-space sizes.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>

#include "core/run_config.h"

namespace jigsaw::bench {

inline bool FullScale() {
  const char* env = std::getenv("JIGSAW_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// The paper's experimental setup (Section 6): 1000 sample instances per
/// point, fingerprint size 10.
inline RunConfig PaperConfig() {
  RunConfig cfg;
  cfg.num_samples = 1000;
  cfg.fingerprint_size = 10;
  return cfg;
}

/// Sizing flags shared by the bench binaries. Parsed with ParseBenchFlags
/// *before* benchmark::Initialize so the two flag namespaces never clash.
struct BenchFlags {
  std::size_t num_samples = 1000;
  std::size_t num_threads = 1;
  std::size_t batch_size = 64;
  std::size_t num_sessions = 8;  ///< concurrent clients (serving benches)
};

/// Parses and strips `--num_samples=N`, `--num_threads=N`,
/// `--batch_size=N` and `--num_sessions=N` (also the two-token
/// `--flag N` form) from argv, compacting the remaining arguments in
/// place. Unrecognized flags are
/// left for the caller (e.g. google-benchmark's own Initialize).
inline BenchFlags ParseBenchFlags(int* argc, char** argv) {
  BenchFlags flags;
  auto match = [](const char* arg, const char* name,
                  const char** value) -> bool {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) return false;
    if (arg[len] == '=') {
      *value = arg + len + 1;
      return true;
    }
    if (arg[len] == '\0') {
      *value = nullptr;  // value is the next argv token
      return true;
    }
    return false;
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* value = nullptr;
    std::size_t* target = nullptr;
    if (match(argv[i], "--num_samples", &value)) {
      target = &flags.num_samples;
    } else if (match(argv[i], "--num_threads", &value)) {
      target = &flags.num_threads;
    } else if (match(argv[i], "--batch_size", &value)) {
      target = &flags.batch_size;
    } else if (match(argv[i], "--num_sessions", &value)) {
      target = &flags.num_sessions;
    }
    if (target == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    const char* flag = argv[i];
    // Two-token form: only a token that isn't itself a flag is a value.
    if (value == nullptr && i + 1 < *argc && argv[i + 1][0] != '-') {
      value = argv[++i];
    }
    char* end = nullptr;
    if (value != nullptr && *value >= '0' && *value <= '9') {
      const unsigned long long parsed = std::strtoull(value, &end, 10);
      if (end != nullptr && *end == '\0') {
        *target = static_cast<std::size_t>(parsed);
        continue;
      }
    }
    std::fprintf(stderr,
                 "warning: ignoring %s (missing or non-numeric value)\n",
                 flag);
  }
  *argc = out;
  return flags;
}

/// Builds one JSON-lines record — `{"k":v,...}` — with keys in call
/// order. Numbers are printed with round-trip precision so BENCH_*.json
/// trajectories can be diffed mechanically across runs.
class JsonLineBuilder {
 public:
  JsonLineBuilder& Str(const std::string& key, const std::string& value) {
    Key(key);
    line_ += '"';
    Escape(value);
    line_ += '"';
    return *this;
  }

  JsonLineBuilder& Num(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    Key(key);
    line_ += buf;
    return *this;
  }

  /// The finished record, without a trailing newline.
  std::string Build() const { return line_ + "}"; }

 private:
  void Key(const std::string& key) {
    line_ += line_.empty() ? "{\"" : ",\"";
    Escape(key);
    line_ += "\":";
  }
  void Escape(const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') line_ += '\\';
      line_ += c;
    }
  }
  std::string line_;
};

/// Writes one record per line (the JSON-lines convention).
inline void EmitJsonLine(std::ostream& os, const JsonLineBuilder& builder) {
  os << builder.Build() << "\n";
}

}  // namespace jigsaw::bench
