#pragma once

/// \file trace.h
/// Span recorder for the traced benchmark run. Spans are opened by the
/// benchmark's own code around its calls into each jigsaw layer (and by
/// the forwarding decorators in decorators.h), kept in per-thread
/// buffers, and attributed after the run:
///
///  * every span records (kind, start, end, parent, operation id);
///  * a span opened on a thread with no open span of its own (a pool
///    worker running part of an operation) takes as parent the innermost
///    open span of the single client thread, when the workload has one;
///  * the wall time of an operation is split, instant by instant, among
///    the innermost spans open at that instant (equally when several
///    threads are busy), so a span's self time is its duration minus the
///    part its children cover, and the self times of all spans of an
///    operation add up to its duration.
///
/// Nothing is recorded while tracing is disabled: a ScopedSpan then costs
/// one relaxed atomic load.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kOperation,  ///< root span of one operation; its self time is unattributed
  kSqlParse,
  kSqlBind,
  kCoreOptimize,
  kCoreFinalize,
  kModelsEval,
  kPdbProgram,
  kPdbRealize,
  kPdbJoin,
  kPdbFold,
  kMarkovChain,
  kInteractivePrime,
  kInteractiveTick,
  kServeRequest,
  kCount,
};

inline constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

const char* SpanName(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int32_t op = -1;
  SpanKind kind = SpanKind::kOperation;
  /// Work the call covered (samples, tuples); an operation's label.
  std::uint32_t items = 0;
};

/// Monotonic clock in nanoseconds.
std::int64_t NowNs();

void SetTracing(bool on);
bool TracingEnabled();

/// With one client thread (the default), spans opened on threads that
/// have no open span inherit the client's innermost open span. With
/// several client threads that parent is ambiguous, so such spans are
/// recorded without parent or operation and left out of attribution.
void SetSingleClient(bool single);

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, std::uint32_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint32_t items) { span_.items = items; }

 private:
  bool active_ = false;
  Span span_;
};

/// Calls fn() under a span of `kind` and returns what it returns.
template <typename Fn>
auto InSpan(SpanKind kind, Fn&& fn) {
  ScopedSpan span(kind);
  return fn();
}

/// Root span of one operation on the calling (client) thread. `label`
/// tags the operation (a request kind); it is stored in the root span.
class OperationScope {
 public:
  explicit OperationScope(std::uint32_t label = 0);
  ~OperationScope();
  OperationScope(const OperationScope&) = delete;
  OperationScope& operator=(const OperationScope&) = delete;

 private:
  ScopedSpan root_;
};

/// Number of spans recorded so far (all threads). Call only while no
/// thread is inside a span, like CollectSpans.
std::size_t RecordedSpanCount();

/// Moves every recorded span out of the per-thread buffers. Call only
/// while no thread is inside a span.
std::vector<Span> CollectSpans();

/// Per-operation attribution of wall time to span kinds.
struct OpBreakdown {
  std::int32_t op = -1;
  std::uint32_t label = 0;
  double total_ms = 0.0;
  /// Wall time attributed to each kind; kOperation holds the time no
  /// layer span covered.
  std::array<double, kNumSpanKinds> self_ms{};
  /// Summed durations of the kind's spans (busy time across threads).
  std::array<double, kNumSpanKinds> busy_ms{};
  std::array<std::uint64_t, kNumSpanKinds> items{};

  double attributed_ms() const;
};

/// Splits each operation's duration among its spans (see the file
/// comment). Spans without an operation are ignored. Operations are
/// returned in id order.
std::vector<OpBreakdown> AttributeOperations(const std::vector<Span>& spans);

/// Writes spans as tab-separated text (one header line). Returns false
/// when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
