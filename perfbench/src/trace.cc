#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

constexpr int kThreadShift = 40;

struct ThreadBuffer {
  std::int64_t thread_index = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_single_client{true};
std::atomic<std::int64_t> g_ambient_span{-1};
std::atomic<std::int32_t> g_ambient_op{-1};
std::atomic<std::int32_t> g_next_op{0};

/// Open spans of the calling thread. Buffers are owned by g_buffers, so
/// spans recorded by a pool worker outlive the worker.
struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  std::int64_t next_local = 0;
  std::vector<std::int64_t> open_ids;
  std::vector<std::int32_t> open_ops;
  bool root_open = false;  ///< this thread holds an operation's root span
};

thread_local ThreadState t_state;

ThreadBuffer* BufferForThisThread() {
  if (t_state.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread_index =
        static_cast<std::int64_t>(g_buffers.size() - 1);
    t_state.buffer = g_buffers.back().get();
  }
  return t_state.buffer;
}

void PublishAmbient() {
  if (!t_state.root_open || !g_single_client.load(std::memory_order_relaxed))
    return;
  g_ambient_span.store(t_state.open_ids.back(), std::memory_order_release);
  g_ambient_op.store(t_state.open_ops.back(), std::memory_order_release);
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOperation: return "operation";
    case SpanKind::kSqlParse: return "sql.parse";
    case SpanKind::kSqlBind: return "sql.bind";
    case SpanKind::kCoreOptimize: return "core.optimize";
    case SpanKind::kCoreFinalize: return "core.finalize";
    case SpanKind::kModelsEval: return "models.eval";
    case SpanKind::kPdbProgram: return "pdb.program";
    case SpanKind::kPdbRealize: return "pdb.realize";
    case SpanKind::kPdbJoin: return "pdb.join";
    case SpanKind::kPdbFold: return "pdb.fold";
    case SpanKind::kMarkovChain: return "markov.chain";
    case SpanKind::kInteractivePrime: return "interactive.prime";
    case SpanKind::kInteractiveTick: return "interactive.tick";
    case SpanKind::kServeRequest: return "serve.request";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void SetSingleClient(bool single) {
  g_single_client.store(single, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint32_t items) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  active_ = true;
  ThreadBuffer* buffer = BufferForThisThread();
  span_.kind = kind;
  span_.items = items;
  span_.id = (buffer->thread_index << kThreadShift) | t_state.next_local++;
  if (!t_state.open_ids.empty()) {
    span_.parent = t_state.open_ids.back();
    span_.op = t_state.open_ops.back();
  } else if (kind == SpanKind::kOperation) {
    span_.op = g_next_op.fetch_add(1, std::memory_order_relaxed);
    t_state.root_open = true;
  } else if (g_single_client.load(std::memory_order_relaxed)) {
    span_.parent = g_ambient_span.load(std::memory_order_acquire);
    span_.op = g_ambient_op.load(std::memory_order_acquire);
  }
  t_state.open_ids.push_back(span_.id);
  t_state.open_ops.push_back(span_.op);
  PublishAmbient();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_state.open_ids.pop_back();
  t_state.open_ops.pop_back();
  if (span_.kind == SpanKind::kOperation && t_state.open_ids.empty()) {
    t_state.root_open = false;
    g_ambient_span.store(-1, std::memory_order_release);
    g_ambient_op.store(-1, std::memory_order_release);
  } else if (!t_state.open_ids.empty()) {
    PublishAmbient();
  }
  t_state.buffer->spans.push_back(span_);
}

OperationScope::OperationScope(std::uint32_t label)
    : root_(SpanKind::kOperation, label) {}

OperationScope::~OperationScope() = default;

std::size_t RecordedSpanCount() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::size_t n = 0;
  for (const auto& buffer : g_buffers) n += buffer->spans.size();
  return n;
}

std::vector<Span> CollectSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return out;
}

double OpBreakdown::attributed_ms() const {
  double sum = 0.0;
  for (std::size_t k = 1; k < kNumSpanKinds; ++k) sum += self_ms[k];
  return sum;
}

std::vector<OpBreakdown> AttributeOperations(const std::vector<Span>& spans) {
  std::map<std::int32_t, std::vector<const Span*>> by_op;
  for (const Span& s : spans) {
    if (s.op >= 0) by_op[s.op].push_back(&s);
  }

  std::vector<OpBreakdown> out;
  for (const auto& [op, members] : by_op) {
    const Span* root = nullptr;
    for (const Span* s : members) {
      if (s->kind == SpanKind::kOperation && s->parent < 0) root = s;
    }
    if (root == nullptr) continue;

    OpBreakdown b;
    b.op = op;
    b.label = root->items;
    b.total_ms = static_cast<double>(root->end_ns - root->start_ns) * 1e-6;

    // Interval sweep over the operation's spans, clipped to the root.
    struct Event {
      std::int64_t t;
      std::size_t index;
      bool open;
    };
    std::vector<Event> events;
    events.reserve(2 * members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Span& s = *members[i];
      const std::size_t k = static_cast<std::size_t>(s.kind);
      b.busy_ms[k] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      if (&s != root) b.items[k] += s.items;
      const std::int64_t start = std::max(s.start_ns, root->start_ns);
      const std::int64_t end = std::min(s.end_ns, root->end_ns);
      if (end <= start) continue;
      events.push_back({start, i, true});
      events.push_back({end, i, false});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.t < b.t; });

    std::vector<std::size_t> active;
    std::vector<std::size_t> leaves;
    std::size_t e = 0;
    while (e < events.size()) {
      const std::int64_t t = events[e].t;
      for (; e < events.size() && events[e].t == t; ++e) {
        if (events[e].open) {
          active.push_back(events[e].index);
        } else {
          active.erase(
              std::find(active.begin(), active.end(), events[e].index));
        }
      }
      if (e == events.size() || active.empty()) continue;
      const double dt_ms = static_cast<double>(events[e].t - t) * 1e-6;
      leaves.clear();
      for (std::size_t a : active) {
        bool has_open_child = false;
        for (std::size_t c : active) {
          if (members[c]->parent == members[a]->id) has_open_child = true;
        }
        if (!has_open_child) leaves.push_back(a);
      }
      const double share = dt_ms / static_cast<double>(leaves.size());
      for (std::size_t leaf : leaves) {
        b.self_ms[static_cast<std::size_t>(members[leaf]->kind)] += share;
      }
    }
    out.push_back(b);
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tid\tparent\tname\tstart_ns\tend_ns\titems\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%d\t%lld\t%lld\t%s\t%lld\t%lld\t%u\n", s.op,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), SpanName(s.kind),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.items);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
