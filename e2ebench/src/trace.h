// In-memory span recorder for the traced run.
//
// Every client thread owns one SpanBuffer; spans are appended to it in
// the order they end and written out when the run finishes, so
// recording is a clock read plus a vector push. A span records its
// name, start, end, parent span, the request it belongs to, and whether
// it is a *replay*: a public stage function (Annotate, TrimmedIndex,
// ...) re-run by the benchmark on the same inputs to price a stage the
// engine call ran internally. Replays that reproduce the whole inner
// work of a call are parented to that call, so the summarizer can
// subtract them from the call's duration to get its self time; sampled
// replays are roots.

#ifndef DSW_E2EBENCH_TRACE_H_
#define DSW_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t id;
  int64_t parent;  // -1 for a root
  int64_t request;
  bool replay;
};

class SpanBuffer {
 public:
  // Span ids are unique across buffers: the owner index is folded into
  // the high bits.
  SpanBuffer(bool enabled, uint32_t owner)
      : enabled_(enabled), next_id_(static_cast<int64_t>(owner) << 40) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when tracing is off). Spans
  // close in LIFO order per buffer.
  int64_t Begin(const char* name, int64_t request, int64_t parent,
                bool replay = false) {
    if (!enabled_) return -1;
    open_.push_back(Span{name, NowNs(), 0, next_id_++, parent, request,
                         replay});
    return open_.back().id;
  }

  void End() {
    if (!enabled_) return;
    Span s = open_.back();
    open_.pop_back();
    s.end_ns = NowNs();
    done_.push_back(s);
  }

  // Tab-separated: request, id, parent, name, start, end, replay.
  void WriteTsv(std::FILE* f) const {
    for (const Span& s : done_)
      std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\t%d\n",
                   static_cast<long long>(s.request),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.replay ? 1 : 0);
  }

 private:
  bool enabled_;
  int64_t next_id_;
  std::vector<Span> open_;
  std::vector<Span> done_;
};

// RAII span; a no-op when the buffer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, const char* name, int64_t request,
             int64_t parent, bool replay = false)
      : buf_(buf), id_(buf.Begin(name, request, parent, replay)) {}
  ~ScopedSpan() { buf_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanBuffer& buf_;
  int64_t id_;
};

}  // namespace e2e

#endif  // DSW_E2EBENCH_TRACE_H_
