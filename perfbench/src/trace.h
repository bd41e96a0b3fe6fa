// Spans recorded by the benchmark around its own calls into each layer
// (net, server, ledger, online). A traced run keeps every span in
// memory — one single-writer lane per thread, so recording takes no
// lock — and writes them out once the run ends. Untraced runs pass a
// null lane and record nothing (no clock reads).
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval. `parent` is the id of the span that caused
/// it (0 = top-level); a parent may live on another lane.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";  ///< a string literal
  std::uint32_t lane = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer;

/// A single thread's span buffer.
class Lane {
 public:
  Lane(Tracer& tracer, std::uint32_t index) : tracer_(tracer), index_(index) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Reserves an id for a span whose interval is recorded later with
  /// `record` (so children can name it as their parent first).
  [[nodiscard]] std::uint64_t reserve_id() noexcept;
  /// Records a finished span; returns its id (fresh when `id` is 0).
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       std::uint64_t id = 0);

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  Tracer& tracer_;
  std::uint32_t index_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new lane for the calling thread. Lanes live as long as the
  /// tracer; each must be written by one thread at a time.
  Lane& add_lane();

  /// Every span of every lane, ordered by (lane, record order). Call
  /// only after the threads writing the lanes have been joined.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  friend class Lane;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span on `lane`; records nothing when `lane` is null.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, std::uint64_t parent = 0)
      : lane_(lane), name_(name), parent_(parent) {
    if (lane_ != nullptr) {
      id_ = lane_->reserve_id();
      start_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->record(name_, parent_, start_, now_ns(), id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when untraced) — the parent of nested spans.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Lane* lane_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the length of the union of its children's intervals, each
/// clipped to the parent's interval. Never negative.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals.
struct NameStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Totals grouped by span name, in order of first appearance.
[[nodiscard]] std::vector<NameStats> by_name(const std::vector<Span>& spans,
                                             const std::vector<std::int64_t>& self);

/// Summed duration of the top-level spans (parent 0) on `lane`, in ms.
[[nodiscard]] double top_level_ms(const std::vector<Span>& spans, std::uint32_t lane);

/// Writes spans as CSV (id,parent,lane,name,start_ns,end_ns,self_ns;
/// times relative to the earliest start). Throws std::runtime_error
/// when the file cannot be written.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
