#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint64_t Lane::reserve_id() noexcept {
  return tracer_.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t Lane::record(const char* name, std::uint64_t parent,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t id) {
  if (id == 0) id = reserve_id();
  spans_.push_back(Span{id, parent, name, index_, start_ns, end_ns});
  return id;
}

Lane& Tracer::add_lane() {
  const std::lock_guard lock(lanes_mutex_);
  lanes_.push_back(
      std::make_unique<Lane>(*this, static_cast<std::uint32_t>(lanes_.size())));
  return *lanes_.back();
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(lanes_mutex_);
  std::vector<Span> all;
  for (const auto& lane : lanes_) {
    all.insert(all.end(), lane->spans().begin(), lane->spans().end());
  }
  return all;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Children's intervals clipped to their parent, grouped per parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    std::int64_t union_len = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : parts) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_len += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_len += run_hi - run_lo;
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = std::max<std::int64_t>(0, duration - union_len);
  }
  return self;
}

std::vector<NameStats> by_name(const std::vector<Span>& spans,
                               const std::vector<std::int64_t>& self) {
  std::vector<NameStats> out;
  std::unordered_map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto [it, fresh] = slot.emplace(spans[i].name, out.size());
    if (fresh) out.push_back(NameStats{spans[i].name, 0, 0.0, 0.0});
    NameStats& s = out[it->second];
    ++s.count;
    s.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    s.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

double top_level_ms(const std::vector<Span>& spans, std::uint32_t lane) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.lane == lane) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return total;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::fprintf(f, "id,parent,lane,name,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.lane, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(self[i]));
  }
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    throw std::runtime_error("cannot finish span file " + path);
  }
}

}  // namespace perfbench
