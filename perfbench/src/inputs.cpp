#include "inputs.h"

#include <algorithm>

#include "util/parallel.h"

namespace perfbench {

smerge::sim::WorkloadConfig catalogue(Index objects, double arrivals,
                                      double mean_gap, std::uint64_t seed) {
  smerge::sim::WorkloadConfig config;
  config.process = smerge::sim::ArrivalProcess::kPoisson;
  config.objects = objects;
  config.zipf_exponent = kZipf;
  config.mean_gap = mean_gap;
  config.horizon = arrivals * mean_gap;
  config.seed = seed;
  smerge::sim::validate(config);
  return config;
}

Traces make_traces(const smerge::sim::WorkloadConfig& config) {
  const std::vector<double> weights =
      smerge::sim::zipf_weights(config.objects, config.zipf_exponent);
  Traces traces(static_cast<std::size_t>(config.objects));
  smerge::util::parallel_for(
      0, config.objects,
      [&](std::int64_t m) {
        const auto i = static_cast<std::size_t>(m);
        traces[i] = smerge::sim::generate_arrivals(config, m, weights[i]);
      },
      2);
  return traces;
}

std::uint64_t total_arrivals(const Traces& traces) {
  std::uint64_t n = 0;
  for (const auto& t : traces) n += t.size();
  return n;
}

std::vector<Send> merge_by_time(const Traces& traces, Index stride,
                                Index residue) {
  std::vector<Send> sends;
  for (auto m = static_cast<std::size_t>(residue); m < traces.size();
       m += static_cast<std::size_t>(stride)) {
    for (const double t : traces[m]) sends.push_back({t, static_cast<Index>(m)});
  }
  std::sort(sends.begin(), sends.end(), [](const Send& a, const Send& b) {
    return a.time < b.time || (a.time == b.time && a.object < b.object);
  });
  return sends;
}

void Checks::require(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

}  // namespace perfbench
