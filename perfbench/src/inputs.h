// Inputs and shared plumbing of the benchmark: command-line options, the
// seeded Poisson/Zipf catalogue every workload draws from, and the
// result record a workload hands back to main.
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fib/fibonacci.h"
#include "sim/workload.h"
#include "trace.h"

namespace perfbench {

using smerge::Index;

/// Guaranteed start-up delay (slot width), in media lengths.
inline constexpr double kDelay = 0.01;
/// Zipf popularity exponent of every catalogue.
inline constexpr double kZipf = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span CSV path of a traced run ("" = none)
};

/// Poisson arrivals over a Zipf(kZipf) catalogue: `objects` objects,
/// about `arrivals` arrivals in total at aggregate mean gap `mean_gap`
/// (the horizon follows), all drawn from `seed`.
[[nodiscard]] smerge::sim::WorkloadConfig catalogue(Index objects,
                                                    double arrivals,
                                                    double mean_gap,
                                                    std::uint64_t seed);

/// Sorted arrival times per object (index = object id).
using Traces = std::vector<std::vector<double>>;
[[nodiscard]] Traces make_traces(const smerge::sim::WorkloadConfig& config);
[[nodiscard]] std::uint64_t total_arrivals(const Traces& traces);

/// One arrival in send order.
struct Send {
  double time = 0.0;
  Index object = 0;
};

/// The arrivals of every object with `object % stride == residue`,
/// merged into nondecreasing time order (ties by object id) — the order
/// a single client or producer sends them in.
[[nodiscard]] std::vector<Send> merge_by_time(const Traces& traces,
                                              Index stride = 1,
                                              Index residue = 0);

/// Correctness checks of one run; every failure is kept and reported.
class Checks {
 public:
  void require(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// What a workload hands back to main.
struct RunOutput {
  Checks checks;
  std::uint64_t attempted = 0;  ///< admissions attempted (all rounds)
  std::uint64_t failed = 0;     ///< admissions left without any answer
  /// End-to-end metrics (untraced run) or per-layer metrics (traced
  /// run), by name; units come from main's metric tables.
  std::map<std::string, double> metrics;
  /// Extra facts for the detail line: sample counts, rates, limits,
  /// digests, reconciliation.
  std::map<std::string, std::string> detail;  ///< key -> raw JSON value
  std::vector<Span> spans;                    ///< traced runs only
};

/// Wall seconds since `start_ns`.
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// The traced run's schedule: calls `round(traced)` in untraced/traced
/// pairs, alternating which of the two goes first, until `seconds` have
/// passed (at least two pairs), so tracing overhead compares medians of
/// rounds taken under the same conditions.
template <typename RoundFn>
void alternate_pairs(double seconds, RoundFn&& round) {
  const std::int64_t start = now_ns();
  double pair_s = 0.0;
  for (int pair = 0; pair < 2 || seconds_since(start) + pair_s <= seconds; ++pair) {
    const std::int64_t p0 = now_ns();
    const bool traced_first = pair % 2 == 1;
    round(traced_first);
    round(!traced_first);
    pair_s = seconds_since(p0);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
