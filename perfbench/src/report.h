// Result arithmetic shared by every workload: nearest-rank percentiles
// with their sample counts, the failed-admission tally, medians over
// rounds, peak RSS, and the one-line JSON result the driver parses.
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A timing distribution as reported: nearest-rank (the value at 1-based
/// rank ceil(q * n), util::quantile_sorted) median and p99 and the
/// maximum, plus the
/// number of samples they were taken over and how many lie strictly
/// above the p99 (a p99 is only meaningful with >= 10 samples beyond it).
struct Quantiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t beyond_p99 = 0;
};

/// Sorts `values` in place and summarizes them; all fields zero when
/// `values` is empty.
[[nodiscard]] Quantiles summarize(std::vector<double>& values);

/// Median of a small set (rounds of one run): nearest-rank p50; 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// How the attempted admissions of a run ended. An admission fails when
/// it was refused, never ticketed, or ticketed later than the latency
/// limit; the three causes are disjoint.
struct AdmissionTally {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t unticketed = 0;
  std::uint64_t late = 0;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return refused + unticketed + late;
  }
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double failed_ratio() const noexcept;
};

/// Tallies one run: `latencies_ms` holds one entry per *ticketed*
/// admission (refused ones excluded); everything attempted that is
/// neither refused nor in `latencies_ms` was never ticketed. Throws
/// std::invalid_argument when the counts are inconsistent.
[[nodiscard]] AdmissionTally tally_admissions(
    std::uint64_t attempted, std::uint64_t refused,
    const std::vector<double>& latencies_ms, double limit_ms);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One named metric with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// A number with every significant digit a double carries (JSON-safe:
/// non-finite values become null).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);
[[nodiscard]] std::string json_array(const std::vector<double>& values);
/// A 64-bit digest as a JSON string of 16 hex digits.
[[nodiscard]] std::string json_hex(std::uint64_t value);

/// Minimal ordered JSON object for the one-line detail and result output.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::int64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  /// `raw_json` must already be valid JSON (a nested object or array).
  JsonObject& raw(const std::string& key, const std::string& raw_json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The driver's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H
