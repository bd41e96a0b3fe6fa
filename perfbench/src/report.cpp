#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json_writer.h"
#include "util/stats.h"

namespace perfbench {

Quantiles summarize(std::vector<double>& values) {
  Quantiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.count = values.size();
  q.p50 = smerge::util::quantile_sorted(values, 0.50);
  q.p99 = smerge::util::quantile_sorted(values, 0.99);
  q.max = values.back();
  q.beyond_p99 = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), q.p99));
  return q;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return smerge::util::quantile_sorted(values, 0.50);
}

double AdmissionTally::failed_ratio() const noexcept {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

AdmissionTally tally_admissions(std::uint64_t attempted, std::uint64_t refused,
                                const std::vector<double>& latencies_ms,
                                double limit_ms) {
  if (refused + latencies_ms.size() > attempted) {
    throw std::invalid_argument(
        "tally_admissions: more outcomes than attempted admissions");
  }
  AdmissionTally t;
  t.attempted = attempted;
  t.refused = refused;
  t.unticketed = attempted - refused - latencies_ms.size();
  t.late = static_cast<std::uint64_t>(
      std::count_if(latencies_ms.begin(), latencies_ms.end(),
                    [limit_ms](double ms) { return !(ms <= limit_ms); }));
  return t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += smerge::util::json_escape(text);
  out += '"';
  return out;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string json_hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"", static_cast<unsigned long long>(value));
  return buf;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& metric : metrics) {
    m.raw(metric.name,
          JsonObject().num("value", metric.value).str("unit", metric.unit).dump());
  }
  return JsonObject()
      .boolean("correct", correct)
      .integer("attempted", static_cast<std::int64_t>(attempted))
      .integer("failed", static_cast<std::int64_t>(failed))
      .raw("metrics", m.dump())
      .dump();
}

}  // namespace perfbench
