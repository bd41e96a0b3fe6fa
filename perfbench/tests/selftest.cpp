// The benchmark's own arithmetic: nearest-rank percentiles and their
// sample counts, failed-admission tallies (refused, never ticketed,
// late), and span self time. Exits 1 if any expectation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "util/stats.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  // Ranks 1..100: p50 is the 50th value, p99 the 99th, nothing is
  // interpolated.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Quantiles q = summarize(v);
  expect(q.count == 100, "count of 100 samples");
  expect(near(q.p50, 50.0), "p50 of 1..100 is 50");
  expect(near(q.p99, 99.0), "p99 of 1..100 is 99");
  expect(near(q.max, 100.0), "max of 1..100 is 100");
  expect(q.beyond_p99 == 1, "one sample beyond p99 of 1..100");

  std::vector<double> odd{3.0, 1.0, 2.0};
  const Quantiles q3 = summarize(odd);
  expect(q3.count == 3 && near(q3.p50, 2.0), "p50 of {1,2,3} is 2");
  expect(near(q3.p99, 3.0), "p99 of three samples is the largest");

  std::vector<double> one{7.5};
  const Quantiles q1 = summarize(one);
  expect(q1.count == 1 && near(q1.p50, 7.5) && near(q1.p99, 7.5),
         "a single sample is every percentile");
  expect(q1.beyond_p99 == 0, "nothing lies beyond the only sample");

  std::vector<double> none;
  const Quantiles q0 = summarize(none);
  expect(q0.count == 0 && q0.p50 == 0.0, "empty set summarizes to zeros");

  // The rank rule at its boundaries: rank ceil(q * n), at least 1.
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  expect(near(smerge::util::quantile_sorted(sorted, 0.0), 1.0), "q=0 is the minimum");
  expect(near(smerge::util::quantile_sorted(sorted, 0.25), 1.0), "q=0.25 of 4 is rank 1");
  expect(near(smerge::util::quantile_sorted(sorted, 0.26), 2.0), "q=0.26 of 4 is rank 2");
  expect(near(smerge::util::quantile_sorted(sorted, 1.0), 4.0), "q=1 is the maximum");
  expect(throws([&] { (void)smerge::util::quantile_sorted(sorted, 1.5); }), "q > 1 throws");

  // 2000 samples: p99 has 20 samples beyond it (ties excluded).
  std::vector<double> big;
  for (int i = 1; i <= 2000; ++i) big.push_back(i);
  const Quantiles qb = summarize(big);
  expect(near(qb.p99, 1980.0) && qb.beyond_p99 == 20, "p99 of 1..2000");

  expect(near(median({5.0, 1.0, 3.0, 2.0}), 2.0), "median is the nearest-rank p50");
}

void test_failed_ratio() {
  // 10 attempted: 2 refused, 6 ticketed (one of them late), 2 missing.
  const std::vector<double> lat{1.0, 2.0, 3.0, 25.0, 25.0001, 4.0};
  const AdmissionTally t = tally_admissions(10, 2, lat, 25.0);
  expect(t.refused == 2, "refused counted");
  expect(t.unticketed == 2, "missing tickets counted");
  expect(t.late == 1, "a ticket at the limit is on time, above it is late");
  expect(t.failed() == 5, "failed = refused + unticketed + late");
  expect(near(t.failed_ratio(), 0.5), "failed_ratio = 5 / 10");

  const AdmissionTally clean = tally_admissions(3, 0, {0.5, 0.6, 0.7}, 25.0);
  expect(clean.failed() == 0 && clean.failed_ratio() == 0.0, "all on time");

  const AdmissionTally nan_late =
      tally_admissions(1, 0, {std::nan("")}, 25.0);
  expect(nan_late.late == 1, "an unmeasurable latency counts as late");

  expect(tally_admissions(0, 0, {}, 1.0).failed_ratio() == 0.0,
         "nothing attempted, nothing failed");
  expect(throws([] { (void)tally_admissions(2, 1, {1.0, 2.0}, 5.0); }),
         "more outcomes than attempts throws");
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
  return Span{id, parent, "s", 0, start, end};
}

void test_self_time() {
  // Parent [0,100) with children [10,30), [20,50) (overlapping: union
  // 10..50 = 40), [90,120) (clipped to 90..100 = 10), and a grandchild
  // [12,18) inside the first child.
  const std::vector<Span> spans{
      span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
      span(4, 1, 90, 120), span(5, 2, 12, 18), span(6, 0, 200, 210),
      span(7, 99, 0, 5),  // unknown parent: treated as a root
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 100 - 40 - 10, "parent self = duration - union of children");
  expect(self[1] == 20 - 6, "child self excludes its grandchild");
  expect(self[2] == 30, "leaf self is its duration");
  expect(self[3] == 30, "a child's own self ignores its parent's bounds");
  expect(self[4] == 6 && self[5] == 10 && self[6] == 5, "leaves and roots");

  // A child covering its parent entirely leaves zero self, never less.
  const std::vector<Span> covered{span(1, 0, 10, 20), span(2, 1, 0, 30)};
  expect(self_times(covered)[0] == 0, "fully covered parent has zero self");

  const std::vector<NameStats> stats = by_name(spans, self);
  expect(stats.size() == 1 && stats[0].count == 7, "one name, seven spans");
  double total_self = 0.0;
  for (const std::int64_t s : self) total_self += static_cast<double>(s);
  expect(near(stats[0].self_ms, total_self / 1e6), "self totals add up");
  expect(near(top_level_ms(spans, 0), (100.0 + 10.0) / 1e6),
         "top-level ms sums parent-0 spans only");

  // Tracer lanes: ids are unique across lanes, reserve_id lets a
  // parent be recorded after its children.
  Tracer tracer;
  Lane& a = tracer.add_lane();
  Lane& b = tracer.add_lane();
  const std::uint64_t parent = a.reserve_id();
  b.record("child", parent, 5, 6);
  a.record("parent", 0, 0, 10, parent);
  const std::vector<Span> recorded = tracer.spans();
  expect(recorded.size() == 2 && recorded[0].id == parent &&
             recorded[1].parent == parent && recorded[1].lane == 1,
         "cross-lane parent link");
  expect(self_times(recorded)[0] == 9, "cross-lane child counts against parent");
}

}  // namespace

int main() {
  test_percentiles();
  test_failed_ratio();
  test_self_time();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
