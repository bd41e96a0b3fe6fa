// perfbench — the repository benchmark: one process per workload run.
//
//   perfbench --workload <wire_paced|core_ingest|admit_budget> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.csv>]
//
// Prints a one-line detail object (sample counts, rates, limits,
// digests, reconciliation) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end table below, with --trace 1 the per-layer
// table. Exit codes: 0 ok, 1 a correctness check failed or the run
// threw, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the table its mode prints.
constexpr MetricSpec kEndToEnd[] = {
    {"admissions_per_s", "1/s"},
    {"ticket_p50_ms", "ms"},
    {"on_time_ratio", "ratio"},
    {"finish_s", "s"},
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
    {"stream_cost_per_admission", "media/admit"},
    {"peak_channels", "channels"},
};

// Per-layer metrics a workload's path does not touch are reported as 0
// and listed under "not_on_path" in the detail line.
constexpr MetricSpec kPerLayer[] = {
    {"net.admits_per_drain", "count"},
    {"net.drains", "count"},
    {"net.bytes_in_per_admit", "bytes"},
    {"net.bytes_out_per_ticket", "bytes"},
    {"net.client.flush_busy_ms", "ms"},
    {"net.client.poll_busy_ms", "ms"},
    {"net.protocol_errors", "count"},
    {"net.decode_ns_per_admit", "ns"},
    {"net.ticket_encode_ns", "ns"},
    {"server.post_ns_p50", "ns"},
    {"server.post_ns_p99", "ns"},
    {"server.drain_busy_ms", "ms"},
    {"server.drain_idle_ms", "ms"},
    {"server.arrivals_per_drain", "count"},
    {"server.drain_ms_p99", "ms"},
    {"server.finish_ms", "ms"},
    {"server.snapshot_ms", "ms"},
    {"server.digest_ms", "ms"},
    {"server.refused", "count"},
    {"server.deferrals", "count"},
    {"server.deferred_slots_mean", "slots"},
    {"ledger.apply_batch_ns_per_event", "ns"},
    {"ledger.max_over_ns", "ns"},
    {"ledger.occupancy_at_ns", "ns"},
    {"online.on_arrival_ns", "ns"},
    {"online.finish_ms", "ms"},
    {"online.streams_per_admission", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.accounted_pct", "%"},
    {"trace.uncovered_ms", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wire_paced|core_ingest|admit_budget> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    return false;
  }
  out = std::stoull(text);
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) usage("--seed wants a nonnegative integer");
      o.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600) {
        usage("--seconds wants an integer in [1, 3600]");
      }
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

std::string spans_json(const std::vector<NameStats>& stats) {
  std::string out = "[";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonObject()
               .str("name", stats[i].name)
               .integer("count", static_cast<std::int64_t>(stats[i].count))
               .num("total_ms", stats[i].total_ms)
               .num("self_ms", stats[i].self_ms)
               .dump();
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  RunOutput out;
  try {
    if (options.workload == "wire_paced") {
      out = run_wire_paced(options);
    } else if (options.workload == "core_ingest") {
      out = run_core_ingest(options);
    } else if (options.workload == "admit_budget") {
      out = run_admit_budget(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    std::printf("%s\n", result_line(false, 1, 1, {}).c_str());
    return 1;
  }

  JsonObject detail;
  detail.str("workload", options.workload)
      .integer("seed", static_cast<std::int64_t>(options.seed))
      .num("seconds", options.seconds)
      .boolean("trace", options.trace);
  for (const auto& [key, raw] : out.detail) detail.raw(key, raw);

  std::vector<Metric> metrics;
  std::string not_on_path = "[";
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = out.metrics.find(spec.name);
      if (it == out.metrics.end()) {
        not_on_path += std::string(not_on_path.size() > 1 ? ", " : "") +
                       json_string(spec.name);
      }
      metrics.push_back({spec.name, spec.unit, it == out.metrics.end() ? 0.0 : it->second});
    }
    detail.raw("not_on_path", not_on_path + "]");
    const std::vector<std::int64_t> self = self_times(out.spans);
    detail.raw("spans_by_name", spans_json(by_name(out.spans, self)));
    detail.integer("span_count", static_cast<std::int64_t>(out.spans.size()));
    if (!options.trace_out.empty()) {
      try {
        write_spans(options.trace_out, out.spans, self);
        detail.str("span_file", options.trace_out);
      } catch (const std::exception& e) {
        out.checks.require(false, e.what());
      }
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = out.metrics.find(spec.name);
      out.checks.require(it != out.metrics.end(),
                         std::string("metric not measured: ") + spec.name);
      metrics.push_back({spec.name, spec.unit, it == out.metrics.end() ? 0.0 : it->second});
    }
  }
  std::string failures = "[";
  for (const std::string& f : out.checks.failures()) {
    failures += std::string(failures.size() > 1 ? ", " : "") + json_string(f);
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  detail.raw("check_failures", failures + "]");

  const bool correct = out.checks.ok();
  std::printf("%s\n", detail.dump().c_str());
  std::printf("%s\n", result_line(correct, std::max<std::uint64_t>(1, out.attempted),
                                  out.failed, metrics)
                          .c_str());
  return correct ? 0 : 1;
}
