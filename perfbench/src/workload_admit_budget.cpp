// admit_budget: serial admit() on a slotted-batching core whose channel
// budget is 80% of the same arrivals' unbounded peak, deferring
// admissions that do not fit (up to 8 slots) before refusing them. Each
// admit() is a point query against the channel ledger rather than a
// bulk apply_batch, so this workload moves with the ledger's query cost
// and with the refusal rate.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "online/policy.h"
#include "replay.h"
#include "report.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace server = smerge::server;

constexpr Index kObjects = 2000;
constexpr double kArrivals = 1'000'000;  ///< expected arrivals per round
constexpr double kMeanGap = 1e-5;
constexpr double kBudgetShare = 0.8;     ///< budget / unbounded peak
/// Every 128th admit() is timed on its own.
constexpr std::uint64_t kSampleMask = 127;
/// admit() calls per top-level span in the traced round.
constexpr std::size_t kSpanChunk = 4096;

server::ServerCoreConfig core_config(double horizon, Index capacity) {
  server::ServerCoreConfig config;
  config.objects = kObjects;
  config.delay = kDelay;
  config.horizon = horizon;
  config.serve = server::ServeMode::kSlottedBatching;
  config.channel_capacity = capacity;
  config.admission =
      capacity > 0 ? server::AdmissionMode::kDefer : server::AdmissionMode::kObserve;
  return config;
}

struct Round {
  double setup_s = 0.0;
  double admit_s = 0.0;
  double finish_s = 0.0;  ///< finish() + take_snapshot()
  double wall_s = 0.0;    ///< setup through digest
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t deferred_slots = 0;
  std::uint64_t bad_tickets = 0;  ///< admitted with a guarantee wait above d
  std::vector<double> admit_ms;   ///< sampled admit() durations
  RunEnd end;
};

Round admit_round(const std::vector<Send>& sends, double horizon,
                  Index capacity, Lane* lane) {
  Round r;
  const std::int64_t s0 = now_ns();
  server::ServerCore core(core_config(horizon, capacity));
  const std::int64_t s1 = now_ns();
  r.setup_s = static_cast<double>(s1 - s0) / 1e9;
  if (lane != nullptr) lane->record("budget.setup", 0, s0, s1);

  r.admit_ms.reserve(sends.size() / (kSampleMask + 1) + 1);
  const auto one = [&](const Send& s, std::uint64_t k, std::uint64_t parent) {
    server::Ticket t;
    if ((k & kSampleMask) == 0) {
      const std::int64_t a = now_ns();
      t = core.admit(s.object, s.time);
      const std::int64_t b = now_ns();
      r.admit_ms.push_back(static_cast<double>(b - a) / 1e6);
      if (lane != nullptr) lane->record("server.admit", parent, a, b);
    } else {
      t = core.admit(s.object, s.time);
    }
    if (!t.admitted) {
      ++r.refused;
      return;
    }
    if (t.deferred_slots > 0) {
      ++r.deferrals;
      r.deferred_slots += static_cast<std::uint64_t>(t.deferred_slots);
    }
    if (server::violates_guarantee(t.guarantee_wait, kDelay)) ++r.bad_tickets;
  };
  const std::int64_t t0 = now_ns();
  for (std::size_t first = 0; first < sends.size(); first += kSpanChunk) {
    const std::size_t last = std::min(sends.size(), first + kSpanChunk);
    const std::int64_t c0 = lane != nullptr ? now_ns() : 0;
    const std::uint64_t chunk_id = lane != nullptr ? lane->reserve_id() : 0;
    for (std::size_t i = first; i < last; ++i) one(sends[i], i, chunk_id);
    if (lane != nullptr) lane->record("budget.admit", 0, c0, now_ns(), chunk_id);
  }
  const std::int64_t t1 = now_ns();
  r.attempted = sends.size();
  r.admit_s = static_cast<double>(t1 - t0) / 1e9;

  r.end = end_run(core, lane, 0);
  r.finish_s = (r.end.finish_ms + r.end.snapshot_ms) / 1e3;
  r.wall_s = seconds_since(s0);
  return r;
}

void check_round(const Round& r, std::uint64_t ref_digest, Index budget,
                 Checks& checks, const std::string& label) {
  checks.require(r.end.digest == ref_digest,
                 label + ": snapshot digest differs from the serial admit reference");
  checks.require(r.end.snapshot.guarantee_violations == 0,
                 label + ": guarantee_violations > 0");
  checks.require(r.bad_tickets == 0, label + ": admitted tickets with a wait above d");
  checks.require(r.end.snapshot.peak_concurrency <= budget,
                 label + ": peak_channels above the channel budget");
  checks.require(r.end.snapshot.rejected == static_cast<Index>(r.refused),
                 label + ": snapshot refusals differ from refused tickets");
  checks.require(r.end.snapshot.total_arrivals == static_cast<Index>(r.attempted),
                 label + ": snapshot arrival count differs from admit() calls");
}

}  // namespace

RunOutput run_admit_budget(const Options& options) {
  RunOutput out;
  const auto config = catalogue(kObjects, kArrivals, kMeanGap, options.seed);
  const Traces traces = make_traces(config);
  const std::vector<Send> sends = merge_by_time(traces);

  // The unbounded peak sets the budget; a serial admit run under that
  // budget is the reference every timed round must reproduce.
  const Round unbounded = admit_round(sends, config.horizon, 0, nullptr);
  const auto budget = static_cast<Index>(
      std::floor(kBudgetShare * static_cast<double>(unbounded.end.snapshot.peak_concurrency)));
  const Round reference = admit_round(sends, config.horizon, budget, nullptr);
  const std::uint64_t ref_digest = reference.end.digest;
  out.checks.require(budget >= 1, "channel budget below one channel");
  out.checks.require(unbounded.refused == 0, "unbounded run refused admissions");
  out.detail["digest"] = json_hex(ref_digest);
  out.detail["arrivals_per_round"] = std::to_string(sends.size());
  out.detail["unbounded_peak_channels"] = std::to_string(unbounded.end.snapshot.peak_concurrency);
  out.detail["channel_budget"] = std::to_string(budget);
  out.detail["latency_limit_ms"] = json_number(kLatencyLimitMs);

  if (!options.trace) {
    std::vector<double> setups, finishes, rates, admit_ms;
    std::uint64_t rounds = 0, refused = 0;
    const std::int64_t start = now_ns();
    double round_s = 0.0;
    Round last;
    do {
      const std::int64_t r0 = now_ns();
      for (int k = 0; k < kSetupSamplesPerRound; ++k) {
        const std::int64_t s0 = now_ns();
        const server::ServerCore core(core_config(config.horizon, budget));
        setups.push_back(seconds_since(s0));
      }
      Round r = admit_round(sends, config.horizon, budget, nullptr);
      check_round(r, ref_digest, budget, out.checks, "round " + std::to_string(rounds));
      finishes.push_back(r.finish_s);
      rates.push_back(static_cast<double>(r.attempted) / r.admit_s);
      admit_ms.insert(admit_ms.end(), r.admit_ms.begin(), r.admit_ms.end());
      out.attempted += r.attempted;
      refused += r.refused;
      ++rounds;
      last = std::move(r);
      round_s = seconds_since(r0);
    } while (out.checks.ok() && seconds_since(start) + round_s <= options.seconds);

    // A ticket is refused or returned by admit() itself; lateness is
    // judged on the sampled calls and scaled to all of them.
    const AdmissionTally sampled = tally_admissions(admit_ms.size(), 0, admit_ms,
                                                    kLatencyLimitMs);
    const double late_share = sampled.failed_ratio();
    const double failed_ratio =
        static_cast<double>(refused) / static_cast<double>(out.attempted) + late_share;
    const Quantiles q = summarize(admit_ms);
    out.metrics["admissions_per_s"] = median(rates);
    out.metrics["ticket_p50_ms"] = q.p50;
    out.metrics["on_time_ratio"] = 1.0 - failed_ratio;
    out.metrics["finish_s"] = median(finishes);
    out.metrics["setup_s"] = median(setups);
    out.detail["setup_s_samples"] = json_array(setups);
    out.metrics["rss_peak_mb"] = peak_rss_mb();
    const auto admitted =
        static_cast<double>(last.end.snapshot.total_arrivals - last.end.snapshot.rejected);
    out.metrics["stream_cost_per_admission"] = last.end.snapshot.streams_served / admitted;
    out.metrics["peak_channels"] = static_cast<double>(last.end.snapshot.peak_concurrency);
    out.detail["rounds"] = std::to_string(rounds);
    out.detail["round_rates_per_s"] = json_array(rates);
    out.detail["ticket_p99_ms"] = json_number(q.p99);
    out.detail["ticket_samples"] = std::to_string(q.count);
    out.detail["ticket_samples_beyond_p99"] = std::to_string(q.beyond_p99);
    out.detail["failed_ratio"] = json_number(failed_ratio);
    out.detail["refused_share"] =
        json_number(static_cast<double>(last.refused) / static_cast<double>(last.attempted));
    out.detail["deferred_share"] =
        json_number(static_cast<double>(last.deferrals) / static_cast<double>(last.attempted));
    out.detail["admit_p50_us"] = json_number(q.p50 * 1e3);
    out.detail["admit_p99_us"] = json_number(q.p99 * 1e3);
    return out;
  }

  // Traced run: untraced and traced rounds alternate; overhead and span
  // coverage compare their medians. The last traced round's spans are
  // kept, beside the replays' on their own lane.
  std::vector<double> plain_ms, traced_ms, top_ms;
  std::unique_ptr<Tracer> tracer;
  Round traced;
  alternate_pairs(options.seconds, [&](bool trace) {
    if (!trace) {
      const Round r = admit_round(sends, config.horizon, budget, nullptr);
      check_round(r, ref_digest, budget, out.checks, "untraced");
      plain_ms.push_back(r.wall_s * 1e3);
      out.attempted += r.attempted;
      return;
    }
    tracer = std::make_unique<Tracer>();
    Lane& lane = tracer->add_lane();
    traced = admit_round(sends, config.horizon, budget, &lane);
    check_round(traced, ref_digest, budget, out.checks, "traced");
    traced_ms.push_back(traced.wall_s * 1e3);
    top_ms.push_back(top_level_ms(tracer->spans(), lane.index()));
    out.attempted += traced.attempted;
  });
  Lane& replay_lane = tracer->add_lane();

  smerge::BatchingPolicy online_policy;
  const LayerReplays layers =
      replay_layers(online_policy, traces, config.horizon, replay_lane, out);
  out.checks.require(layers.ledger.peak == unbounded.end.snapshot.peak_concurrency,
                     "ledger replay peak differs from the unbounded run");

  auto& m = out.metrics;
  m["server.finish_ms"] = traced.end.finish_ms;
  m["server.snapshot_ms"] = traced.end.snapshot_ms;
  m["server.digest_ms"] = traced.end.digest_ms;
  m["server.refused"] = static_cast<double>(traced.refused);
  m["server.deferrals"] = static_cast<double>(traced.deferrals);
  m["server.deferred_slots_mean"] =
      traced.deferrals == 0 ? 0.0
                            : static_cast<double>(traced.deferred_slots) /
                                  static_cast<double>(traced.deferrals);
  reconcile_in_process(plain_ms, traced_ms, top_ms, out);
  out.spans = tracer->spans();
  return out;
}

}  // namespace perfbench
