// core_ingest: the server drain path with no sockets. Two producer
// threads post() their halves of the catalogue (objects split by
// parity, each half in time order, so each producer owns one of the two
// shards) while the calling thread loops drain(); then finish(),
// take_snapshot() and snapshot_digest(). The caller's answer is post()
// returning, so the ticket metrics time sampled post() calls; how long
// a post then waits to be folded (until the first drain that started
// after it returned — the drain-epoch rule the NetServer stamps TICKETs
// by) is reported beside them as the fold latency.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "online/policy.h"
#include "replay.h"
#include "report.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace server = smerge::server;

constexpr Index kObjects = 1000;
constexpr double kArrivals = 2'000'000;  ///< expected arrivals per round
constexpr double kMeanGap = 1e-5;
constexpr unsigned kProducers = 2;
/// Every 128th post is timed on its own.
constexpr std::uint64_t kSampleMask = 127;
/// Posts per producer window. The drain loop drains once both producers
/// have completed the next window, and a producer starts a window only
/// when the window two back has been drained. Drain batches are then
/// one to two windows per producer, whatever the relative speed of
/// posting and draining, and at most two windows per producer are in
/// flight: below a shard ring's default 65536 slots, so no post spills
/// and the backlog (and memory) stays bounded.
constexpr std::size_t kWindow = 16'384;
/// windows_done value of a producer that has posted everything.
constexpr std::uint64_t kFinished = ~std::uint64_t{0};

server::ServerCoreConfig core_config(double horizon, unsigned shards) {
  server::ServerCoreConfig config;
  config.objects = kObjects;
  config.delay = kDelay;
  config.horizon = horizon;
  config.shards = shards;
  config.serve = server::ServeMode::kPolicy;
  return config;
}

struct PostSample {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct Round {
  double setup_s = 0.0;
  double ingest_s = 0.0;   ///< first post to the end of the last drain
  double finish_s = 0.0;   ///< finish() + take_snapshot()
  double wall_s = 0.0;     ///< setup through digest
  std::uint64_t posted = 0;
  std::uint64_t drains = 0;
  double drain_busy_ms = 0.0;
  std::vector<double> drain_ms;
  std::vector<double> post_ns;
  std::vector<double> fold_ms;  ///< sampled posts, post start to folding drain end
  RunEnd end;
};

Round ingest_round(const std::array<std::vector<Send>, kProducers>& sends,
                   double horizon, Tracer* tracer, Lane* lane) {
  Round r;
  const std::int64_t s0 = now_ns();
  smerge::BatchingPolicy policy;
  server::ServerCore core(core_config(horizon, kProducers), policy);
  const std::int64_t s1 = now_ns();
  r.setup_s = static_cast<double>(s1 - s0) / 1e9;
  if (lane != nullptr) lane->record("core.setup", 0, s0, s1);

  const std::uint64_t ingest_id = lane != nullptr ? lane->reserve_id() : 0;
  std::array<std::vector<PostSample>, kProducers> samples;
  std::array<Lane*, kProducers> producer_lanes{};
  if (tracer != nullptr) {
    for (auto& l : producer_lanes) l = &tracer->add_lane();
  }
  std::atomic<bool> go{false};
  std::array<std::atomic<std::uint64_t>, kProducers> windows_done{};
  std::atomic<std::uint64_t> drains_done{0};
  std::vector<std::jthread> threads;  // joined on every exit path
  // Runs before the joins on every exit path: if the drain loop throws,
  // the producers then post to the end instead of waiting forever.
  struct Unblock {
    std::atomic<bool>& go;
    std::atomic<std::uint64_t>& drains;
    ~Unblock() {
      go.store(true, std::memory_order_release);
      drains.store(kFinished, std::memory_order_release);
      drains.notify_all();
    }
  } unblock{go, drains_done};
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<PostSample>& mine = samples[p];
      mine.reserve(sends[p].size() / (kSampleMask + 1) + 1);
      Lane* pl = producer_lanes[p];
      const std::uint64_t produce_id = pl != nullptr ? pl->reserve_id() : 0;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t p0 = now_ns();
      std::uint64_t n = 0;
      std::uint64_t windows = 0;
      for (const Send& s : sends[p]) {
        if (n > 0 && n % kWindow == 0) {
          windows_done[p].store(++windows, std::memory_order_release);
          windows_done[p].notify_one();
          for (std::uint64_t d = drains_done.load(std::memory_order_acquire);
               d < windows - 1; d = drains_done.load(std::memory_order_acquire)) {
            drains_done.wait(d, std::memory_order_acquire);
          }
        }
        if ((++n & kSampleMask) == 0) {
          const std::int64_t a = now_ns();
          core.post(s.object, s.time);
          const std::int64_t b = now_ns();
          mine.push_back({a, b});
          if (pl != nullptr) pl->record("server.post", produce_id, a, b);
        } else {
          core.post(s.object, s.time);
        }
      }
      if (pl != nullptr) {
        pl->record("core.produce", ingest_id, p0, now_ns(), produce_id);
      }
      windows_done[p].store(kFinished, std::memory_order_release);
      windows_done[p].notify_one();
    });
  }

  // Drain starts and ends, for the sampled posts' fold times.
  std::vector<std::int64_t> drain_start, drain_end;
  const auto timed_drain = [&] {
    const std::int64_t d0 = now_ns();
    core.drain();
    const std::int64_t d1 = now_ns();
    drain_start.push_back(d0);
    drain_end.push_back(d1);
    if (lane != nullptr) lane->record("server.drain", ingest_id, d0, d1);
  };
  const std::int64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  // Waiting threads block (atomic wait) rather than spin, so they leave
  // the cores to the threads doing work.
  for (std::uint64_t drained = 0;;) {
    std::size_t slowest = 0;
    std::uint64_t ready = kFinished;
    for (std::size_t p = 0; p < kProducers; ++p) {
      const std::uint64_t w = windows_done[p].load(std::memory_order_acquire);
      if (w < ready) {
        ready = w;
        slowest = p;
      }
    }
    if (ready == kFinished) break;
    if (ready > drained) {
      timed_drain();
      drains_done.store(++drained, std::memory_order_release);
      drains_done.notify_all();
    } else {
      windows_done[slowest].wait(ready, std::memory_order_acquire);
    }
  }
  for (auto& t : threads) t.join();
  timed_drain();  // whatever was published after the last pass
  const std::int64_t t1 = now_ns();
  r.ingest_s = static_cast<double>(t1 - t0) / 1e9;
  if (lane != nullptr) lane->record("core.ingest", 0, t0, t1, ingest_id);

  r.end = end_run(core, lane, 0);
  r.finish_s = (r.end.finish_ms + r.end.snapshot_ms) / 1e3;
  r.wall_s = seconds_since(s0);

  r.drains = drain_start.size();
  r.drain_ms.reserve(r.drains);
  for (std::size_t k = 0; k < r.drains; ++k) {
    r.drain_ms.push_back(static_cast<double>(drain_end[k] - drain_start[k]) / 1e6);
    r.drain_busy_ms += r.drain_ms.back();
  }
  for (unsigned p = 0; p < kProducers; ++p) {
    r.posted += sends[p].size();
    for (const PostSample& s : samples[p]) {
      r.post_ns.push_back(static_cast<double>(s.end - s.start));
      // The first drain that started after the post returned folds it.
      const auto it = std::lower_bound(drain_start.begin(), drain_start.end(), s.end);
      if (it == drain_start.end()) continue;  // never drained: unticketed
      const std::int64_t done = drain_end[static_cast<std::size_t>(it - drain_start.begin())];
      r.fold_ms.push_back(static_cast<double>(done - s.start) / 1e6);
    }
  }
  return r;
}

double setup_sample(double horizon) {
  const std::int64_t s0 = now_ns();
  smerge::BatchingPolicy policy;
  server::ServerCore core(core_config(horizon, kProducers), policy);
  return seconds_since(s0);
}

void check_round(const Round& r, std::uint64_t ref_digest, Checks& checks,
                 const std::string& label) {
  checks.require(r.end.digest == ref_digest,
                 label + ": snapshot digest differs from the ingest_trace reference");
  checks.require(r.end.snapshot.guarantee_violations == 0,
                 label + ": guarantee_violations > 0");
  checks.require(r.end.snapshot.total_arrivals == static_cast<Index>(r.posted),
                 label + ": snapshot arrival count differs from posts");
}

}  // namespace

RunOutput run_core_ingest(const Options& options) {
  RunOutput out;
  const auto config = catalogue(kObjects, kArrivals, kMeanGap, options.seed);
  const Traces traces = make_traces(config);
  std::array<std::vector<Send>, kProducers> sends;
  for (unsigned p = 0; p < kProducers; ++p) sends[p] = merge_by_time(traces, kProducers, p);

  // Serial trace-fed reference on one shard (freed before the rounds).
  const RunEnd reference = [&] {
    smerge::BatchingPolicy reference_policy;
    server::ServerCore core(core_config(config.horizon, 1), reference_policy);
    for (std::size_t m = 0; m < traces.size(); ++m) {
      core.ingest_trace(static_cast<Index>(m), traces[m]);
    }
    return end_run(core, nullptr, 0);
  }();
  const server::Snapshot& ref = reference.snapshot;
  const std::uint64_t ref_digest = reference.digest;
  out.checks.require(ref.guarantee_violations == 0,
                     "reference: guarantee_violations > 0");
  out.detail["digest"] = json_hex(ref_digest);
  out.detail["arrivals_per_round"] = std::to_string(total_arrivals(traces));
  out.detail["latency_limit_ms"] = json_number(kLatencyLimitMs);

  if (!options.trace) {
    std::vector<double> setups, finishes, rates, post_ms, fold_ms;
    // A warm-up round (checked, not timed) lets the allocator reach its
    // steady footprint; later rounds then reuse the same memory.
    check_round(ingest_round(sends, config.horizon, nullptr, nullptr), ref_digest,
                out.checks, "warm-up");
    std::uint64_t rounds = 0, drains = 0;
    const std::int64_t start = now_ns();
    double round_s = 0.0;
    Round last;
    do {
      const std::int64_t r0 = now_ns();
      for (int k = 0; k < kSetupSamplesPerRound; ++k) {
        setups.push_back(setup_sample(config.horizon));
      }
      Round r = ingest_round(sends, config.horizon, nullptr, nullptr);
      check_round(r, ref_digest, out.checks, "round " + std::to_string(rounds));
      finishes.push_back(r.finish_s);
      rates.push_back(static_cast<double>(r.posted) / r.ingest_s);
      for (const double ns : r.post_ns) post_ms.push_back(ns / 1e6);
      fold_ms.insert(fold_ms.end(), r.fold_ms.begin(), r.fold_ms.end());
      out.attempted += r.posted;
      drains += r.drains;
      ++rounds;
      last = std::move(r);
      round_s = seconds_since(r0);
    } while (out.checks.ok() && seconds_since(start) + round_s <= options.seconds);

    // post() hands the caller its answer (accepted into the mailbox);
    // every post is folded, which check_round's arrival count confirms.
    const AdmissionTally tally =
        tally_admissions(post_ms.size(), 0, post_ms, kLatencyLimitMs);
    const Quantiles q = summarize(post_ms);
    const Quantiles fold = summarize(fold_ms);
    out.metrics["admissions_per_s"] = median(rates);
    out.metrics["ticket_p50_ms"] = q.p50;
    out.metrics["on_time_ratio"] = 1.0 - tally.failed_ratio();
    out.metrics["finish_s"] = median(finishes);
    out.metrics["setup_s"] = median(setups);
    out.detail["setup_s_samples"] = json_array(setups);
    out.metrics["rss_peak_mb"] = peak_rss_mb();
    out.metrics["stream_cost_per_admission"] =
        last.end.snapshot.streams_served / static_cast<double>(last.end.snapshot.total_arrivals);
    out.metrics["peak_channels"] = static_cast<double>(last.end.snapshot.peak_concurrency);
    out.detail["rounds"] = std::to_string(rounds);
    out.detail["round_rates_per_s"] = json_array(rates);
    out.detail["ticket_p99_ms"] = json_number(q.p99);
    out.detail["ticket_samples"] = std::to_string(q.count);
    out.detail["ticket_samples_beyond_p99"] = std::to_string(q.beyond_p99);
    out.detail["failed_ratio"] = json_number(tally.failed_ratio());
    out.detail["fold_p50_ms"] = json_number(fold.p50);
    out.detail["fold_p99_ms"] = json_number(fold.p99);
    out.detail["drains_per_round"] = json_number(static_cast<double>(drains) / static_cast<double>(rounds));
    return out;
  }

  // Traced run: after a warm-up, untraced and traced rounds alternate;
  // overhead and span coverage compare their medians. The last traced
  // round's spans are kept, beside the replays' on their own lane.
  check_round(ingest_round(sends, config.horizon, nullptr, nullptr), ref_digest,
              out.checks, "warm-up");
  std::vector<double> plain_ms, traced_ms, top_ms;
  std::unique_ptr<Tracer> tracer;
  Round traced;
  alternate_pairs(options.seconds, [&](bool trace) {
    if (!trace) {
      const Round r = ingest_round(sends, config.horizon, nullptr, nullptr);
      check_round(r, ref_digest, out.checks, "untraced");
      plain_ms.push_back(r.wall_s * 1e3);
      out.attempted += r.posted;
      return;
    }
    tracer = std::make_unique<Tracer>();
    Lane& lane = tracer->add_lane();
    traced = ingest_round(sends, config.horizon, tracer.get(), &lane);
    check_round(traced, ref_digest, out.checks, "traced");
    traced_ms.push_back(traced.wall_s * 1e3);
    top_ms.push_back(top_level_ms(tracer->spans(), lane.index()));
    out.attempted += traced.posted;
  });
  Lane& replay_lane = tracer->add_lane();

  smerge::BatchingPolicy online_policy;
  const LayerReplays layers =
      replay_layers(online_policy, traces, config.horizon, replay_lane, out);
  out.checks.require(static_cast<Index>(layers.online.streams) == ref.total_streams,
                     "online replay stream count differs from the reference");
  out.checks.require(layers.ledger.peak == ref.peak_concurrency,
                     "ledger replay peak differs from the reference");

  const Quantiles post = summarize(traced.post_ns);
  const Quantiles drain = summarize(traced.drain_ms);
  auto& m = out.metrics;
  m["server.post_ns_p50"] = post.p50;
  m["server.post_ns_p99"] = post.p99;
  m["server.drain_busy_ms"] = traced.drain_busy_ms;
  m["server.drain_idle_ms"] = std::max(0.0, traced.ingest_s * 1e3 - traced.drain_busy_ms);
  m["server.arrivals_per_drain"] =
      static_cast<double>(traced.posted) / static_cast<double>(traced.drains);
  m["server.drain_ms_p99"] = drain.p99;
  m["server.finish_ms"] = traced.end.finish_ms;
  m["server.snapshot_ms"] = traced.end.snapshot_ms;
  m["server.digest_ms"] = traced.end.digest_ms;
  reconcile_in_process(plain_ms, traced_ms, top_ms, out);
  out.spans = tracer->spans();
  return out;
}

}  // namespace perfbench
