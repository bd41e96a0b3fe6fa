// wire_paced: an open-loop pacer on the calling thread drives two
// BlockingClient connections (objects split by parity) into an
// in-process NetServer (1 reactor, 500 us drain cadence, Delay
// Guaranteed policy). Each ADMIT is due at its arrival's sim time
// scaled to a fixed offered rate; ticket latency runs from that due
// time, so a stalled pacer or server shows as latency on every later
// request instead of silently lowering the offered load.
#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "online/policy.h"
#include "replay.h"
#include "report.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace net = smerge::net;
namespace server = smerge::server;

constexpr Index kObjects = 256;
/// Expected arrivals of a nominal and of an overload phase: the
/// overload phase is longer so its rate is measured over a span well
/// beyond start-up transients.
constexpr double kNominalArrivals = 200'000;
constexpr double kOverloadArrivals = 600'000;
constexpr double kMeanGap = 1e-5;         ///< sim time between arrivals
constexpr double kNominalRate = 200'000;  ///< offered ADMITs/s, nominal
constexpr double kOverloadRate = 4'000'000;  ///< offered ADMITs/s, overload
constexpr std::size_t kBurst = 512;       ///< ADMITs staged between polls
/// Unanswered ADMITs per connection before the pacer holds back: keeps
/// the server's queued TICKET bytes under its write high watermark, so
/// a blocking flush can never wait on a server that waits on us. Only
/// the overload phase reaches it; a nominal phase that did would show
/// as pacer lateness.
constexpr std::size_t kMaxOutstanding = 16'384;
constexpr std::int64_t kTicketWaitNs = 10'000'000'000;  ///< then give up
/// A run is generator-bound when the pacer's p99 lateness exceeds this
/// share of the latency limit.
constexpr double kGeneratorBoundShare = 0.1;

server::ServerCoreConfig core_config(double horizon) {
  server::ServerCoreConfig config;
  config.objects = kObjects;
  config.delay = kDelay;
  config.horizon = horizon;
  config.shards = 1;
  config.serve = server::ServeMode::kPolicy;
  return config;
}

net::NetServerConfig net_config() {
  net::NetServerConfig config;
  config.reactors = 1;
  return config;  // default 500 us drain cadence
}

/// One paced phase as the client saw it.
struct Phase {
  std::uint64_t sent = 0;
  std::uint64_t ticketed = 0;
  std::uint64_t bad_tickets = 0;  ///< wrong object/time, refused, or late start
  std::vector<double> latency_ms;  ///< per ticket, from its ADMIT's due time
  std::vector<double> late_ms;     ///< per ADMIT, send time minus due time
  double elapsed_s = 0.0;          ///< first due time to last ticket
  double flush_busy_ms = 0.0;
  double poll_busy_ms = 0.0;
  /// Loop passes that staged, flushed or decoded something; the rest
  /// spin waiting for the next due time or the next TICKET.
  double busy_ms = 0.0;
  /// Loop passes where a due ADMIT waited because its connection had
  /// kMaxOutstanding unanswered: the server, not the pacer, held the
  /// rate back.
  std::uint64_t held = 0;
};

Phase pace(std::array<net::BlockingClient, 2>& clients,
           const std::vector<Send>& sends, double rate, Lane* lane,
           std::uint64_t parent) {
  Phase out;
  const std::size_t n = sends.size();
  out.latency_ms.reserve(n);
  out.late_ms.reserve(n);
  std::array<std::vector<std::int64_t>, 2> due;
  std::array<std::vector<std::size_t>, 2> send_of;
  std::array<std::size_t, 2> answered{0, 0};
  const double ns_per_sim = 1e9 / (kMeanGap * rate);
  const double first = sends.front().time;
  std::int64_t last_ticket = 0;

  const auto on_ticket = [&](std::size_t c, const net::TicketReply& reply) {
    const std::int64_t now = now_ns();
    const std::uint64_t k = reply.request_id - 1;
    if (k >= due[c].size()) {
      ++out.bad_tickets;
      return;
    }
    const Send& s = sends[send_of[c][k]];
    const server::Ticket& t = reply.ticket;
    if (!t.admitted || t.object != s.object || t.arrival != s.time ||
        server::violates_guarantee(t.wait, kDelay)) {
      ++out.bad_tickets;
    }
    out.latency_ms.push_back(static_cast<double>(now - due[c][k]) / 1e6);
    ++out.ticketed;
    ++answered[c];
    last_ticket = now;
  };
  const std::array<std::function<void(const net::TicketReply&)>, 2> callbacks{
      [&](const net::TicketReply& r) { on_ticket(0, r); },
      [&](const net::TicketReply& r) { on_ticket(1, r); }};

  const std::int64_t t0 = now_ns();
  std::int64_t give_up = 0;
  std::size_t i = 0;
  while (out.ticketed < n) {
    const std::int64_t now = now_ns();
    std::array<bool, 2> staged{false, false};
    for (std::size_t b = 0; i < n && b < kBurst; ++b, ++i) {
      const std::int64_t due_at =
          t0 + static_cast<std::int64_t>((sends[i].time - first) * ns_per_sim);
      if (due_at > now) break;
      const auto c = static_cast<std::size_t>(sends[i].object & 1);
      if (due[c].size() - answered[c] >= kMaxOutstanding) {
        ++out.held;
        break;
      }
      clients[c].admit(sends[i].object, sends[i].time);
      due[c].push_back(due_at);
      send_of[c].push_back(i);
      out.late_ms.push_back(static_cast<double>(now - due_at) / 1e6);
      staged[c] = true;
    }
    for (std::size_t c = 0; c < 2; ++c) {
      if (!staged[c]) continue;
      const std::int64_t f0 = now_ns();
      clients[c].flush();
      const std::int64_t f1 = now_ns();
      out.flush_busy_ms += static_cast<double>(f1 - f0) / 1e6;
      if (lane != nullptr) lane->record("loadgen.flush", parent, f0, f1);
    }
    std::size_t got = 0;
    for (std::size_t c = 0; c < 2; ++c) {
      const std::int64_t p0 = now_ns();
      const std::size_t polled = clients[c].poll_tickets(callbacks[c], false);
      const std::int64_t p1 = now_ns();
      out.poll_busy_ms += static_cast<double>(p1 - p0) / 1e6;
      if (lane != nullptr && polled > 0) {
        lane->record("loadgen.poll", parent, p0, p1);
      }
      got += polled;
    }
    if (staged[0] || staged[1] || got > 0) {
      out.busy_ms += static_cast<double>(now_ns() - now) / 1e6;
    }
    if (i == n) {
      if (give_up == 0) give_up = now + kTicketWaitNs;
      if (now > give_up) break;
    }
  }
  out.sent = i;
  out.elapsed_s = static_cast<double>(last_ticket - t0) / 1e9;
  return out;
}

struct Round {
  Phase phase;
  double setup_s = 0.0;
  double finish_s = 0.0;
  double wall_s = 0.0;  ///< setup through FINISHED
  net::NetCounters counters;
  server::WireSummary summary;
};

Round wire_round(const std::vector<Send>& sends, double horizon, double rate,
                 Lane* lane, Checks& checks, std::uint64_t reference_digest,
                 const char* label) {
  Round r;
  const std::int64_t s0 = now_ns();
  smerge::DelayGuaranteedPolicy policy;
  net::NetServer server(net_config(), core_config(horizon), policy);
  server.start();
  std::array<net::BlockingClient, 2> clients;
  for (auto& c : clients) c.connect("127.0.0.1", server.port());
  const std::int64_t s1 = now_ns();
  r.setup_s = static_cast<double>(s1 - s0) / 1e9;
  if (lane != nullptr) lane->record("wire.setup", 0, s0, s1);

  const std::uint64_t phase_id = lane != nullptr ? lane->reserve_id() : 0;
  r.phase = pace(clients, sends, rate, lane, phase_id);
  const std::int64_t f0 = now_ns();
  if (lane != nullptr) lane->record("wire.paced", 0, s1, f0, phase_id);

  const bool all_ticketed = r.phase.ticketed == sends.size();
  if (all_ticketed) r.summary = clients[0].finish();
  const std::int64_t f1 = now_ns();
  r.finish_s = static_cast<double>(f1 - f0) / 1e9;
  r.wall_s = static_cast<double>(f1 - s0) / 1e9;
  if (lane != nullptr) lane->record("wire.finish", 0, f0, f1);
  if (all_ticketed) server.wait_finished(std::chrono::seconds(10));
  r.counters = server.counters();
  for (auto& c : clients) c.close();
  server.stop();

  const std::string where = std::string(label) + ": ";
  checks.require(r.phase.bad_tickets == 0,
                 where + std::to_string(r.phase.bad_tickets) +
                     " tickets with a wrong object/time, a refusal or a wait above d");
  checks.require(all_ticketed, where + "FINISH skipped: " +
                                   std::to_string(sends.size() - r.phase.ticketed) +
                                   " ADMITs never ticketed");
  if (all_ticketed) {
    checks.require(r.summary.ok, where + "FINISHED reports a failed finish");
    checks.require(r.summary.digest == reference_digest,
                   where + "FINISHED digest differs from the ingest_trace reference");
    checks.require(r.summary.guarantee_violations == 0,
                   where + "guarantee_violations > 0");
    checks.require(r.summary.total_arrivals == static_cast<Index>(sends.size()),
                   where + "FINISHED arrival count differs from ADMITs sent");
  }
  checks.require(r.counters.protocol_errors == 0, where + "protocol errors");
  return r;
}

/// Construction, start() and both connects, then teardown (untimed).
double setup_sample(double horizon) {
  const std::int64_t s0 = now_ns();
  smerge::DelayGuaranteedPolicy policy;
  net::NetServer server(net_config(), core_config(horizon), policy);
  server.start();
  std::array<net::BlockingClient, 2> clients;
  for (auto& c : clients) c.connect("127.0.0.1", server.port());
  const double s = seconds_since(s0);
  for (auto& c : clients) c.close();
  server.stop();
  return s;
}

/// One phase's arrivals and the in-process reference every FINISHED
/// digest must equal.
struct Prepared {
  smerge::sim::WorkloadConfig config;
  Traces traces;
  std::vector<Send> sends;
  server::Snapshot reference;
  std::uint64_t digest = 0;
};

Prepared prepare(double arrivals, std::uint64_t seed) {
  Prepared p;
  p.config = catalogue(kObjects, arrivals, kMeanGap, seed);
  p.traces = make_traces(p.config);
  p.sends = merge_by_time(p.traces);
  smerge::DelayGuaranteedPolicy policy;
  server::ServerCore core(core_config(p.config.horizon), policy);
  for (std::size_t m = 0; m < p.traces.size(); ++m) {
    core.ingest_trace(static_cast<Index>(m), p.traces[m]);
  }
  RunEnd end = end_run(core, nullptr, 0);
  p.reference = std::move(end.snapshot);
  p.digest = end.digest;
  return p;
}

}  // namespace

RunOutput run_wire_paced(const Options& options) {
  RunOutput out;
  const Prepared nominal_in = prepare(kNominalArrivals, options.seed);
  const Prepared overload_in = prepare(kOverloadArrivals, options.seed);
  for (const Prepared* p : {&nominal_in, &overload_in}) {
    out.checks.require(p->reference.guarantee_violations == 0,
                       "reference: guarantee_violations > 0");
  }
  const auto& sends = nominal_in.sends;
  const auto& config = nominal_in.config;
  const auto& ref = nominal_in.reference;
  const std::uint64_t ref_digest = nominal_in.digest;

  out.detail["arrivals_nominal"] = std::to_string(sends.size());
  out.detail["arrivals_overload"] = std::to_string(overload_in.sends.size());
  out.detail["offered_nominal_per_s"] = json_number(kNominalRate);
  out.detail["offered_overload_per_s"] = json_number(kOverloadRate);
  out.detail["latency_limit_ms"] = json_number(kLatencyLimitMs);
  out.detail["digest"] = json_hex(ref_digest);

  if (!options.trace) {
    // Only per-round summaries are kept, so memory does not grow with
    // the number of rounds a run fits.
    std::vector<double> setups, finishes, rates, p50s, p99s, late_p99s;
    std::vector<double> overload_busy;
    std::uint64_t overload_held = 0, unheld_rounds = 0;
    AdmissionTally tally;
    std::size_t samples = 0, beyond_p99 = std::numeric_limits<std::size_t>::max();
    double late_max = 0.0;
    std::uint64_t rounds = 0;
    server::WireSummary summary;
    const std::int64_t start = now_ns();
    double round_s = 0.0;
    do {
      const std::int64_t r0 = now_ns();
      for (int k = 0; k < kSetupSamplesPerRound; ++k) {
        setups.push_back(setup_sample(config.horizon));
      }
      Round nominal = wire_round(sends, config.horizon, kNominalRate, nullptr,
                                 out.checks, ref_digest, "nominal");
      Round overload = wire_round(overload_in.sends, overload_in.config.horizon,
                                  kOverloadRate, nullptr, out.checks,
                                  overload_in.digest, "overload");
      finishes.push_back(nominal.finish_s);
      for (const Round* r : {&nominal, &overload}) {
        out.attempted += r->phase.sent;
        out.failed += r->phase.sent - r->phase.ticketed;
      }
      const AdmissionTally t = tally_admissions(
          nominal.phase.sent, 0, nominal.phase.latency_ms, kLatencyLimitMs);
      tally.attempted += t.attempted;
      tally.unticketed += t.unticketed;
      tally.late += t.late;
      const Quantiles q = summarize(nominal.phase.latency_ms);
      p50s.push_back(q.p50);
      p99s.push_back(q.p99);
      samples += q.count;
      beyond_p99 = std::min(beyond_p99, q.beyond_p99);
      const Quantiles late = summarize(nominal.phase.late_ms);
      late_p99s.push_back(late.p99);
      late_max = std::max(late_max, late.max);
      rates.push_back(static_cast<double>(overload.phase.ticketed) /
                      overload.phase.elapsed_s);
      overload_busy.push_back(overload.phase.busy_ms / (overload.phase.elapsed_s * 1e3));
      overload_held += overload.phase.held;
      if (overload.phase.held == 0) ++unheld_rounds;
      summary = nominal.summary;
      ++rounds;
      round_s = seconds_since(r0);
    } while (out.checks.ok() && seconds_since(start) + round_s <= options.seconds);

    // Each round's percentiles come from its own nominal phase; the p50
    // metric is their median over rounds. The p99 is in the detail line
    // only: round p99s split into ~0.6 ms rounds and 2-16 ms rounds with
    // the pacer on time in both, and no statistic over them (median of
    // rounds, pooled samples) stayed within the metric bound across runs.
    const double worst_late_p99 = *std::max_element(late_p99s.begin(), late_p99s.end());
    out.metrics["admissions_per_s"] = median(rates);
    out.metrics["ticket_p50_ms"] = median(p50s);
    out.metrics["on_time_ratio"] = 1.0 - tally.failed_ratio();
    out.metrics["finish_s"] = median(finishes);
    out.metrics["setup_s"] = median(setups);
    out.detail["setup_s_samples"] = json_array(setups);
    out.metrics["rss_peak_mb"] = peak_rss_mb();
    out.metrics["stream_cost_per_admission"] =
        summary.streams_served / static_cast<double>(summary.total_arrivals);
    out.metrics["peak_channels"] = static_cast<double>(summary.peak_concurrency);
    out.detail["ticket_p50_ms_per_round"] = json_array(p50s);
    out.detail["ticket_p99_ms_per_round"] = json_array(p99s);
    out.detail["ticket_p99_ms"] = json_number(median(p99s));
    out.detail["rounds"] = std::to_string(rounds);
    out.detail["ticket_samples"] = std::to_string(samples);
    out.detail["ticket_samples_per_round"] = std::to_string(samples / rounds);
    out.detail["ticket_samples_beyond_p99_min_round"] = std::to_string(beyond_p99);
    out.detail["failed_ratio"] = json_number(tally.failed_ratio());
    out.detail["late_tickets"] = std::to_string(tally.late);
    out.detail["unticketed"] = std::to_string(out.failed);
    out.detail["loadgen_late_p99_ms_per_round"] = json_array(late_p99s);
    out.detail["loadgen_late_max_ms"] = json_number(late_max);
    // The overload rate is the server's capacity only if the server held
    // the pacer back (kMaxOutstanding reached) in every round.
    out.detail["generator_bound"] =
        worst_late_p99 > kGeneratorBoundShare * kLatencyLimitMs || unheld_rounds > 0
            ? "true"
            : "false";
    out.detail["overload_rates_per_s"] = json_array(rates);
    out.detail["overload_pacer_busy_share_per_round"] = json_array(overload_busy);
    out.detail["overload_held_passes"] = std::to_string(overload_held);
    out.detail["overload_unheld_rounds"] = std::to_string(unheld_rounds);
    return out;
  }

  // Traced run: untraced and traced nominal rounds alternate; overhead
  // compares their median ticket p50s. The last traced round's spans are
  // kept, beside the layer replays' on their own lane.
  std::vector<double> plain_p50, traced_p50;
  std::unique_ptr<Tracer> tracer;
  Round traced;
  alternate_pairs(options.seconds, [&](bool trace) {
    Lane* lane = nullptr;
    if (trace) {
      tracer = std::make_unique<Tracer>();
      lane = &tracer->add_lane();
    }
    Round r = wire_round(sends, config.horizon, kNominalRate, lane, out.checks,
                         ref_digest, trace ? "traced" : "untraced");
    out.attempted += r.phase.sent;
    out.failed += r.phase.sent - r.phase.ticketed;
    (trace ? traced_p50 : plain_p50).push_back(summarize(r.phase.latency_ms).p50);
    if (trace) traced = std::move(r);
  });
  Lane& replay_lane = tracer->add_lane();

  const net::NetCounters& c = traced.counters;
  const std::uint64_t admits_per_drain =
      c.drains == 0 ? 1 : std::max<std::uint64_t>(1, c.admits / c.drains);
  smerge::DelayGuaranteedPolicy net_policy, online_policy;
  NetReplay nr;
  {
    ScopedSpan span(&replay_lane, "replay.net");
    nr = replay_net(net_policy, core_config(config.horizon), sends,
                    admits_per_drain, &replay_lane, span.id());
  }
  const LayerReplays layers =
      replay_layers(online_policy, nominal_in.traces, config.horizon, replay_lane, out);
  out.checks.require(nr.end.digest == ref_digest,
                     "net replay digest differs from the reference");
  out.checks.require(nr.protocol_errors == 0, "net replay protocol errors");
  out.checks.require(static_cast<Index>(layers.online.streams) == ref.total_streams,
                     "online replay stream count differs from the reference");
  out.checks.require(layers.ledger.peak == ref.peak_concurrency,
                     "ledger replay peak differs from the reference");

  std::vector<double> late = traced.phase.late_ms;
  const Quantiles late_q = summarize(late);
  const double plain_q50 = median(plain_p50);
  const double traced_q50 = median(traced_p50);
  const auto apd = static_cast<double>(admits_per_drain);
  // What the replay accounts for of one ticket: its batch's decode,
  // posts and ticket encoding plus one drain. The rest of the untraced
  // p50 is socket, scheduling and the drain-epoch hold.
  const double covered_ms =
      (nr.decode_ns_per_admit + nr.post_ns_p50 + nr.ticket_encode_ns) * apd / 1e6 +
      nr.drain_ms_p50;
  const double paced_ms = traced.phase.elapsed_s * 1e3;

  std::vector<Span> traced_spans = tracer->spans();
  auto& m = out.metrics;
  m["net.admits_per_drain"] = c.drains == 0 ? 0.0
                                            : static_cast<double>(c.admits) /
                                                  static_cast<double>(c.drains);
  m["net.drains"] = static_cast<double>(c.drains);
  m["net.bytes_in_per_admit"] =
      static_cast<double>(c.bytes_in) / static_cast<double>(std::max<std::uint64_t>(1, c.admits));
  m["net.bytes_out_per_ticket"] =
      static_cast<double>(c.bytes_out) / static_cast<double>(std::max<std::uint64_t>(1, c.tickets));
  m["net.client.flush_busy_ms"] = traced.phase.flush_busy_ms;
  m["net.client.poll_busy_ms"] = traced.phase.poll_busy_ms;
  m["net.protocol_errors"] = static_cast<double>(c.protocol_errors);
  m["net.decode_ns_per_admit"] = nr.decode_ns_per_admit;
  m["net.ticket_encode_ns"] = nr.ticket_encode_ns;
  m["server.post_ns_p50"] = nr.post_ns_p50;
  m["server.post_ns_p99"] = nr.post_ns_p99;
  m["server.drain_busy_ms"] = nr.drain_busy_ms;
  m["server.drain_idle_ms"] = std::max(0.0, paced_ms - nr.drain_busy_ms);
  m["server.arrivals_per_drain"] = apd;
  m["server.drain_ms_p99"] = nr.drain_ms_p99;
  m["server.finish_ms"] = nr.end.finish_ms;
  m["server.snapshot_ms"] = nr.end.snapshot_ms;
  m["server.digest_ms"] = nr.end.digest_ms;
  m["loadgen.late_p99_ms"] = late_q.p99;
  m["loadgen.late_max_ms"] = late_q.max;
  m["trace.overhead_pct"] = (traced_q50 - plain_q50) / plain_q50 * 100.0;
  m["trace.accounted_pct"] = covered_ms / plain_q50 * 100.0;
  m["trace.uncovered_ms"] = plain_q50 - covered_ms;

  out.detail["reconciliation"] =
      JsonObject()
          .str("basis", "untraced ticket p50 vs replayed per-ticket stage time; "
                        "medians over alternating untraced/traced rounds")
          .integer("pairs", static_cast<std::int64_t>(plain_p50.size()))
          .num("untraced_ticket_p50_ms", plain_q50)
          .num("traced_ticket_p50_ms", traced_q50)
          .num("covered_ms", covered_ms)
          .num("uncovered_ms", plain_q50 - covered_ms)
          .num("traced_round_wall_s", traced.wall_s)
          .num("traced_top_level_ms", top_level_ms(traced_spans, 0))
          .dump();
  out.detail["generator_bound"] =
      late_q.p99 > kGeneratorBoundShare * kLatencyLimitMs ? "true" : "false";
  out.spans = std::move(traced_spans);
  return out;
}

}  // namespace perfbench
