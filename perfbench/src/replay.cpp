#include "replay.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "net/protocol.h"
#include "server/channel_ledger.h"
#include "server/wire.h"
#include "util/snapshot.h"

namespace perfbench {

namespace {

/// Every 16th post in the net replay is timed on its own for the post
/// latency quantiles (the clock pair costs about as much as a post).
constexpr std::uint64_t kPostSampleMask = 15;
/// Intervals appended per ledger apply_batch, and the share of them
/// whose window is also queried (every 4th).
constexpr std::size_t kLedgerChunk = 256;
constexpr std::size_t kQueryStride = 4;

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Counts what a policy emits and keeps every interval.
class CountingSink final : public smerge::PolicySink {
 public:
  CountingSink(OnlineReplay& out, Index object) : out_(out), object_(object) {}
  void start_stream(double start, double duration, Index /*parent*/) override {
    ++out_.streams;
    out_.intervals.push_back({start, start + duration, object_});
  }
  void admit(double /*arrival*/, double /*playback_start*/) override {
    ++out_.admits;
  }

 private:
  OnlineReplay& out_;
  Index object_;
};

}  // namespace

RunEnd end_run(smerge::server::ServerCore& core, Lane* lane,
               std::uint64_t parent) {
  RunEnd end;
  std::int64_t t0 = now_ns();
  core.finish();
  std::int64_t t1 = now_ns();
  end.finish_ms = ms_between(t0, t1);
  if (lane != nullptr) lane->record("server.finish", parent, t0, t1);
  t0 = t1;
  end.snapshot = core.take_snapshot();
  t1 = now_ns();
  end.snapshot_ms = ms_between(t0, t1);
  if (lane != nullptr) lane->record("server.snapshot", parent, t0, t1);
  t0 = t1;
  end.digest = smerge::server::snapshot_digest(end.snapshot);
  t1 = now_ns();
  end.digest_ms = ms_between(t0, t1);
  if (lane != nullptr) lane->record("server.digest", parent, t0, t1);
  return end;
}

NetReplay replay_net(smerge::OnlinePolicy& policy,
                     const smerge::server::ServerCoreConfig& config,
                     const std::vector<Send>& sends,
                     std::uint64_t admits_per_drain, Lane* lane,
                     std::uint64_t parent) {
  namespace net = smerge::net;
  NetReplay out;
  admits_per_drain = std::max<std::uint64_t>(1, admits_per_drain);
  smerge::server::ServerCore core(config, policy);

  std::array<net::FrameDecoder, 2> decoders;
  std::array<std::vector<std::uint8_t>, 2> in_bytes, out_bytes;
  std::array<std::uint64_t, 2> next_id{1, 1};
  struct Decoded {
    net::AdmitRecord admit;
    std::size_t conn = 0;
  };
  std::vector<Decoded> batch;
  std::vector<double> post_ns, drain_ms;
  std::uint64_t bytes_in = 0, bytes_out = 0;
  double decode_ns = 0.0, encode_ns = 0.0;

  for (std::size_t first = 0; first < sends.size(); first += admits_per_drain) {
    const std::size_t last =
        std::min<std::size_t>(sends.size(), first + admits_per_drain);
    // Client side (not measured): the ADMIT bytes of this batch.
    for (std::size_t i = first; i < last; ++i) {
      const std::size_t conn = static_cast<std::size_t>(sends[i].object & 1);
      net::append_admit(in_bytes[conn], next_id[conn]++, sends[i].object,
                        sends[i].time);
    }

    batch.clear();
    std::int64_t t0 = now_ns();
    for (std::size_t conn = 0; conn < 2; ++conn) {
      bytes_in += in_bytes[conn].size();
      decoders[conn].feed(in_bytes[conn]);
      in_bytes[conn].clear();
      net::Frame frame;
      try {
        while (decoders[conn].next_frame(frame)) {
          if (frame.type != net::RecordType::kAdmit) {
            ++out.protocol_errors;
            continue;
          }
          batch.push_back({net::parse_admit(frame.payload), conn});
        }
      } catch (const net::ProtocolError&) {
        ++out.protocol_errors;
      }
    }
    std::int64_t t1 = now_ns();
    decode_ns += static_cast<double>(t1 - t0);
    if (lane != nullptr) lane->record("net.decode", parent, t0, t1);

    t0 = now_ns();
    for (const Decoded& d : batch) {
      if ((out.admits++ & kPostSampleMask) == 0) {
        const std::int64_t p0 = now_ns();
        core.post(d.admit.object, d.admit.time);
        post_ns.push_back(static_cast<double>(now_ns() - p0));
      } else {
        core.post(d.admit.object, d.admit.time);
      }
    }
    t1 = now_ns();
    if (lane != nullptr) lane->record("server.post", parent, t0, t1);

    t0 = now_ns();
    core.drain();
    t1 = now_ns();
    drain_ms.push_back(ms_between(t0, t1));
    if (lane != nullptr) lane->record("server.drain", parent, t0, t1);

    // The ticket path a reactor runs once the drain completed.
    t0 = now_ns();
    smerge::util::SnapshotWriter w;
    for (const Decoded& d : batch) {
      const std::size_t base = w.size();
      w.u64(d.admit.request_id);
      smerge::server::write_ticket(
          w, core.preview_admission(d.admit.object, d.admit.time));
      net::append_frame(out_bytes[d.conn], net::RecordType::kTicket,
                        w.payload().subspan(base));
    }
    t1 = now_ns();
    encode_ns += static_cast<double>(t1 - t0);
    if (lane != nullptr) lane->record("net.ticket_encode", parent, t0, t1);
    for (auto& bytes : out_bytes) {
      bytes_out += bytes.size();
      bytes.clear();
    }
  }

  out.end = end_run(core, lane, parent);

  const auto admits = static_cast<double>(std::max<std::uint64_t>(1, out.admits));
  out.bytes_in_per_admit = static_cast<double>(bytes_in) / admits;
  out.bytes_out_per_ticket = static_cast<double>(bytes_out) / admits;
  out.decode_ns_per_admit = decode_ns / admits;
  out.ticket_encode_ns = encode_ns / admits;
  const Quantiles post = summarize(post_ns);
  out.post_ns_p50 = post.p50;
  out.post_ns_p99 = post.p99;
  for (const double ms : drain_ms) out.drain_busy_ms += ms;
  const Quantiles drain = summarize(drain_ms);
  out.drain_ms_p50 = drain.p50;
  out.drain_ms_p99 = drain.p99;
  return out;
}

OnlineReplay replay_online(smerge::OnlinePolicy& policy, const Traces& traces,
                           double horizon, Lane* lane, std::uint64_t parent) {
  OnlineReplay out;
  policy.prepare(kDelay, horizon);
  double arrival_ns = 0.0, finish_ns = 0.0;
  for (std::size_t m = 0; m < traces.size(); ++m) {
    const auto object = static_cast<Index>(m);
    CountingSink sink(out, object);
    const std::unique_ptr<smerge::ObjectPolicy> state =
        policy.make_object_policy(kDelay, horizon);
    std::int64_t t0 = now_ns();
    for (const double t : traces[m]) state->on_arrival(t, sink);
    std::int64_t t1 = now_ns();
    arrival_ns += static_cast<double>(t1 - t0);
    if (lane != nullptr) lane->record("online.on_arrival", parent, t0, t1);
    t0 = now_ns();
    state->finish(horizon, sink);
    t1 = now_ns();
    finish_ns += static_cast<double>(t1 - t0);
    if (lane != nullptr) lane->record("online.finish", parent, t0, t1);
    out.arrivals += traces[m].size();
  }
  out.on_arrival_ns =
      arrival_ns / static_cast<double>(std::max<std::uint64_t>(1, out.arrivals));
  out.finish_ms = finish_ns / 1e6;
  return out;
}

LedgerReplay replay_ledger(std::vector<Interval> intervals, double horizon,
                           Lane* lane, std::uint64_t parent) {
  LedgerReplay out;
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const Interval& a, const Interval& b) {
                     return a.start < b.start;
                   });
  smerge::server::ChannelLedger ledger(horizon + 2.0, kDelay);
  std::vector<smerge::server::LedgerEvent> events;
  double apply_ns = 0.0, occupancy_ns = 0.0, max_over_ns = 0.0;
  Index sink = 0;  // keeps the queries observable
  for (std::size_t first = 0; first < intervals.size(); first += kLedgerChunk) {
    const std::size_t last = std::min(intervals.size(), first + kLedgerChunk);
    // The admission path's point queries against what is booked so far.
    std::int64_t t0 = now_ns();
    for (std::size_t i = first; i < last; i += kQueryStride) {
      const std::int64_t q0 = now_ns();
      sink += ledger.occupancy_at(intervals[i].start);
      const std::int64_t q1 = now_ns();
      sink += ledger.max_over(intervals[i].start, intervals[i].end);
      const std::int64_t q2 = now_ns();
      occupancy_ns += static_cast<double>(q1 - q0);
      max_over_ns += static_cast<double>(q2 - q1);
      ++out.queries;
    }
    std::int64_t t1 = now_ns();
    if (lane != nullptr) lane->record("ledger.query", parent, t0, t1);

    events.clear();
    for (std::size_t i = first; i < last; ++i) {
      events.push_back({intervals[i].start, intervals[i].object, +1, true});
      events.push_back({intervals[i].end, intervals[i].object, -1, false});
    }
    t0 = now_ns();
    ledger.apply_batch(events);
    t1 = now_ns();
    apply_ns += static_cast<double>(t1 - t0);
    out.events += events.size();
    if (lane != nullptr) lane->record("ledger.apply_batch", parent, t0, t1);
  }
  out.peak = ledger.peak();
  out.apply_batch_ns_per_event =
      apply_ns / static_cast<double>(std::max<std::uint64_t>(1, out.events));
  const auto queries = static_cast<double>(std::max<std::uint64_t>(1, out.queries));
  out.occupancy_at_ns = occupancy_ns / queries;
  out.max_over_ns = max_over_ns / queries;
  if (sink < 0) out.peak = -1;  // unreachable: occupancies are >= 0
  return out;
}

LayerReplays replay_layers(smerge::OnlinePolicy& policy, const Traces& traces,
                           double horizon, Lane& lane, RunOutput& out) {
  LayerReplays r;
  {
    ScopedSpan span(&lane, "replay.online");
    r.online = replay_online(policy, traces, horizon, &lane, span.id());
  }
  {
    ScopedSpan span(&lane, "replay.ledger");
    r.ledger = replay_ledger(std::move(r.online.intervals), horizon, &lane, span.id());
  }
  auto& m = out.metrics;
  m["ledger.apply_batch_ns_per_event"] = r.ledger.apply_batch_ns_per_event;
  m["ledger.max_over_ns"] = r.ledger.max_over_ns;
  m["ledger.occupancy_at_ns"] = r.ledger.occupancy_at_ns;
  m["online.on_arrival_ns"] = r.online.on_arrival_ns;
  m["online.finish_ms"] = r.online.finish_ms;
  m["online.streams_per_admission"] =
      static_cast<double>(r.online.streams) /
      static_cast<double>(std::max<std::uint64_t>(1, r.online.admits));
  return r;
}

void reconcile_in_process(const std::vector<double>& plain_ms,
                          const std::vector<double>& traced_ms,
                          const std::vector<double>& top_ms, RunOutput& out) {
  const double plain_wall = median(plain_ms);
  const double traced_wall = median(traced_ms);
  const double top = median(top_ms);
  auto& m = out.metrics;
  m["trace.overhead_pct"] = (traced_wall - plain_wall) / plain_wall * 100.0;
  m["trace.accounted_pct"] = top / plain_wall * 100.0;
  m["trace.uncovered_ms"] = std::max(0.0, traced_wall - top);
  out.detail["reconciliation"] =
      JsonObject()
          .str("basis", "driver-thread top-level spans vs round wall time, "
                        "medians over alternating untraced/traced rounds")
          .integer("pairs", static_cast<std::int64_t>(plain_ms.size()))
          .num("untraced_wall_ms", plain_wall)
          .num("traced_wall_ms", traced_wall)
          .num("top_level_ms", top)
          .num("top_level_share_of_traced_wall", top / traced_wall)
          .dump();
}

}  // namespace perfbench
