// In-process replays behind the traced run's per-layer numbers. Each
// replay feeds one seed's arrivals through a single layer's public API
// with spans around every call batch:
//
//  * replay_net: ADMIT bytes through FrameDecoder/parse_admit, then
//    ServerCore::post() in batches of the arrivals-per-drain measured
//    on the wire, drain(), and the ticket path (preview_admission,
//    write_ticket, append_frame) — the work a NetServer does behind
//    the socket, minus the socket;
//  * replay_online: every object's arrivals through
//    make_object_policy(), on_arrival() and finish() with a counting
//    PolicySink;
//  * replay_ledger: the streams replay_online emitted, appended to a
//    standalone ChannelLedger with apply_batch() in start order, with
//    the admission path's point queries (occupancy_at, max_over) in
//    between.
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "online/policy.h"
#include "report.h"
#include "server/server_core.h"

namespace perfbench {

/// The end of an in-process run, each step timed.
struct RunEnd {
  smerge::server::Snapshot snapshot;
  std::uint64_t digest = 0;
  double finish_ms = 0.0;    ///< finish()
  double snapshot_ms = 0.0;  ///< take_snapshot()
  double digest_ms = 0.0;    ///< snapshot_digest()
};

/// finish(), take_snapshot() and snapshot_digest() on `core`, each with
/// a span under `parent` when `lane` is set.
[[nodiscard]] RunEnd end_run(smerge::server::ServerCore& core, Lane* lane,
                             std::uint64_t parent);

struct NetReplay {
  std::uint64_t admits = 0;
  std::uint64_t protocol_errors = 0;
  double bytes_in_per_admit = 0.0;
  double bytes_out_per_ticket = 0.0;
  double decode_ns_per_admit = 0.0;
  double ticket_encode_ns = 0.0;  ///< per ticket
  double post_ns_p50 = 0.0;
  double post_ns_p99 = 0.0;
  double drain_busy_ms = 0.0;
  double drain_ms_p50 = 0.0;
  double drain_ms_p99 = 0.0;
  RunEnd end;
};

/// Replays `sends` (two connections: object parity) against a fresh
/// generic-policy core built from `config`, `admits_per_drain` arrivals
/// per drain (>= 1).
[[nodiscard]] NetReplay replay_net(smerge::OnlinePolicy& policy,
                                   const smerge::server::ServerCoreConfig& config,
                                   const std::vector<Send>& sends,
                                   std::uint64_t admits_per_drain, Lane* lane,
                                   std::uint64_t parent);

/// One transmission interval [start, end) of one object.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  Index object = 0;
};

struct OnlineReplay {
  std::uint64_t arrivals = 0;
  std::uint64_t admits = 0;
  std::uint64_t streams = 0;
  double on_arrival_ns = 0.0;    ///< per arrival
  double finish_ms = 0.0;        ///< all objects' finish() together
  std::vector<Interval> intervals;
};

/// Replays every object's trace through `policy` (prepared here for
/// `kDelay` and `horizon`).
[[nodiscard]] OnlineReplay replay_online(smerge::OnlinePolicy& policy,
                                         const Traces& traces, double horizon,
                                         Lane* lane, std::uint64_t parent);

struct LedgerReplay {
  std::uint64_t events = 0;
  std::uint64_t queries = 0;
  double apply_batch_ns_per_event = 0.0;
  double occupancy_at_ns = 0.0;  ///< mean per query
  double max_over_ns = 0.0;      ///< mean per query
  Index peak = 0;
};

/// Replays `intervals` into a ledger covering [0, horizon + 2) with
/// one-slot buckets.
[[nodiscard]] LedgerReplay replay_ledger(std::vector<Interval> intervals,
                                         double horizon, Lane* lane,
                                         std::uint64_t parent);

struct LayerReplays {
  OnlineReplay online;
  LedgerReplay ledger;
};

/// The online and ledger replays every traced run ends with, each under
/// its own top-level span on `lane`, the ledger fed with the streams the
/// online replay emitted. Adds the online.* and ledger.* metrics to
/// `out.metrics`.
[[nodiscard]] LayerReplays replay_layers(smerge::OnlinePolicy& policy,
                                         const Traces& traces, double horizon,
                                         Lane& lane, RunOutput& out);

/// Reconciles an in-process workload's traced run from the wall times
/// (ms) of its alternating untraced and traced rounds and the traced
/// rounds' top-level span totals: tracing overhead, coverage and the
/// uncovered remainder as the trace.* metrics, medians behind them as
/// the detail line's "reconciliation".
void reconcile_in_process(const std::vector<double>& plain_ms,
                          const std::vector<double>& traced_ms,
                          const std::vector<double>& top_ms, RunOutput& out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H
