// The three workloads. Each runs in its own process; with
// `options.trace` unset it measures the end-to-end metrics over rounds
// that fill `options.seconds`, otherwise it runs one untraced and one
// traced round plus the layer replays and fills the per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "inputs.h"

namespace perfbench {

/// Open-loop ADMIT traffic over loopback into an in-process NetServer
/// (Delay Guaranteed policy, 256 objects): a nominal phase below
/// capacity for ticket latency, an overload phase for capacity.
[[nodiscard]] RunOutput run_wire_paced(const Options& options);

/// Two producers post() into a 2-shard ServerCore (batching policy,
/// 1000 objects) while the driver thread loops drain().
[[nodiscard]] RunOutput run_core_ingest(const Options& options);

/// Serial admit() on a slotted-batching core (2000 objects) under a
/// channel budget of 80% of the unbounded peak, deferring on overload.
[[nodiscard]] RunOutput run_admit_budget(const Options& options);

/// Wall-clock latency limit beyond which a ticket counts as failed.
inline constexpr double kLatencyLimitMs = 25.0;

/// Setup-only samples behind setup_s, taken before every timed round so
/// they are spread over the run: taken in one block, a whole run's
/// samples share whatever state the host is in at that moment, and run
/// medians of a sub-millisecond construction split into modes ~50% apart.
inline constexpr int kSetupSamplesPerRound = 4;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
