#ifndef SPRINGDTW_PERFBENCH_LAYERS_H_
#define SPRINGDTW_PERFBENCH_LAYERS_H_

// In-process layer waterfall: the workload's generated data pushed through
// each library layer in turn (SpringMatcher, SpringBatchPool,
// MonitorEngine, ShardedMonitor, WalWriter/RecoverWal), timed from outside
// through their public functions. Together with the wire numbers this reads
// off what each layer adds per tick.

#include <cstdint>
#include <string>

#include "util/status.h"
#include "workload.h"

namespace springdtw {
namespace perfbench {

struct LayerResults {
  double matcher_ns_per_cell = 0.0;
  double pool_ns_per_cell = 0.0;
  /// MonitorEngine::PushBatch with default options, all streams.
  double engine_ns_per_tick = 0.0;
  /// ShardedMonitor::PushBatch + Drain at the workload's worker count.
  double sharded_ns_per_tick = 0.0;
  /// ShardedMonitor::Drain after one round (a batch per stream).
  double drain_us_p50 = 0.0;
  int64_t drain_rounds = 0;
  double checkpoint_ms = 0.0;
  int64_t checkpoint_bytes = 0;
  double wal_append_ns_per_tick = 0.0;
  double wal_bytes_per_tick = 0.0;
  double wal_recover_s = 0.0;
  int64_t wal_replayed_ticks = 0;
};

/// Runs every layer for roughly `budget_s` in total. `work_dir` receives
/// (and loses again) the WAL the append/recover layers write. With a
/// non-empty `prepared_dir` (daemon_churn) recovery scans that directory —
/// the daemon's own checkpoint plus WAL tail — instead of a tail written
/// here.
util::StatusOr<LayerResults> RunLayers(const WorkloadSpec& spec,
                                       uint64_t seed, double budget_s,
                                       const std::string& work_dir,
                                       const std::string& prepared_dir);

}  // namespace perfbench
}  // namespace springdtw

#endif  // SPRINGDTW_PERFBENCH_LAYERS_H_
