#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "core/spring.h"
#include "core/spring_batch.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "util/stats.h"
#include "wal/env.h"
#include "wal/wal.h"
#include "wire.h"

namespace springdtw {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Ticks generated per stream for the layer runs; runs cycle through them.
constexpr int64_t kBlockTicks = 16384;
/// One timing slice: calls are grouped until a slice lasts this long.
constexpr uint64_t kSliceNanos = 5'000'000;
/// Ticks appended per WAL append repetition (bounds the disk written).
constexpr int64_t kWalAppendTicks = int64_t{1} << 21;
constexpr int kRepeats = 5;

/// Per-stream value blocks plus a cursor handing out consecutive runs.
class Blocks {
 public:
  Blocks(const WorkloadSpec& spec, uint64_t seed)
      : values_(static_cast<size_t>(spec.streams)),
        cursor_(static_cast<size_t>(spec.streams), 0) {
    for (int64_t s = 0; s < spec.streams; ++s) {
      StreamData data(spec, seed, s);
      auto& block = values_[static_cast<size_t>(s)];
      block.resize(static_cast<size_t>(kBlockTicks));
      data.Fill(block);
    }
  }

  /// The next `n` values of `stream` (n divides kBlockTicks).
  std::span<const double> Next(int64_t stream, int64_t n) {
    int64_t& at = cursor_[static_cast<size_t>(stream)];
    if (at + n > kBlockTicks) at = 0;
    const auto& block = values_[static_cast<size_t>(stream)];
    std::span<const double> out(block.data() + at, static_cast<size_t>(n));
    at += n;
    return out;
  }

 private:
  std::vector<std::vector<double>> values_;
  std::vector<int64_t> cursor_;
};

/// Calls `work` (returning the ticks it processed) for `budget_s`, grouped
/// into slices of at least kSliceNanos; returns the median ns per tick over
/// the slices.
template <typename Work>
double MedianNsPerTick(double budget_s, Work work) {
  util::QuantileSketch per_tick;
  const uint64_t end = NowNanos() + static_cast<uint64_t>(budget_s * 1e9);
  while (NowNanos() < end || per_tick.count() < 3) {
    const uint64_t start = NowNanos();
    int64_t ticks = 0;
    uint64_t elapsed = 0;
    do {
      ticks += work();
      elapsed = NowNanos() - start;
    } while (elapsed < kSliceNanos);
    per_tick.Add(static_cast<double>(elapsed) / static_cast<double>(ticks));
  }
  return per_tick.Median();
}

core::SpringOptions QueryOptions(const WorkloadSpec& spec) {
  core::SpringOptions options;
  options.epsilon = Epsilon(spec);
  return options;
}

int64_t DirBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  return bytes;
}

/// Appends every stream's next `ticks_per_stream` values to `wal` in the
/// workload's batches, round-robin; returns the ticks appended.
util::StatusOr<int64_t> AppendRoundRobin(const WorkloadSpec& spec,
                                         Blocks* blocks, wal::WalWriter* wal,
                                         int64_t ticks_per_stream,
                                         uint64_t* seq) {
  int64_t appended = 0;
  for (int64_t done = 0; done < ticks_per_stream; done += spec.batch_ticks) {
    for (int64_t s = 0; s < spec.streams; ++s) {
      const auto values = blocks->Next(s, spec.batch_ticks);
      SPRINGDTW_RETURN_IF_ERROR(
          wal->AppendTicks(s % spec.workers, *seq, s, values));
      *seq += values.size();
      appended += static_cast<int64_t>(values.size());
    }
  }
  return appended;
}

util::StatusOr<std::unique_ptr<wal::WalWriter>> OpenWal(
    const WorkloadSpec& spec, const std::string& dir) {
  fs::remove_all(dir);
  wal::WalOptions options;
  options.dir = dir;
  options.num_shards = spec.workers;
  options.fsync = wal::FsyncPolicy::kOs;
  return wal::WalWriter::Open(options);
}

/// Global sequence a checkpoint file ends at (the recovery start point).
util::StatusOr<uint64_t> CheckpointSeq(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::IoError("cannot open " + path);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  monitor::ShardedMonitor restored;
  SPRINGDTW_RETURN_IF_ERROR(restored.RestoreState(bytes));
  return restored.next_seq();
}

}  // namespace

util::StatusOr<LayerResults> RunLayers(const WorkloadSpec& spec,
                                       uint64_t seed, double budget_s,
                                       const std::string& work_dir,
                                       const std::string& prepared_dir) {
  Unpin();
  LayerResults out;
  Blocks blocks(spec, seed);
  const double slot = budget_s / 6.0;
  const core::SpringOptions options = QueryOptions(spec);
  const double cells = static_cast<double>(spec.cells_per_tick());

  // core: stream 0's queries, single thread.
  {
    std::vector<core::SpringMatcher> matchers;
    core::SpringBatchPool pool;
    for (int64_t q = 0; q < spec.queries_per_stream; ++q) {
      matchers.emplace_back(QueryValues(spec, seed, 0, q), options);
      pool.AddQuery(QueryValues(spec, seed, 0, q), options);
    }
    core::Match match;
    out.matcher_ns_per_cell =
        MedianNsPerTick(slot / 2, [&] {
          const auto values = blocks.Next(0, spec.batch_ticks);
          for (double x : values) {
            for (auto& matcher : matchers) (void)matcher.Update(x, &match);
          }
          return spec.batch_ticks;
        }) /
        cells;
    std::vector<core::SpringBatchPool::Report> reports;
    out.pool_ns_per_cell =
        MedianNsPerTick(slot / 2, [&] {
          reports.clear();
          (void)pool.PushBatch(blocks.Next(0, spec.batch_ticks), &reports);
          return spec.batch_ticks;
        }) /
        cells;
  }

  // engine: default options, every stream round-robin.
  {
    monitor::MonitorEngine engine;
    for (int64_t s = 0; s < spec.streams; ++s) {
      const int64_t id = engine.AddStream(StreamName(s));
      for (int64_t q = 0; q < spec.queries_per_stream; ++q) {
        SPRINGDTW_RETURN_IF_ERROR(
            engine
                .AddQuery(id, QueryName(q), QueryValues(spec, seed, s, q),
                          options)
                .status());
      }
    }
    int64_t next = 0;
    util::Status failed;
    out.engine_ns_per_tick = MedianNsPerTick(slot, [&] {
      const int64_t s = next;
      next = (next + 1) % spec.streams;
      auto pushed = engine.PushBatch(s, blocks.Next(s, spec.batch_ticks));
      if (!pushed.ok()) failed = pushed.status();
      return spec.batch_ticks;
    });
    SPRINGDTW_RETURN_IF_ERROR(failed);
  }

  // sharded: the daemon's monitor at the workload's worker count.
  {
    monitor::ShardedMonitorOptions sharded_options;
    sharded_options.num_workers = spec.workers;
    monitor::ShardedMonitor sharded(sharded_options);
    sharded.Start();
    for (int64_t s = 0; s < spec.streams; ++s) {
      const int64_t id = sharded.AddStream(StreamName(s));
      for (int64_t q = 0; q < spec.queries_per_stream; ++q) {
        SPRINGDTW_RETURN_IF_ERROR(
            sharded
                .AddQuery(id, QueryName(q), QueryValues(spec, seed, s, q),
                          options)
                .status());
      }
    }
    // Enough ticks between drains for ~50 ms of kernel work, so the drain
    // barrier is a small share of the measured pass.
    const int64_t per_pass = spec.streams * spec.batch_ticks;
    const int64_t passes = std::max<int64_t>(
        1, static_cast<int64_t>(5e7 / (cells * 7.0 + 100.0)) / per_pass);
    util::Status failed;
    out.sharded_ns_per_tick = MedianNsPerTick(slot, [&] {
      for (int64_t p = 0; p < passes; ++p) {
        for (int64_t s = 0; s < spec.streams; ++s) {
          const util::Status pushed =
              sharded.PushBatch(s, blocks.Next(s, spec.batch_ticks));
          if (!pushed.ok()) failed = pushed;
        }
      }
      (void)sharded.Drain();
      return passes * per_pass;
    });
    SPRINGDTW_RETURN_IF_ERROR(failed);

    util::QuantileSketch drain_us;
    const uint64_t end = NowNanos() + static_cast<uint64_t>(slot * 1e9);
    while (NowNanos() < end || drain_us.count() < 10) {
      for (int64_t s = 0; s < spec.streams; ++s) {
        SPRINGDTW_RETURN_IF_ERROR(
            sharded.PushBatch(s, blocks.Next(s, spec.round_ticks)));
      }
      const uint64_t start = NowNanos();
      (void)sharded.Drain();
      drain_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
    }
    out.drain_us_p50 = drain_us.Median();
    out.drain_rounds = drain_us.count();

    util::QuantileSketch checkpoint_ms;
    for (int i = 0; i < kRepeats; ++i) {
      const uint64_t start = NowNanos();
      const std::vector<uint8_t> state = sharded.SerializeState();
      checkpoint_ms.Add(static_cast<double>(NowNanos() - start) / 1e6);
      out.checkpoint_bytes = static_cast<int64_t>(state.size());
    }
    out.checkpoint_ms = checkpoint_ms.Median();
    sharded.Stop();
  }

  // wal: tick appends in the workload's batches (fsync=os), then recovery.
  {
    const std::string dir = work_dir + "/layer_wal";
    util::QuantileSketch append_ns;
    const int64_t per_stream = std::max<int64_t>(
        spec.batch_ticks, kWalAppendTicks / spec.streams / spec.batch_ticks *
                              spec.batch_ticks);
    for (int i = 0; i < 3; ++i) {
      auto wal = OpenWal(spec, dir);
      if (!wal.ok()) return wal.status();
      uint64_t seq = 0;
      const uint64_t start = NowNanos();
      auto appended =
          AppendRoundRobin(spec, &blocks, wal->get(), per_stream, &seq);
      if (!appended.ok()) return appended.status();
      append_ns.Add(static_cast<double>(NowNanos() - start) /
                    static_cast<double>(*appended));
      out.wal_bytes_per_tick = static_cast<double>(DirBytes(dir)) /
                               static_cast<double>(*appended);
    }
    out.wal_append_ns_per_tick = append_ns.Median();

    std::string recover_dir = prepared_dir;
    uint64_t start_seq = 0;
    if (prepared_dir.empty()) {
      // The tail a daemon_churn restart replays, in this workload's shape.
      auto wal = OpenWal(spec, dir);
      if (!wal.ok()) return wal.status();
      uint64_t seq = 0;
      auto appended = AppendRoundRobin(spec, &blocks, wal->get(), 4096, &seq);
      if (!appended.ok()) return appended.status();
      recover_dir = dir;
    } else {
      auto seq = CheckpointSeq(prepared_dir + "/checkpoint.ckpt");
      if (!seq.ok()) return seq.status();
      start_seq = *seq;
    }
    util::QuantileSketch recover_s;
    for (int i = 0; i < kRepeats; ++i) {
      const uint64_t start = NowNanos();
      auto recovered =
          wal::RecoverWal(wal::Env::Default(), recover_dir, start_seq);
      if (!recovered.ok()) return recovered.status();
      recover_s.Add(static_cast<double>(NowNanos() - start) / 1e9);
      out.wal_replayed_ticks = recovered->values;
    }
    out.wal_recover_s = recover_s.Median();
    fs::remove_all(dir);
  }
  return out;
}

}  // namespace perfbench
}  // namespace springdtw
