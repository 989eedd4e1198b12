#ifndef SPRINGDTW_PERFBENCH_WORKLOAD_H_
#define SPRINGDTW_PERFBENCH_WORKLOAD_H_

// The benchmark's workloads and the inputs they generate from a seed:
// stream values (background noise with planted noisy copies of each
// stream's first query), query templates, and the in-process reference
// matches every delivered MATCH_EVENT is compared against.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/spring.h"
#include "util/random.h"

namespace springdtw {
namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int64_t workers = 1;
  int64_t streams = 1;
  int64_t queries_per_stream = 1;
  /// Query length m (every query of the workload has the same length).
  int64_t m = 1;
  /// Ticks per TICK_BATCH in the pipelined ingest window.
  int64_t batch_ticks = 1;
  /// Pipelined ingest queues a DRAIN after every this many ticks and keeps
  /// at most two unanswered: the daemon reads every byte its socket holds
  /// and the kernel grows that buffer to megabytes, so without this
  /// credit the backlog behind the window's closing DRAIN grows without
  /// bound (12.7 s of work after a 2 s kernel_bound window).
  int64_t credit_ticks = 1;
  /// Ticks per stream in one round trip.
  int64_t round_ticks = 1;
  /// Rates that size the windows: a window of W seconds is a fixed amount
  /// of work, W * nominal_ticks_per_s ticks of ingest or
  /// W * nominal_rounds_per_s round trips, so every run leaves the daemon
  /// with the same history. Measured when the benchmark was written (on a
  /// 4-CPU host); they set work, not results.
  double nominal_ticks_per_s = 1.0;
  double nominal_rounds_per_s = 1.0;
  /// Mean distance in ticks between the starts of two plants on a stream.
  int64_t plant_every = 1;
  /// daemon_churn: the WAL/checkpoint/admin path. Runs from a restarted
  /// daemon, checkpoints and churns one query every `churn_every_rounds`,
  /// and scrapes /metrics.json once a second.
  bool churn = false;
  int64_t churn_every_rounds = 0;
  /// daemon_churn: ticks per stream before the prepared checkpoint, and
  /// the WAL tail after it that every restart replays.
  int64_t prefix_ticks = 0;
  int64_t tail_ticks = 0;
  /// Daemon flags besides --port, --wal_dir and the telemetry flags.
  std::vector<std::string> flags;
  /// The daemon's tracing/telemetry flags ("on" in the traced pair).
  std::vector<std::string> telemetry_flags;
  /// Whether end-to-end runs use the telemetry flags (daemon_churn runs
  /// the documented production flags, which include them).
  bool telemetry_in_e2e = false;

  int64_t cells_per_tick() const { return queries_per_stream * m; }
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Epsilon shared by every query: plants (noise below 0.2 per tick) always
/// qualify, background noise against any template never does.
double Epsilon(const WorkloadSpec& spec);

/// Query template `query` of stream `stream`: a sinusoid of random
/// amplitude, frequency, phase and offset.
std::vector<double> QueryValues(const WorkloadSpec& spec, uint64_t seed,
                                int64_t stream, int64_t query);

/// The churn query: a constant level no stream value ever comes near.
std::vector<double> ChurnQueryValues(const WorkloadSpec& spec);

std::string StreamName(int64_t stream);
std::string QueryName(int64_t query);
inline constexpr char kChurnQueryName[] = "churn";

/// Deterministic value source for one stream: uniform noise in
/// [-0.5, 0.5] with noisy copies of the stream's first query planted after
/// random gaps. Fill() continues where the previous call stopped.
class StreamData {
 public:
  StreamData(const WorkloadSpec& spec, uint64_t seed, int64_t stream);

  void Fill(std::span<double> out);
  void Skip(int64_t ticks);
  int64_t position() const { return position_; }

 private:
  double Noise(double half_width);
  int64_t NextGap();

  util::SplitMix64 rng_;
  std::vector<double> plant_;
  int64_t mean_gap_ = 0;
  int64_t gap_left_ = 0;
  int64_t plant_pos_ = -1;
  int64_t position_ = 0;
};

/// One match as the comparison sees it; equality is exact (distance bit
/// for bit).
struct MatchRec {
  int64_t start = 0;
  int64_t end = 0;
  int64_t report_time = 0;
  double distance = 0.0;
};
bool operator<(const MatchRec& a, const MatchRec& b);
bool operator==(const MatchRec& a, const MatchRec& b);

/// Matches a lone core::SpringMatcher reports for (`stream`, `query`)
/// over the stream's first `ticks` values.
std::vector<MatchRec> ReferenceMatches(const WorkloadSpec& spec,
                                       uint64_t seed, int64_t stream,
                                       int64_t query, int64_t ticks);

}  // namespace perfbench
}  // namespace springdtw

#endif  // SPRINGDTW_PERFBENCH_WORKLOAD_H_
