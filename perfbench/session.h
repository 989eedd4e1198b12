#ifndef SPRINGDTW_PERFBENCH_SESSION_H_
#define SPRINGDTW_PERFBENCH_SESSION_H_

// One daemon lifetime driven by the single-threaded load generator: spawn
// springdtw_serve, make it ready (streams opened, queries added,
// subscribed), run the pipelined ingest and round-trip windows on one
// subscribed connection, and record every MATCH_EVENT for the comparison
// against the in-process reference.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"
#include "wire.h"
#include "workload.h"

namespace springdtw {
namespace perfbench {

/// Operations attempted and failed across a run. Failures are rejected
/// ticks, failed admin calls or scrapes, dropped connections, match
/// mismatches against the reference, and unclean daemon exits.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t slow_disconnects = 0;

  void Fail(const std::string& what, int64_t count = 1);
};

/// What one session delivered, for the reference comparison.
struct Delivered {
  /// Per stream: the daemon's position when the session began (non-zero
  /// after a restart) and the ticks fed by its end.
  std::vector<int64_t> base;
  std::vector<int64_t> end;
  /// [stream][query] matches reported at or after `base`, in arrival order.
  std::vector<std::vector<std::vector<MatchRec>>> matches;
  /// Matches below `base` re-sent after a crash (recovered past the
  /// delivery watermark): (stream, query, match).
  struct Redelivery {
    int64_t stream = 0;
    int64_t query = 0;
    MatchRec match;
  };
  std::vector<Redelivery> redelivered;
  int64_t churn_matches = 0;
  int64_t events = 0;
};

struct IngestStats {
  /// Ticks per second of each piece of the window.
  std::vector<double> rates;
  int64_t ticks = 0;
  double seconds = 0.0;
  uint64_t bytes = 0;
  /// Per piece: time from the last batch queued to DRAIN_ACK (the
  /// in-flight backlog).
  std::vector<double> drain_ms;
  /// A piece hit its time cap before its ticks were sent.
  bool capped = false;
};

struct Config {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string serve_binary;
  std::string work_dir;
};

/// springdtw_serve flags for `spec`, with or without its telemetry flags;
/// `wal_dir` is empty unless the workload logs ticks.
std::vector<std::string> DaemonFlags(const WorkloadSpec& spec, bool telemetry,
                                     const std::string& wal_dir);

class Session {
 public:
  Session(const Config& config, bool telemetry, Tally* tally);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawns the daemon and makes it ready to ingest; the elapsed time is
  /// setup_s(). `wal_dir` is daemon_churn's WAL directory; with `restart`
  /// it holds a prepared checkpoint + tail whose topology is verified
  /// instead of created.
  util::Status Start(const std::string& wal_dir, bool restart);
  double setup_s() const { return setup_s_; }

  /// Pipelined ingest of `ticks` ticks: batches round-robin over the
  /// streams, split into `pieces` windows, each closed by a DRAIN. A piece
  /// stops early (stats->capped) after max_seconds / pieces.
  util::Status Ingest(int64_t ticks, int pieces, double max_seconds,
                      IngestStats* stats);
  /// Up to `count` closed-loop round trips, for at most `max_seconds`: one
  /// batch per stream, then DRAIN; appends each round trip in ms to
  /// `*rtt_ms`.
  util::Status Rounds(int64_t count, double max_seconds,
                      std::vector<double>* rtt_ms);
  /// Feeds `per_stream` ticks to every stream, then drains.
  util::Status FeedAll(int64_t per_stream);
  util::Status Checkpoint();
  /// Timed GET of /metrics.json (daemon must run with introspection).
  util::StatusOr<util::JsonValue> Scrape();

  /// Reads peak RSS, then SIGTERM; a non-zero exit is a failure.
  util::Status Stop(double* peak_rss_mb);
  /// SIGKILL (the crash a restart recovers from).
  void Crash();
  Delivered TakeDelivered() { return std::move(delivered_); }

  int64_t ticks_routed() const { return routed_; }
  const std::vector<double>& admin_ms() const { return admin_ms_; }
  const std::vector<double>& setup_admin_ms() const { return setup_admin_ms_; }
  const std::vector<double>& scrape_ms() const { return scrape_ms_; }

 private:
  int64_t Feed(int64_t stream, int64_t ticks);
  util::Status DrainChecked();
  util::Status Churn();
  util::Status MaybeScrape(uint64_t now);
  void OnMatch(const net::MatchEventPayload& event);
  /// Records `status` as a failure (a closed connection as a disconnect).
  util::Status Check(util::Status status, const std::string& what);
  void Finish();

  const Config& config_;
  const WorkloadSpec& spec_;
  bool telemetry_;
  Tally* tally_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Conn> conn_;
  std::vector<StreamData> data_;
  std::vector<int64_t> stream_ids_;
  int64_t churn_query_id_ = -1;
  int64_t next_stream_ = 0;
  int64_t routed_ = 0;
  int64_t rounds_ = 0;
  uint64_t next_scrape_nanos_ = 0;
  double setup_s_ = 0.0;
  std::vector<double> values_;
  std::vector<double> admin_ms_;
  std::vector<double> setup_admin_ms_;
  std::vector<double> scrape_ms_;
  Delivered delivered_;
};

/// Compares every session's delivered matches with the in-process
/// reference (one core::SpringMatcher per stable query over the same
/// values), counting each missing, extra or differing match as a failure.
/// Returns the number of matches compared.
int64_t VerifyAgainstReference(const Config& config,
                               const std::vector<Delivered>& sessions,
                               Tally* tally);

}  // namespace perfbench
}  // namespace springdtw

#endif  // SPRINGDTW_PERFBENCH_SESSION_H_
