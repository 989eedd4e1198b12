#ifndef SPRINGDTW_PERFBENCH_WIRE_H_
#define SPRINGDTW_PERFBENCH_WIRE_H_

// Process and socket plumbing for the load generator: the springdtw_serve
// child process, a single-threaded poll()-driven protocol connection, and
// a blocking HTTP GET for the daemon's introspection port.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/status.h"

namespace springdtw {
namespace perfbench {

/// Monotonic nanoseconds (the clock the daemon's span tracer uses).
uint64_t NowNanos();

/// CPU split between the load generator and the daemon: the generator
/// thread runs on the last CPU this process may use, every daemon thread on
/// the others, so the two never preempt each other (and the generator can
/// spin while it waits, see Conn::Pump). No-op with one CPU.
/// Unpin() lets the calling thread use every CPU again (layer runs and the
/// reference check, which run while no daemon does).
void PinGenerator();
void Unpin();

/// springdtw_serve running as a child process. Spawn() returns once the
/// daemon printed its SERVE_PORT (and INTROSPECT_PORT, when asked for), i.e.
/// once it accepts connections. The destructor SIGKILLs and reaps a daemon
/// that was neither terminated nor killed.
class Daemon {
 public:
  static util::StatusOr<std::unique_ptr<Daemon>> Spawn(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& log_path);

  Daemon(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// -1 when the daemon runs without introspection.
  int introspect_port() const { return introspect_port_; }

  /// Peak resident set (VmHWM) in MiB, read from /proc.
  util::StatusOr<double> PeakRssMb() const;

  /// SIGTERM, then waits for exit; OK only for a clean exit with code 0.
  util::Status Terminate();
  /// SIGKILL and reap: the crash the WAL recovers from.
  void Kill();

 private:
  util::Status AwaitPorts(bool want_introspect, double timeout_s);
  util::Status Reap(int signal_number);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
  int introspect_port_ = -1;
};

/// A protocol session driven by one thread: requests block (pumping the
/// socket with poll()), ticks are queued and written as the socket accepts
/// them, and MATCH_EVENT frames are decoded and handed to the match
/// callback whenever the connection is read — so a subscribed connection
/// is drained of matches throughout pipelined ingest.
class Conn {
 public:
  using MatchFn = std::function<void(const net::MatchEventPayload&)>;

  /// Connects to 127.0.0.1:`port` and runs the HELLO handshake.
  static util::StatusOr<std::unique_ptr<Conn>> Open(int port, MatchFn on_match);

  explicit Conn(int fd, MatchFn on_match)
      : fd_(fd), on_match_(std::move(on_match)) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Returns the stream id; `*ticks` gets the server's durable position.
  util::StatusOr<int64_t> OpenStream(const std::string& name, int64_t* ticks);
  util::StatusOr<int64_t> AddQuery(int64_t stream_id, const std::string& name,
                                   const std::vector<double>& values,
                                   double epsilon);
  util::StatusOr<int64_t> RemoveQuery(int64_t query_id);
  util::StatusOr<std::vector<net::QueryListPayload::Entry>> ListQueries();
  util::Status Subscribe();
  util::StatusOr<uint64_t> Checkpoint();
  /// Sends DRAIN after everything queued and waits for DRAIN_ACK; returns
  /// the server's applied-tick count.
  util::StatusOr<uint64_t> Drain();

  /// Queues one TICK_BATCH frame (stamped with the send time).
  void QueueBatch(int64_t stream_id, std::span<const double> values);
  /// Queues a DRAIN without waiting: its DRAIN_ACK, which must report
  /// `expected_ticks` applied, is consumed by a later read. Used as flow
  /// credit during pipelined ingest.
  void QueueDrain(uint64_t expected_ticks);
  size_t drains_in_flight() const { return async_drains_.size(); }
  /// Queued DRAINs whose DRAIN_ACK reported another tick count.
  int64_t drain_mismatches() const { return drain_mismatches_; }
  size_t pending_bytes() const { return out_.size() - out_offset_; }
  /// One poll round: writes what the socket accepts, reads and dispatches
  /// what arrived. Waits at most `timeout_ms` for either.
  util::Status Pump(int timeout_ms);

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  template <typename Request, typename Response>
  util::Status Call(net::FrameType request_type, Request request,
                    net::FrameType response_type, Response* response);
  util::Status AwaitResponse(net::Frame* frame);
  util::Status WriteSome();
  util::Status ReadSome();

  int fd_ = -1;
  MatchFn on_match_;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> out_;
  size_t out_offset_ = 0;
  std::vector<uint8_t> in_;
  std::optional<net::Frame> response_;
  uint64_t bytes_written_ = 0;
  net::TickBatchPayload batch_;
  /// Expected tick counts of queued DRAINs, oldest first.
  std::deque<uint64_t> async_drains_;
  int64_t drain_mismatches_ = 0;
};

/// Blocking HTTP/1.0 GET of `path` on 127.0.0.1:`port`; returns the body.
util::StatusOr<std::string> HttpGet(int port, const std::string& path);

}  // namespace perfbench
}  // namespace springdtw

#endif  // SPRINGDTW_PERFBENCH_WIRE_H_
