#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/stopwatch.h"

namespace springdtw {
namespace perfbench {
namespace {

using net::FrameType;

constexpr size_t kReadChunk = size_t{64} << 10;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

util::StatusOr<int> ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return util::IoError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const util::Status status = util::IoError(Errno("connect"));
    close(fd);
    return status;
  }
  return fd;
}

struct CpuSets {
  cpu_set_t all;
  cpu_set_t generator;
  cpu_set_t daemon;
  bool split = false;
};

/// Computed once, from the affinity the process started with.
const CpuSets& Cpus() {
  static const CpuSets sets = [] {
    CpuSets out;
    CPU_ZERO(&out.all);
    CPU_ZERO(&out.generator);
    CPU_ZERO(&out.daemon);
    if (sched_getaffinity(0, sizeof(out.all), &out.all) != 0) return out;
    out.split = CPU_COUNT(&out.all) >= 2;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &out.all)) last = cpu;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &out.all)) continue;
      CPU_SET(cpu, cpu == last ? &out.generator : &out.daemon);
    }
    return out;
  }();
  return sets;
}

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(util::Stopwatch::NowNanos());
}

void PinGenerator() {
  if (Cpus().split) {
    (void)sched_setaffinity(0, sizeof(cpu_set_t), &Cpus().generator);
  }
}

void Unpin() {
  if (Cpus().split) (void)sched_setaffinity(0, sizeof(cpu_set_t), &Cpus().all);
}

// ---------------------------------------------------------------------------
// Daemon

util::StatusOr<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& log_path) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return util::IoError(Errno("pipe"));
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(fds[0]);
    close(fds[1]);
    return util::IoError(Errno("open " + log_path));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  bool want_introspect = false;
  for (const std::string& flag : flags) {
    argv.push_back(const_cast<char*>(flag.c_str()));
    if (flag.rfind("--introspect_port=", 0) == 0) want_introspect = true;
  }
  argv.push_back(nullptr);
  const CpuSets& cpus = Cpus();

  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    close(log_fd);
    return util::IoError(Errno("fork"));
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    if (cpus.split) {
      (void)sched_setaffinity(0, sizeof(cpus.daemon), &cpus.daemon);
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  close(log_fd);
  auto daemon = std::make_unique<Daemon>(pid, fds[0]);
  SPRINGDTW_RETURN_IF_ERROR(daemon->AwaitPorts(want_introspect, 60.0));
  return daemon;
}

Daemon::~Daemon() {
  Kill();
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

util::Status Daemon::AwaitPorts(bool want_introspect, double timeout_s) {
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(timeout_s * 1e9);
  std::string line;
  while (port_ < 0 || (want_introspect && introspect_port_ < 0)) {
    const uint64_t now = NowNanos();
    if (now >= deadline) {
      return util::IoError("daemon did not report its ports in time");
    }
    pollfd entry{stdout_fd_, POLLIN, 0};
    const int ready =
        poll(&entry, 1, static_cast<int>((deadline - now) / 1000000 + 1));
    if (ready < 0 && errno != EINTR) return util::IoError(Errno("poll"));
    if (ready <= 0) continue;
    char ch = 0;
    const ssize_t got = read(stdout_fd_, &ch, 1);
    if (got <= 0) return util::IoError("daemon exited before serving");
    if (ch != '\n') {
      line.push_back(ch);
      continue;
    }
    int parsed = -1;
    if (std::sscanf(line.c_str(), "SERVE_PORT=%d", &parsed) == 1) {
      port_ = parsed;
    } else if (std::sscanf(line.c_str(), "INTROSPECT_PORT=%d", &parsed) ==
               1) {
      introspect_port_ = parsed;
    }
    line.clear();
  }
  return util::Status::Ok();
}

util::StatusOr<double> Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return util::NotFoundError("no VmHWM for daemon pid");
}

util::Status Daemon::Reap(int signal_number) {
  if (pid_ <= 0) return util::FailedPreconditionError("daemon not running");
  kill(pid_, signal_number);
  int status = 0;
  const uint64_t deadline = NowNanos() + uint64_t{30} * 1000000000;
  while (true) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return util::IoError(Errno("waitpid"));
    }
    if (NowNanos() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return util::IoError("daemon ignored the signal for 30 s");
    }
    usleep(1000);
  }
  pid_ = -1;
  if (signal_number == SIGKILL) return util::Status::Ok();
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    return util::Status::Ok();
  }
  return util::InternalError(
      WIFEXITED(status)
          ? "daemon exited with code " + std::to_string(WEXITSTATUS(status))
          : "daemon died by signal " + std::to_string(WTERMSIG(status)));
}

util::Status Daemon::Terminate() { return Reap(SIGTERM); }

void Daemon::Kill() {
  if (pid_ > 0) (void)Reap(SIGKILL);
}

// ---------------------------------------------------------------------------
// Conn

util::StatusOr<std::unique_ptr<Conn>> Conn::Open(int port, MatchFn on_match) {
  auto fd = ConnectLoopback(port);
  if (!fd.ok()) return fd.status();
  const int one = 1;
  (void)setsockopt(*fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (fcntl(*fd, F_SETFL, fcntl(*fd, F_GETFL) | O_NONBLOCK) != 0) {
    close(*fd);
    return util::IoError(Errno("fcntl"));
  }
  auto conn = std::make_unique<Conn>(*fd, std::move(on_match));
  net::HelloPayload hello;
  hello.peer_name = "perfbench";
  net::AppendPayloadFrame(FrameType::kHello, hello, &conn->out_);
  net::Frame frame;
  SPRINGDTW_RETURN_IF_ERROR(conn->AwaitResponse(&frame));
  if (frame.type != FrameType::kHelloAck) {
    return util::InternalError("expected HELLO_ACK");
  }
  net::HelloAckPayload ack;
  SPRINGDTW_RETURN_IF_ERROR(net::DecodePayload(frame.payload, &ack));
  if (ack.version != net::kProtocolVersion) {
    return util::FailedPreconditionError("daemon speaks protocol v" +
                                         std::to_string(ack.version));
  }
  return conn;
}

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

util::Status Conn::WriteSome() {
  while (out_offset_ < out_.size()) {
    const ssize_t wrote = send(fd_, out_.data() + out_offset_,
                               out_.size() - out_offset_, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return util::IoError(Errno("send"));
    }
    out_offset_ += static_cast<size_t>(wrote);
    bytes_written_ += static_cast<uint64_t>(wrote);
  }
  if (out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
  } else if (out_offset_ >= (size_t{1} << 20)) {
    // Pipelined ingest never empties the buffer; drop the sent prefix.
    out_.erase(out_.begin(),
               out_.begin() + static_cast<std::ptrdiff_t>(out_offset_));
    out_offset_ = 0;
  }
  return util::Status::Ok();
}

util::Status Conn::ReadSome() {
  while (true) {
    const size_t old_size = in_.size();
    in_.resize(old_size + kReadChunk);
    const ssize_t got = recv(fd_, in_.data() + old_size, kReadChunk, 0);
    in_.resize(old_size + static_cast<size_t>(got > 0 ? got : 0));
    if (got == 0) return util::IoError("daemon closed the connection");
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return util::IoError(Errno("recv"));
    }
  }
  size_t offset = 0;
  while (offset < in_.size()) {
    net::Frame frame;
    size_t consumed = 0;
    SPRINGDTW_RETURN_IF_ERROR(net::CutFrame(
        std::span<const uint8_t>(in_).subspan(offset),
        net::kDefaultMaxFrameBytes, &frame, &consumed));
    if (consumed == 0) break;
    offset += consumed;
    if (frame.type == FrameType::kMatchEvent) {
      net::MatchEventPayload event;
      SPRINGDTW_RETURN_IF_ERROR(net::DecodePayload(frame.payload, &event));
      on_match_(event);
      continue;
    }
    if (frame.type == FrameType::kDrainAck && !async_drains_.empty()) {
      // Acks arrive in request order, and queued DRAINs always precede a
      // blocking request, so the oldest queued one is answered first.
      net::DrainAckPayload ack;
      SPRINGDTW_RETURN_IF_ERROR(net::DecodePayload(frame.payload, &ack));
      if (ack.ticks_applied != async_drains_.front()) ++drain_mismatches_;
      async_drains_.pop_front();
      continue;
    }
    if (frame.type == FrameType::kError) {
      net::ErrorPayload error;
      SPRINGDTW_RETURN_IF_ERROR(net::DecodePayload(frame.payload, &error));
      if (error.request_id == 0) return error.ToStatus();  // Session-fatal.
    }
    if (response_.has_value()) {
      return util::InternalError("unsolicited response frame");
    }
    response_ = std::move(frame);
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(offset));
  return util::Status::Ok();
}

util::Status Conn::Pump(int timeout_ms) {
  SPRINGDTW_RETURN_IF_ERROR(WriteSome());
  pollfd entry{fd_, POLLIN, 0};
  if (pending_bytes() > 0) entry.events |= POLLOUT;
  // With a CPU of its own the generator spins instead of sleeping, so its
  // own wake-up latency stays out of the round trips it times.
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(timeout_ms) * 1000000;
  int ready = 0;
  do {
    ready = poll(&entry, 1, Cpus().split ? 0 : timeout_ms);
  } while (ready == 0 && Cpus().split && NowNanos() < deadline);
  if (ready < 0 && errno != EINTR) return util::IoError(Errno("poll"));
  if (ready <= 0) return util::Status::Ok();
  if ((entry.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
    SPRINGDTW_RETURN_IF_ERROR(ReadSome());
  }
  if ((entry.revents & POLLOUT) != 0) SPRINGDTW_RETURN_IF_ERROR(WriteSome());
  return util::Status::Ok();
}

util::Status Conn::AwaitResponse(net::Frame* frame) {
  while (!response_.has_value()) SPRINGDTW_RETURN_IF_ERROR(Pump(1000));
  *frame = std::move(*response_);
  response_.reset();
  return util::Status::Ok();
}

template <typename Request, typename Response>
util::Status Conn::Call(FrameType request_type, Request request,
                        FrameType response_type, Response* response) {
  request.request_id = next_request_id_++;
  net::AppendPayloadFrame(request_type, request, &out_);
  net::Frame frame;
  SPRINGDTW_RETURN_IF_ERROR(AwaitResponse(&frame));
  if (frame.type == FrameType::kError) {
    net::ErrorPayload error;
    SPRINGDTW_RETURN_IF_ERROR(net::DecodePayload(frame.payload, &error));
    return error.ToStatus();
  }
  if (frame.type != response_type) {
    return util::InternalError(
        "expected " + std::string(net::FrameTypeName(response_type)) +
        ", got " + std::string(net::FrameTypeName(frame.type)));
  }
  SPRINGDTW_RETURN_IF_ERROR(net::DecodePayload(frame.payload, response));
  if (response->request_id != request.request_id) {
    return util::InternalError("response for another request");
  }
  return util::Status::Ok();
}

util::StatusOr<int64_t> Conn::OpenStream(const std::string& name,
                                         int64_t* ticks) {
  net::OpenStreamPayload request;
  request.name = name;
  net::StreamOpenedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kOpenStream, request,
                                 FrameType::kStreamOpened, &response));
  *ticks = response.ticks;
  return response.stream_id;
}

util::StatusOr<int64_t> Conn::AddQuery(int64_t stream_id,
                                       const std::string& name,
                                       const std::vector<double>& values,
                                       double epsilon) {
  net::AddQueryPayload request;
  request.stream_id = stream_id;
  request.name = name;
  request.values = values;
  request.epsilon = epsilon;
  net::QueryAddedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kAddQuery, std::move(request),
                                 FrameType::kQueryAdded, &response));
  return response.query_id;
}

util::StatusOr<int64_t> Conn::RemoveQuery(int64_t query_id) {
  net::RemoveQueryPayload request;
  request.query_id = query_id;
  net::QueryRemovedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kRemoveQuery, request,
                                 FrameType::kQueryRemoved, &response));
  return response.flushed_matches;
}

util::StatusOr<std::vector<net::QueryListPayload::Entry>>
Conn::ListQueries() {
  net::QueryListPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kListQueries,
                                 net::ListQueriesPayload{},
                                 FrameType::kQueryList, &response));
  return std::move(response.entries);
}

util::Status Conn::Subscribe() {
  net::SubscribedPayload response;
  return Call(FrameType::kSubscribeMatches, net::SubscribeMatchesPayload{},
              FrameType::kSubscribed, &response);
}

util::StatusOr<uint64_t> Conn::Checkpoint() {
  net::CheckpointedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kCheckpoint,
                                 net::CheckpointPayload{},
                                 FrameType::kCheckpointed, &response));
  return response.state_bytes;
}

util::StatusOr<uint64_t> Conn::Drain() {
  net::DrainAckPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kDrain, net::DrainPayload{},
                                 FrameType::kDrainAck, &response));
  return response.ticks_applied;
}

void Conn::QueueBatch(int64_t stream_id, std::span<const double> values) {
  batch_.stream_id = stream_id;
  batch_.values.assign(values.begin(), values.end());
  batch_.send_nanos = NowNanos();
  net::AppendPayloadFrame(FrameType::kTickBatch, batch_, &out_);
}

void Conn::QueueDrain(uint64_t expected_ticks) {
  net::DrainPayload request;
  request.request_id = next_request_id_++;
  net::AppendPayloadFrame(FrameType::kDrain, request, &out_);
  async_drains_.push_back(expected_ticks);
}

// ---------------------------------------------------------------------------
// HTTP

util::StatusOr<std::string> HttpGet(int port, const std::string& path) {
  auto fd = ConnectLoopback(port);
  if (!fd.ok()) return fd.status();
  timeval timeout{10, 0};
  (void)setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t wrote = send(*fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) {
      close(*fd);
      return util::IoError(Errno("http send"));
    }
    sent += static_cast<size_t>(wrote);
  }
  std::string response;
  char chunk[16384];
  while (true) {
    const ssize_t got = recv(*fd, chunk, sizeof(chunk), 0);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      close(*fd);
      return util::IoError(Errno("http recv"));
    }
    response.append(chunk, static_cast<size_t>(got));
  }
  close(*fd);
  const size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 || body == std::string::npos ||
      response.find(" 200 ") > body) {
    return util::IoError("bad HTTP response for " + path);
  }
  return response.substr(body + 4);
}

}  // namespace perfbench
}  // namespace springdtw
