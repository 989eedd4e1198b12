#include "session.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <thread>
#include <utility>

namespace springdtw {
namespace perfbench {
namespace {

/// Ticks queued ahead of the socket during pipelined ingest.
constexpr size_t kHighWaterBytes = size_t{256} << 10;
/// Unanswered credit DRAINs allowed during pipelined ingest.
constexpr size_t kCreditsInFlight = 2;
constexpr uint64_t kScrapeEveryNanos = 1'000'000'000;

double MillisSince(uint64_t start) {
  return static_cast<double>(NowNanos() - start) / 1e6;
}

/// Parses the index out of "s12" / "q3"; -1 when malformed.
int64_t NameIndex(const std::string& name, char prefix) {
  if (name.size() < 2 || name[0] != prefix) return -1;
  int64_t index = -1;
  const auto [end, error] =
      std::from_chars(name.data() + 1, name.data() + name.size(), index);
  if (error != std::errc() || end != name.data() + name.size()) return -1;
  return index;
}

int SessionCounter() {
  static int counter = 0;
  return counter++;
}

}  // namespace

void Tally::Fail(const std::string& what, int64_t count) {
  failed += count;
  std::fprintf(stderr, "perfbench: FAILURE: %s\n", what.c_str());
}

Session::Session(const Config& config, bool telemetry, Tally* tally)
    : config_(config),
      spec_(*config.spec),
      telemetry_(telemetry),
      tally_(tally) {
  for (int64_t s = 0; s < spec_.streams; ++s) {
    data_.emplace_back(spec_, config.seed, s);
  }
  const size_t streams = static_cast<size_t>(spec_.streams);
  delivered_.base.assign(streams, 0);
  delivered_.end.assign(streams, 0);
  delivered_.matches.assign(
      streams, std::vector<std::vector<MatchRec>>(
                   static_cast<size_t>(spec_.queries_per_stream)));
  values_.resize(
      static_cast<size_t>(std::max(spec_.batch_ticks, spec_.round_ticks)));
}

std::vector<std::string> DaemonFlags(const WorkloadSpec& spec, bool telemetry,
                                     const std::string& wal_dir) {
  std::vector<std::string> flags = {"--port=0"};
  flags.insert(flags.end(), spec.flags.begin(), spec.flags.end());
  if (telemetry) {
    flags.insert(flags.end(), spec.telemetry_flags.begin(),
                 spec.telemetry_flags.end());
  }
  if (!wal_dir.empty()) flags.push_back("--wal_dir=" + wal_dir);
  return flags;
}

util::Status Session::Check(util::Status status, const std::string& what) {
  ++tally_->attempted;
  if (!status.ok()) {
    if (status.message().find("closed the connection") != std::string::npos) {
      ++tally_->slow_disconnects;
    }
    tally_->Fail(what + ": " + status.ToString());
  }
  return status;
}

util::Status Session::Start(const std::string& wal_dir, bool restart) {
  PinGenerator();
  const uint64_t start = NowNanos();
  auto daemon = Daemon::Spawn(
      config_.serve_binary, DaemonFlags(spec_, telemetry_, wal_dir),
      config_.work_dir + "/daemon-" + std::to_string(SessionCounter()) +
          ".log");
  SPRINGDTW_RETURN_IF_ERROR(Check(daemon.status(), "spawn daemon"));
  daemon_ = std::move(*daemon);
  auto conn = Conn::Open(daemon_->port(),
                         [this](const net::MatchEventPayload& event) {
                           OnMatch(event);
                         });
  SPRINGDTW_RETURN_IF_ERROR(Check(conn.status(), "connect"));
  conn_ = std::move(*conn);

  const int64_t restored_ticks =
      restart ? spec_.prefix_ticks + spec_.tail_ticks : 0;
  for (int64_t s = 0; s < spec_.streams; ++s) {
    int64_t ticks = -1;
    auto id = conn_->OpenStream(StreamName(s), &ticks);
    SPRINGDTW_RETURN_IF_ERROR(Check(id.status(), "OPEN_STREAM"));
    stream_ids_.push_back(*id);
    if (ticks != restored_ticks) {
      tally_->Fail("stream " + StreamName(s) + " starts at tick " +
                   std::to_string(ticks) + ", expected " +
                   std::to_string(restored_ticks));
      return util::InternalError("unexpected stream position");
    }
    delivered_.base[static_cast<size_t>(s)] = ticks;
    data_[static_cast<size_t>(s)].Skip(ticks);
  }

  const double epsilon = Epsilon(spec_);
  if (restart) {
    auto entries = conn_->ListQueries();
    SPRINGDTW_RETURN_IF_ERROR(Check(entries.status(), "LIST_QUERIES"));
    for (const auto& entry : *entries) {
      if (entry.name == kChurnQueryName) churn_query_id_ = entry.query_id;
    }
    const size_t expected =
        static_cast<size_t>(spec_.streams * spec_.queries_per_stream + 1);
    if (entries->size() != expected || churn_query_id_ < 0) {
      tally_->Fail("restored daemon lists " +
                   std::to_string(entries->size()) + " queries, expected " +
                   std::to_string(expected));
      return util::InternalError("restored topology differs");
    }
  } else {
    for (int64_t s = 0; s < spec_.streams; ++s) {
      for (int64_t q = 0; q < spec_.queries_per_stream; ++q) {
        const uint64_t call = NowNanos();
        auto id = conn_->AddQuery(stream_ids_[static_cast<size_t>(s)],
                                  QueryName(q),
                                  QueryValues(spec_, config_.seed, s, q),
                                  epsilon);
        SPRINGDTW_RETURN_IF_ERROR(Check(id.status(), "ADD_QUERY"));
        setup_admin_ms_.push_back(MillisSince(call));
      }
    }
    if (spec_.churn) {
      auto id = conn_->AddQuery(stream_ids_[0], kChurnQueryName,
                                ChurnQueryValues(spec_), epsilon);
      SPRINGDTW_RETURN_IF_ERROR(Check(id.status(), "ADD_QUERY churn"));
      churn_query_id_ = *id;
    }
  }
  SPRINGDTW_RETURN_IF_ERROR(Check(conn_->Subscribe(), "SUBSCRIBE_MATCHES"));
  setup_s_ = static_cast<double>(NowNanos() - start) / 1e9;
  next_scrape_nanos_ = NowNanos() + kScrapeEveryNanos;
  return util::Status::Ok();
}

int64_t Session::Feed(int64_t stream, int64_t ticks) {
  std::span<double> values(values_.data(), static_cast<size_t>(ticks));
  data_[static_cast<size_t>(stream)].Fill(values);
  conn_->QueueBatch(stream_ids_[static_cast<size_t>(stream)], values);
  routed_ += ticks;
  ++tally_->attempted;
  return ticks;
}

util::Status Session::DrainChecked() {
  auto applied = conn_->Drain();
  SPRINGDTW_RETURN_IF_ERROR(Check(applied.status(), "DRAIN"));
  if (*applied != static_cast<uint64_t>(routed_)) {
    tally_->Fail("DRAIN_ACK reports " + std::to_string(*applied) +
                 " ticks applied, " + std::to_string(routed_) + " were sent");
  }
  return util::Status::Ok();
}

util::Status Session::MaybeScrape(uint64_t now) {
  if (!spec_.churn || daemon_->introspect_port() < 0 ||
      now < next_scrape_nanos_) {
    return util::Status::Ok();
  }
  next_scrape_nanos_ = now + kScrapeEveryNanos;
  return Scrape().status();
}

util::StatusOr<util::JsonValue> Session::Scrape() {
  const uint64_t start = NowNanos();
  auto body = HttpGet(daemon_->introspect_port(), "/metrics.json");
  SPRINGDTW_RETURN_IF_ERROR(Check(body.status(), "GET /metrics.json"));
  scrape_ms_.push_back(MillisSince(start));
  auto doc = util::ParseJson(*body);
  SPRINGDTW_RETURN_IF_ERROR(Check(doc.status(), "parse /metrics.json"));
  return doc;
}

util::Status Session::Ingest(int64_t ticks, int pieces, double max_seconds,
                             IngestStats* stats) {
  const int64_t mismatches_before = conn_->drain_mismatches();
  const int64_t batches_per_piece =
      std::max<int64_t>(1, ticks / pieces / spec_.batch_ticks);
  for (int piece = 0; piece < pieces; ++piece) {
    const uint64_t bytes_before = conn_->bytes_written();
    const uint64_t start = NowNanos();
    const uint64_t deadline =
        start + static_cast<uint64_t>(max_seconds / pieces * 1e9);
    int64_t batches = 0;
    int64_t since_credit = 0;
    while (batches < batches_per_piece) {
      if (NowNanos() > deadline) {
        stats->capped = true;
        break;
      }
      while (batches < batches_per_piece &&
             conn_->pending_bytes() < kHighWaterBytes &&
             conn_->drains_in_flight() < kCreditsInFlight) {
        since_credit += Feed(next_stream_, spec_.batch_ticks);
        ++batches;
        next_stream_ = (next_stream_ + 1) % spec_.streams;
        if (since_credit >= spec_.credit_ticks) {
          conn_->QueueDrain(static_cast<uint64_t>(routed_));
          since_credit = 0;
        }
      }
      SPRINGDTW_RETURN_IF_ERROR(Check(conn_->Pump(5), "ingest"));
      SPRINGDTW_RETURN_IF_ERROR(MaybeScrape(NowNanos()));
    }
    const uint64_t queued = NowNanos();
    SPRINGDTW_RETURN_IF_ERROR(DrainChecked());
    const uint64_t done = NowNanos();
    const double elapsed_s = static_cast<double>(done - start) / 1e9;
    const int64_t fed = batches * spec_.batch_ticks;
    stats->rates.push_back(static_cast<double>(fed) / elapsed_s);
    stats->ticks += fed;
    stats->seconds += elapsed_s;
    stats->bytes += conn_->bytes_written() - bytes_before;
    stats->drain_ms.push_back(static_cast<double>(done - queued) / 1e6);
  }
  if (conn_->drain_mismatches() > mismatches_before) {
    tally_->Fail("a queued DRAIN_ACK reported the wrong tick count",
                 conn_->drain_mismatches() - mismatches_before);
  }
  return util::Status::Ok();
}

util::Status Session::Rounds(int64_t count, double max_seconds,
                             std::vector<double>* rtt_ms) {
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(max_seconds * 1e9);
  for (int64_t round = 0; round < count && NowNanos() < deadline; ++round) {
    for (int64_t s = 0; s < spec_.streams; ++s) Feed(s, spec_.round_ticks);
    const uint64_t start = NowNanos();
    SPRINGDTW_RETURN_IF_ERROR(DrainChecked());
    rtt_ms->push_back(MillisSince(start));
    ++rounds_;
    if (spec_.churn && rounds_ % spec_.churn_every_rounds == 0) {
      SPRINGDTW_RETURN_IF_ERROR(Churn());
    }
    SPRINGDTW_RETURN_IF_ERROR(MaybeScrape(NowNanos()));
  }
  return util::Status::Ok();
}

util::Status Session::Checkpoint() {
  const uint64_t start = NowNanos();
  SPRINGDTW_RETURN_IF_ERROR(
      Check(conn_->Checkpoint().status(), "CHECKPOINT"));
  admin_ms_.push_back(MillisSince(start));
  return util::Status::Ok();
}

util::Status Session::Churn() {
  SPRINGDTW_RETURN_IF_ERROR(Checkpoint());
  uint64_t start = NowNanos();
  SPRINGDTW_RETURN_IF_ERROR(Check(
      conn_->RemoveQuery(churn_query_id_).status(), "REMOVE_QUERY churn"));
  admin_ms_.push_back(MillisSince(start));
  start = NowNanos();
  auto id = conn_->AddQuery(stream_ids_[0], kChurnQueryName,
                            ChurnQueryValues(spec_), Epsilon(spec_));
  SPRINGDTW_RETURN_IF_ERROR(Check(id.status(), "ADD_QUERY churn"));
  admin_ms_.push_back(MillisSince(start));
  churn_query_id_ = *id;
  return util::Status::Ok();
}

util::Status Session::FeedAll(int64_t per_stream) {
  for (int64_t done = 0; done < per_stream; done += spec_.batch_ticks) {
    for (int64_t s = 0; s < spec_.streams; ++s) {
      Feed(s, std::min(spec_.batch_ticks, per_stream - done));
      while (conn_->pending_bytes() >= kHighWaterBytes) {
        SPRINGDTW_RETURN_IF_ERROR(Check(conn_->Pump(5), "feed"));
      }
    }
  }
  return DrainChecked();
}

void Session::Finish() {
  for (size_t s = 0; s < data_.size(); ++s) {
    delivered_.end[s] = data_[s].position();
  }
  conn_.reset();
}

util::Status Session::Stop(double* peak_rss_mb) {
  Finish();
  auto rss = daemon_->PeakRssMb();
  SPRINGDTW_RETURN_IF_ERROR(Check(rss.status(), "read daemon VmHWM"));
  *peak_rss_mb = *rss;
  return Check(daemon_->Terminate(), "daemon exit on SIGTERM");
}

void Session::Crash() {
  Finish();
  daemon_->Kill();
}

void Session::OnMatch(const net::MatchEventPayload& event) {
  ++delivered_.events;
  if (event.query_name == kChurnQueryName) {
    ++delivered_.churn_matches;
    return;
  }
  const int64_t s = NameIndex(event.stream_name, 's');
  const int64_t q = NameIndex(event.query_name, 'q');
  if (s < 0 || s >= spec_.streams || q < 0 ||
      q >= spec_.queries_per_stream) {
    tally_->Fail("match for unknown stream/query " + event.stream_name +
                 "/" + event.query_name);
    return;
  }
  const MatchRec match{event.match.start, event.match.end,
                       event.match.report_time, event.match.distance};
  if (match.report_time < delivered_.base[static_cast<size_t>(s)]) {
    delivered_.redelivered.push_back(Delivered::Redelivery{s, q, match});
    return;
  }
  delivered_.matches[static_cast<size_t>(s)][static_cast<size_t>(q)]
      .push_back(match);
}

int64_t VerifyAgainstReference(const Config& config,
                               const std::vector<Delivered>& sessions,
                               Tally* tally) {
  const WorkloadSpec& spec = *config.spec;
  const size_t streams = static_cast<size_t>(spec.streams);
  const size_t queries = static_cast<size_t>(spec.queries_per_stream);
  std::vector<int64_t> ticks(streams, 0);
  for (const Delivered& session : sessions) {
    for (size_t s = 0; s < streams; ++s) {
      ticks[s] = std::max(ticks[s], session.end[s]);
    }
  }

  // The reference is pure CPU and runs after every daemon has exited, so
  // it may use all cores without disturbing a measurement.
  Unpin();
  std::vector<std::vector<MatchRec>> reference(streams * queries);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t task = next++; task < reference.size(); task = next++) {
        const int64_t s = static_cast<int64_t>(task / queries);
        const int64_t q = static_cast<int64_t>(task % queries);
        reference[task] = ReferenceMatches(spec, config.seed, s, q,
                                           ticks[static_cast<size_t>(s)]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  int64_t compared = 0;
  for (const Delivered& session : sessions) {
    for (size_t s = 0; s < streams; ++s) {
      for (size_t q = 0; q < queries; ++q) {
        const std::vector<MatchRec>& all = reference[s * queries + q];
        std::vector<MatchRec> expected;
        for (const MatchRec& match : all) {
          if (match.report_time >= session.base[s] &&
              match.report_time < session.end[s]) {
            expected.push_back(match);
          }
        }
        std::vector<MatchRec> got = session.matches[s][q];
        std::sort(got.begin(), got.end());
        std::vector<MatchRec> missing;
        std::vector<MatchRec> extra;
        std::set_difference(expected.begin(), expected.end(), got.begin(),
                            got.end(), std::back_inserter(missing));
        std::set_difference(got.begin(), got.end(), expected.begin(),
                            expected.end(), std::back_inserter(extra));
        tally->attempted += static_cast<int64_t>(expected.size());
        compared += static_cast<int64_t>(std::max(expected.size(), got.size()));
        if (!missing.empty() || !extra.empty()) {
          tally->Fail(StreamName(static_cast<int64_t>(s)) + "/" +
                          QueryName(static_cast<int64_t>(q)) + ": " +
                          std::to_string(missing.size()) + " missing, " +
                          std::to_string(extra.size()) +
                          " extra or differing matches",
                      static_cast<int64_t>(missing.size() + extra.size()));
        }
      }
    }
    for (const Delivered::Redelivery& again : session.redelivered) {
      const std::vector<MatchRec>& all =
          reference[static_cast<size_t>(again.stream) * queries +
                    static_cast<size_t>(again.query)];
      ++tally->attempted;
      ++compared;
      if (!std::binary_search(all.begin(), all.end(), again.match)) {
        tally->Fail("re-delivered match on " + StreamName(again.stream) +
                    "/" + QueryName(again.query) +
                    " differs from the reference");
      }
    }
  }
  return compared;
}

}  // namespace perfbench
}  // namespace springdtw
