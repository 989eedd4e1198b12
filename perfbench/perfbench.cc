// perfbench: end-to-end and per-layer benchmark of springdtw_serve.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --serve=PATH/springdtw_serve --work_dir=DIR
//
// The daemon runs as a child process; this process is the single-threaded
// load generator, feeding it over loopback on one subscribed connection
// (closed loop: pipelined ingest is paced by credit DRAINs, round trips
// wait for DRAIN_ACK). Every delivered MATCH_EVENT is compared with an
// in-process core::SpringMatcher reference over the same generated values.
//
// --trace=0 prints the end-to-end metrics; --trace=1 runs the in-process
// layer waterfall (layers.h) and a telemetry off/on/on/off daemon pair,
// and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit code 0 only
// when every operation succeeded and every match equals the reference.
// perfbench/README.md explains the workloads and metrics.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "layers.h"
#include "session.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/stats.h"
#include "workload.h"

namespace springdtw {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Each window is cut into this many pieces, each ingest piece closed by a
/// DRAIN; provenance shows the per-piece values (the daemon slows down
/// within a window as its history grows, README).
constexpr int kPieces = 8;
/// A window's fixed work stops early once it has run this many times its
/// nominal length. With introspection on, every drain's metrics publish
/// costs more the more history the daemon holds (README), so round trips
/// slow down as they accumulate and fixed work alone could run for minutes.
constexpr double kCapFactor = 2.0;
/// Warm-up before the windows, in rounds' worth of ticks per stream.
constexpr int64_t kWarmRounds = 8;
/// Seed reserved for confirming claims; never used while tuning.
constexpr uint64_t kHeldOutSeed = 20070415;

/// Cumulative CPU time of the host's CPUs from /proc/stat, in clock ticks:
/// steal (time a vCPU waited for the hypervisor) and the total. A busy
/// host slows every metric; provenance records the steal share of the run.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  uint64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

/// Work that fills a window of `seconds` at the workload's nominal rates.
int64_t TicksFor(const WorkloadSpec& spec, double seconds) {
  return static_cast<int64_t>(spec.nominal_ticks_per_s * seconds);
}
int64_t RoundsFor(const WorkloadSpec& spec, double seconds) {
  return std::max<int64_t>(
      20, static_cast<int64_t>(spec.nominal_rounds_per_s * seconds));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string Quoted(std::string_view text) {
  return std::string("\"").append(text).append("\"");
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += Quoted(items[i]);
  }
  return out + "]";
}

double Quantile(const std::vector<double>& samples, double q) {
  util::QuantileSketch sketch;
  for (double x : samples) sketch.Add(x);
  return sketch.Quantile(q);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

const util::JsonValue* Family(const util::JsonValue& doc,
                              std::string_view name) {
  const util::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr) return nullptr;
  for (const util::JsonValue& family : metrics->array()) {
    if (family.StringOr("name", "") == name) return &family;
  }
  return nullptr;
}

/// Sum of a counter family over all its series (e.g. every worker ring).
double CounterTotal(const util::JsonValue& doc, std::string_view name) {
  const util::JsonValue* family = Family(doc, name);
  double total = 0.0;
  if (family == nullptr || family->Find("series") == nullptr) return total;
  for (const util::JsonValue& series : family->Find("series")->array()) {
    total += series.NumberOr("value", 0.0);
  }
  return total;
}

/// The `stage` series of spring_e2e_latency_nanos; nullptr when absent.
const util::JsonValue* StageSeries(const util::JsonValue& doc,
                                   std::string_view stage) {
  const util::JsonValue* family = Family(doc, "spring_e2e_latency_nanos");
  if (family == nullptr || family->Find("series") == nullptr) return nullptr;
  for (const util::JsonValue& series : family->Find("series")->array()) {
    const util::JsonValue* labels = series.Find("labels");
    if (labels != nullptr && labels->StringOr("stage", "") == stage) {
      return &series;
    }
  }
  return nullptr;
}

constexpr const char* kStages[] = {
    "client_to_server", "ingest_to_enqueue", "ring_residency", "worker_pass",
    "delivery_wait",    "subscriber_write",  "total"};
constexpr const char* kRingCounters[][2] = {
    {"spring_ring_blocked_pushes_total", "sharded.ring_blocked_per_kticks"},
    {"spring_ring_producer_parks_total", "sharded.producer_parks_per_kticks"},
    {"spring_ring_consumer_parks_total", "sharded.consumer_parks_per_kticks"}};

/// A run's shared state: configuration, failure tally, every session's
/// deliveries (verified at the end), and the metrics to print.
struct Run {
  Config config;
  Tally tally;
  std::vector<Delivered> sessions;
  std::vector<Metric> metrics;
  std::vector<std::string> provenance;  // "key": value pairs.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& key, const std::string& json_value) {
    provenance.push_back(Quoted(key) + ":" + json_value);
  }
  const WorkloadSpec& spec() const { return *config.spec; }
};

/// daemon_churn: the state every restart recovers from. A daemon gets the
/// topology and a prefix, checkpoints, ingests a fixed tail into its WAL,
/// and is SIGKILLed.
util::StatusOr<std::string> Prepare(Run* run) {
  const WorkloadSpec& spec = run->spec();
  const std::string dir = run->config.work_dir + "/prepared";
  Session prep(run->config, /*telemetry=*/false, &run->tally);
  SPRINGDTW_RETURN_IF_ERROR(prep.Start(dir, /*restart=*/false));
  SPRINGDTW_RETURN_IF_ERROR(prep.FeedAll(spec.prefix_ticks));
  SPRINGDTW_RETURN_IF_ERROR(prep.Checkpoint());
  SPRINGDTW_RETURN_IF_ERROR(prep.FeedAll(spec.tail_ticks));
  // One more barrier: the loop iteration after the tail's matches are
  // flushed logs their delivery watermark before the crash.
  SPRINGDTW_RETURN_IF_ERROR(prep.FeedAll(0));
  prep.Crash();
  run->sessions.push_back(prep.TakeDelivered());
  return dir;
}

/// A fresh copy of the prepared WAL directory for restart `index`.
std::string CopyPrepared(const Run& run, const std::string& prepared,
                         int index) {
  const std::string dir =
      run.config.work_dir + "/restart-" + std::to_string(index);
  fs::remove_all(dir);
  fs::copy(prepared, dir, fs::copy_options::recursive);
  return dir;
}

/// Starts a session: a fresh daemon, or a restart from the prepared state.
util::Status StartSession(Run* run, Session* session,
                          const std::string& prepared, int index) {
  if (run->spec().churn) {
    return session->Start(CopyPrepared(*run, prepared, index),
                          /*restart=*/true);
  }
  return session->Start("", /*restart=*/false);
}

util::Status StopSession(Run* run, Session* session, double* peak_rss_mb) {
  const util::Status stopped = session->Stop(peak_rss_mb);
  run->sessions.push_back(session->TakeDelivered());
  return stopped;
}

util::Status RunEndToEnd(Run* run) {
  const WorkloadSpec& spec = run->spec();
  const double seconds = run->config.seconds;
  std::string prepared;
  if (spec.churn) {
    auto dir = Prepare(run);
    if (!dir.ok()) return dir.status();
    prepared = *dir;
  }

  // Every setup starts a daemon; the last two serve the round-trip and the
  // ingest window. A fresh daemon per window matters: publishing the
  // daemon's metrics costs more the more history it holds (README), so
  // each window must start from the same state.
  const double window_s = seconds / 2.0;
  std::vector<double> setup_s;
  std::vector<double> rtt;
  std::vector<double> piece_p50;
  std::vector<double> piece_p90;
  IngestStats ingest;
  std::vector<double> admin_ms;
  std::vector<double> scrape_ms;
  double peak_rss_mb = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    Session session(run->config, spec.telemetry_in_e2e, &run->tally);
    SPRINGDTW_RETURN_IF_ERROR(StartSession(run, &session, prepared, i));
    setup_s.push_back(session.setup_s());
    if (i == kSetups - 2) {
      SPRINGDTW_RETURN_IF_ERROR(
          session.FeedAll(kWarmRounds * spec.round_ticks));
      for (int piece = 0; piece < kPieces; ++piece) {
        std::vector<double> piece_rtt;
        SPRINGDTW_RETURN_IF_ERROR(
            session.Rounds(RoundsFor(spec, window_s / kPieces),
                           kCapFactor * window_s / kPieces, &piece_rtt));
        piece_p50.push_back(Quantile(piece_rtt, 0.5));
        piece_p90.push_back(Quantile(piece_rtt, 0.9));
        rtt.insert(rtt.end(), piece_rtt.begin(), piece_rtt.end());
      }
    } else if (i == kSetups - 1) {
      SPRINGDTW_RETURN_IF_ERROR(
          session.FeedAll(kWarmRounds * spec.round_ticks));
      SPRINGDTW_RETURN_IF_ERROR(
          session.Ingest(TicksFor(spec, window_s), kPieces,
                         kCapFactor * window_s, &ingest));
    }
    admin_ms.insert(admin_ms.end(), session.admin_ms().begin(),
                    session.admin_ms().end());
    scrape_ms.insert(scrape_ms.end(), session.scrape_ms().begin(),
                     session.scrape_ms().end());
    double rss_mb = 0.0;
    SPRINGDTW_RETURN_IF_ERROR(StopSession(run, &session, &rss_mb));
    peak_rss_mb = std::max(peak_rss_mb, rss_mb);
  }
  const int64_t rounds = static_cast<int64_t>(rtt.size());

  const double ticks_per_s =
      static_cast<double>(ingest.ticks) / ingest.seconds;
  run->Add("ingest_ticks_per_s", ticks_per_s, "ticks/s");
  run->Add("report_rtt_p50_ms", Quantile(rtt, 0.5), "ms");
  run->Add("setup_s", Quantile(setup_s, 0.5), "s");
  run->Add("peak_rss_mb", peak_rss_mb, "MiB");

  run->Note("ingest", "{\"ticks\":" + std::to_string(ingest.ticks) +
                          ",\"seconds\":" + Number(ingest.seconds) +
                          ",\"bytes\":" + std::to_string(ingest.bytes) +
                          ",\"planned_ticks\":" +
                          std::to_string(TicksFor(spec, window_s)) +
                          ",\"capped\":" + (ingest.capped ? "true" : "false") +
                          ",\"piece_rates\":" + JsonNumbers(ingest.rates) +
                          ",\"max_final_drain_ms\":" +
                          Number(Quantile(ingest.drain_ms, 1.0)) + "}");
  run->Note("rounds", "{\"count\":" + std::to_string(rounds) +
                          ",\"planned\":" +
                          std::to_string(kPieces * RoundsFor(spec, window_s /
                                                                     kPieces)) +
                          ",\"ticks_per_round\":" +
                          std::to_string(spec.streams * spec.round_ticks) +
                          ",\"piece_p50_ms\":" + JsonNumbers(piece_p50) +
                          ",\"piece_p90_ms\":" + JsonNumbers(piece_p90) +
                          ",\"p90_ms\":" + Number(Quantile(rtt, 0.9)) +
                          ",\"p99_ms\":" + Number(Quantile(rtt, 0.99)) +
                          ",\"samples_above_p99\":" +
                          std::to_string(rounds / 100) + "}");
  run->Note("setups", "{\"count\":" + std::to_string(setup_s.size()) +
                          ",\"min_s\":" + Number(Quantile(setup_s, 0.0)) +
                          ",\"max_s\":" + Number(Quantile(setup_s, 1.0)) +
                          "}");
  if (spec.churn) {
    run->Note("admin_calls", "{\"count\":" + std::to_string(admin_ms.size()) +
                                 ",\"p50_ms\":" +
                                 Number(Quantile(admin_ms, 0.5)) + "}");
    run->Note("scrapes", "{\"count\":" + std::to_string(scrape_ms.size()) +
                             ",\"p50_ms\":" +
                             Number(Quantile(scrape_ms, 0.5)) + "}");
  }
  std::printf(
      "end-to-end %s: ingest %.0f ticks/s (%lld ticks in %.2f s) | round "
      "trip p50 %.3f ms p90 %.3f ms p99 %.3f ms over %lld rounds | "
      "setup %.4f s (median of %d) | daemon peak RSS %.1f MiB\n",
      spec.name.c_str(), ticks_per_s, static_cast<long long>(ingest.ticks),
      ingest.seconds, Quantile(rtt, 0.5), Quantile(rtt, 0.9),
      Quantile(rtt, 0.99), static_cast<long long>(rounds),
      Quantile(setup_s, 0.5), kSetups, peak_rss_mb);
  return util::Status::Ok();
}

/// One leg of the traced pair: a daemon with telemetry off or on.
struct Leg {
  bool telemetry = false;
  IngestStats ingest;
  std::vector<double> rtt;
  double stage_us[std::size(kStages)] = {};
  double ring_per_kticks[std::size(kRingCounters)] = {};
};

util::Status RunLeg(Run* run, const std::string& prepared, int index,
                    Leg* leg, std::vector<double>* admin_ms,
                    std::vector<double>* scrape_ms) {
  const WorkloadSpec& spec = run->spec();
  const double window_s = run->config.seconds * 3.0 / 32.0;
  Session session(run->config, leg->telemetry, &run->tally);
  SPRINGDTW_RETURN_IF_ERROR(StartSession(run, &session, prepared, index));
  SPRINGDTW_RETURN_IF_ERROR(session.FeedAll(kWarmRounds * spec.round_ticks));
  util::JsonValue before;
  if (leg->telemetry) {
    auto doc = session.Scrape();
    if (!doc.ok()) return doc.status();
    before = *std::move(doc);
  }
  const int64_t ticks_before = session.ticks_routed();
  SPRINGDTW_RETURN_IF_ERROR(
      session.Rounds(RoundsFor(spec, window_s), kCapFactor * window_s,
                     &leg->rtt));
  if (leg->telemetry) {
    // Each DRAIN republishes the router's stage and ring metrics, so this
    // scrape covers every round above.
    auto after = session.Scrape();
    if (!after.ok()) return after.status();
    const double kticks =
        static_cast<double>(session.ticks_routed() - ticks_before) / 1e3;
    for (size_t i = 0; i < std::size(kRingCounters); ++i) {
      leg->ring_per_kticks[i] =
          (CounterTotal(*after, kRingCounters[i][0]) -
           CounterTotal(before, kRingCounters[i][0])) /
          kticks;
    }
    for (size_t i = 0; i < std::size(kStages); ++i) {
      const util::JsonValue* series = StageSeries(*after, kStages[i]);
      if (series == nullptr || series->NumberOr("count", 0.0) <= 0.0) {
        run->tally.Fail(std::string("no spring_e2e_latency_nanos samples "
                                    "for stage ") +
                        kStages[i]);
        continue;
      }
      leg->stage_us[i] = series->NumberOr("p50", 0.0) / 1e3;
    }
  }
  SPRINGDTW_RETURN_IF_ERROR(
      session.Ingest(TicksFor(spec, window_s), 1, kCapFactor * window_s,
                     &leg->ingest));
  if (leg->telemetry) {
    for (int i = 0; i < 3; ++i) {
      SPRINGDTW_RETURN_IF_ERROR(session.Scrape().status());
    }
  }
  const std::vector<double>& admin =
      spec.churn ? session.admin_ms() : session.setup_admin_ms();
  admin_ms->insert(admin_ms->end(), admin.begin(), admin.end());
  scrape_ms->insert(scrape_ms->end(), session.scrape_ms().begin(),
                    session.scrape_ms().end());
  double peak_rss_mb = 0.0;
  return StopSession(run, &session, &peak_rss_mb);
}

util::Status RunTraced(Run* run) {
  const WorkloadSpec& spec = run->spec();
  std::string prepared;
  if (spec.churn) {
    auto dir = Prepare(run);
    if (!dir.ok()) return dir.status();
    prepared = *dir;
  }
  auto layers = RunLayers(spec, run->config.seed, run->config.seconds / 4.0,
                          run->config.work_dir, prepared);
  if (!layers.ok()) {
    run->tally.Fail("layer runs: " + layers.status().ToString());
    return layers.status();
  }

  // Telemetry off/on/on/off, so drift over the run cancels in the ratios.
  std::vector<Leg> legs(4);
  std::vector<double> admin_ms;
  std::vector<double> scrape_ms;
  for (size_t i = 0; i < legs.size(); ++i) {
    legs[i].telemetry = (i == 1 || i == 2);
    SPRINGDTW_RETURN_IF_ERROR(RunLeg(run, prepared, static_cast<int>(i),
                                     &legs[i], &admin_ms, &scrape_ms));
  }
  auto side = [&](bool on, auto value) {
    std::vector<double> values;
    for (const Leg& leg : legs) {
      if (leg.telemetry == on) values.push_back(value(leg));
    }
    return Mean(values);
  };
  auto ingest_rate = [](const Leg& leg) {
    return static_cast<double>(leg.ingest.ticks) / leg.ingest.seconds;
  };
  auto rtt_p50 = [](const Leg& leg) { return Quantile(leg.rtt, 0.5); };
  const double off_rate = side(false, ingest_rate);
  const double on_rate = side(true, ingest_rate);
  const double off_rtt_ms = side(false, rtt_p50);
  const double on_rtt_ms = side(true, rtt_p50);
  int64_t ingest_ticks = 0;
  uint64_t ingest_bytes = 0;
  for (const Leg& leg : legs) {
    ingest_ticks += leg.ingest.ticks;
    ingest_bytes += leg.ingest.bytes;
  }

  const LayerResults& l = *layers;
  const double cells = static_cast<double>(spec.cells_per_tick());
  const double wire_ns_per_tick = 1e9 / off_rate;
  run->Add("core.pool_ns_per_cell", l.pool_ns_per_cell, "ns/cell");
  run->Add("core.matcher_ns_per_cell", l.matcher_ns_per_cell, "ns/cell");
  run->Add("core.cells_per_tick", cells, "count");
  run->Add("engine.ns_per_tick", l.engine_ns_per_tick, "ns/tick");
  run->Add("engine.self_ns_per_tick",
           l.engine_ns_per_tick - l.matcher_ns_per_cell * cells, "ns/tick");
  run->Add("sharded.ns_per_tick", l.sharded_ns_per_tick, "ns/tick");
  run->Add("sharded.parallel_efficiency",
           l.engine_ns_per_tick /
               (static_cast<double>(spec.workers) * l.sharded_ns_per_tick),
           "ratio");
  run->Add("sharded.drain_us_p50", l.drain_us_p50, "us");
  for (size_t i = 0; i < std::size(kRingCounters); ++i) {
    run->Add(kRingCounters[i][1],
             side(true, [i](const Leg& leg) { return leg.ring_per_kticks[i]; }),
             "1/ktick");
  }
  run->Add("sharded.checkpoint_ms", l.checkpoint_ms, "ms");
  run->Add("sharded.checkpoint_bytes",
           static_cast<double>(l.checkpoint_bytes), "bytes");
  run->Add("net.self_ns_per_tick", wire_ns_per_tick - l.sharded_ns_per_tick,
           "ns/tick");
  run->Add("net.bytes_per_tick",
           static_cast<double>(ingest_bytes) /
               static_cast<double>(ingest_ticks),
           "bytes/tick");
  run->Add("net.round_self_ms_p50", off_rtt_ms - l.drain_us_p50 / 1e3, "ms");
  run->Add("net.admin_call_ms_p50", Quantile(admin_ms, 0.5), "ms");
  int64_t events = 0;
  for (const Delivered& session : run->sessions) events += session.events;
  run->Add("net.match_events", static_cast<double>(events), "count");
  run->Add("net.slow_disconnects",
           static_cast<double>(run->tally.slow_disconnects), "count");
  for (size_t i = 0; i < std::size(kStages); ++i) {
    run->Add(std::string("stage.") + kStages[i] + "_us_p50",
             side(true, [i](const Leg& leg) { return leg.stage_us[i]; }),
             "us");
  }
  run->Add("wal.append_ns_per_tick", l.wal_append_ns_per_tick, "ns/tick");
  run->Add("wal.bytes_per_tick", l.wal_bytes_per_tick, "bytes/tick");
  run->Add("wal.recover_s", l.wal_recover_s, "s");
  run->Add("wal.replayed_ticks", static_cast<double>(l.wal_replayed_ticks),
           "count");
  run->Add("obs.telemetry_rtt_ratio", on_rtt_ms / off_rtt_ms, "ratio");
  run->Add("obs.scrape_ms_p50", Quantile(scrape_ms, 0.5), "ms");
  run->Add("obs.tracing_overhead_frac", 1.0 - on_rate / off_rate, "fraction");

  size_t off_rounds = 0;
  size_t on_rounds = 0;
  for (const Leg& leg : legs) {
    (leg.telemetry ? on_rounds : off_rounds) += leg.rtt.size();
  }
  run->Note("traced_legs",
            "{\"order\":[\"off\",\"on\",\"on\",\"off\"],\"window_s\":" +
                Number(run->config.seconds * 3.0 / 32.0) +
                ",\"off_rounds\":" + std::to_string(off_rounds) +
                ",\"on_rounds\":" + std::to_string(on_rounds) +
                ",\"ingest_ticks\":" + std::to_string(ingest_ticks) +
                ",\"admin_calls\":" + std::to_string(admin_ms.size()) +
                ",\"scrapes\":" + std::to_string(scrape_ms.size()) +
                ",\"drain_rounds_in_process\":" +
                std::to_string(l.drain_rounds) + "}");

  // The waterfall: each layer's per-tick cost beside the one beneath it.
  const double matcher_ns = l.matcher_ns_per_cell * cells;
  std::printf("layer waterfall %s (seed %llu, %lld cells/tick, %lld "
              "workers):\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(run->config.seed),
              static_cast<long long>(spec.cells_per_tick()),
              static_cast<long long>(spec.workers));
  std::printf("  %-34s %12.1f ns/tick  (%.2f ns/cell)\n",
              "core SpringMatcher::Update", matcher_ns, l.matcher_ns_per_cell);
  std::printf("  %-34s %12.1f ns/tick  (%.2f ns/cell)\n",
              "core SpringBatchPool::PushBatch", l.pool_ns_per_cell * cells,
              l.pool_ns_per_cell);
  std::printf("  %-34s %12.1f ns/tick  self %+.1f over matcher\n",
              "engine MonitorEngine::PushBatch", l.engine_ns_per_tick,
              l.engine_ns_per_tick - matcher_ns);
  std::printf("  %-34s %12.1f ns/tick  wall, efficiency %.2f\n",
              "sharded PushBatch+Drain", l.sharded_ns_per_tick,
              l.engine_ns_per_tick /
                  (static_cast<double>(spec.workers) * l.sharded_ns_per_tick));
  std::printf("  %-34s %12.1f ns/tick  wall, net self %+.1f over sharded\n",
              "wire ingest (telemetry off)", wire_ns_per_tick,
              wire_ns_per_tick - l.sharded_ns_per_tick);
  std::printf("  %-34s %12.1f ns/tick  wall, tracing overhead %.1f%%\n",
              "wire ingest (telemetry on)", 1e9 / on_rate,
              100.0 * (1.0 - on_rate / off_rate));
  std::printf("  %-34s %12.3f ms       in-process drain p50 %.1f us\n",
              "round trip p50 (telemetry off)", off_rtt_ms, l.drain_us_p50);
  std::printf("  %-34s %12.3f ms       ratio on/off %.3f\n",
              "round trip p50 (telemetry on)", on_rtt_ms,
              on_rtt_ms / off_rtt_ms);
  std::printf("  %-34s %12.1f ns/tick  %.2f bytes/tick, recover %.4f s "
              "(%lld ticks)\n",
              "wal WalWriter::AppendTicks", l.wal_append_ns_per_tick,
              l.wal_bytes_per_tick, l.wal_recover_s,
              static_cast<long long>(l.wal_replayed_ticks));
  return util::Status::Ok();
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  Run run;
  run.config.spec = FindWorkload(workload);
  if (run.config.spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n",
                 workload.c_str());
    return 2;
  }
  run.config.seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  run.config.seconds = flags.GetDouble("seconds", 10.0);
  run.config.serve_binary = flags.GetString("serve", "");
  run.config.work_dir = flags.GetString("work_dir", "");
  const bool trace = flags.GetInt64("trace", 0) != 0;
  if (run.config.serve_binary.empty() || run.config.work_dir.empty() ||
      run.config.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --serve, --work_dir and a positive "
                         "--seconds are required\n");
    return 2;
  }
  fs::remove_all(run.config.work_dir);
  fs::create_directories(run.config.work_dir);

  const WorkloadSpec& spec = run.spec();
  run.Note("workload", Quoted(spec.name));
  run.Note("seed", std::to_string(run.config.seed));
  run.Note("held_out_seed", std::to_string(kHeldOutSeed));
  run.Note("trace", trace ? "1" : "0");
  run.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  run.Note("generator_threads", "1");
  run.Note("daemon_workers", std::to_string(spec.workers));
  run.Note("daemon_flags",
           JsonList(DaemonFlags(spec, spec.telemetry_in_e2e,
                                spec.churn ? "<dir>" : "")));
  run.Note("telemetry_flags", JsonList(spec.telemetry_flags));
  run.Note("window_s", Number(trace ? run.config.seconds * 3.0 / 32.0
                                    : run.config.seconds / 2.0));
  run.Note("topology",
           "{\"streams\":" + std::to_string(spec.streams) +
               ",\"queries_per_stream\":" +
               std::to_string(spec.queries_per_stream) +
               ",\"m\":" + std::to_string(spec.m) +
               ",\"batch_ticks\":" + std::to_string(spec.batch_ticks) +
               ",\"round_ticks\":" + std::to_string(spec.round_ticks) + "}");

  const CpuTimes cpu_before = ReadCpuTimes();
  const util::Status ran = trace ? RunTraced(&run) : RunEndToEnd(&run);
  const CpuTimes cpu_after = ReadCpuTimes();
  if (cpu_after.total > cpu_before.total) {
    run.Note("host_steal_frac",
             Number(static_cast<double>(cpu_after.steal - cpu_before.steal) /
                    static_cast<double>(cpu_after.total - cpu_before.total)));
  }
  if (!ran.ok()) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n",
                 ran.ToString().c_str());
    if (run.tally.failed == 0) run.tally.Fail(ran.ToString());
  }
  const int64_t compared =
      VerifyAgainstReference(run.config, run.sessions, &run.tally);
  int64_t redelivered = 0;
  int64_t churn_matches = 0;
  for (const Delivered& session : run.sessions) {
    redelivered += static_cast<int64_t>(session.redelivered.size());
    churn_matches += session.churn_matches;
  }
  run.Note("matches", "{\"compared\":" + std::to_string(compared) +
                          ",\"redelivered_after_crash\":" +
                          std::to_string(redelivered) +
                          ",\"churn_query\":" + std::to_string(churn_matches) +
                          ",\"sessions\":" +
                          std::to_string(run.sessions.size()) + "}");
  const double error_rate = static_cast<double>(run.tally.failed) /
                            static_cast<double>(std::max<int64_t>(
                                1, run.tally.attempted));
  run.Note("error_rate", Number(error_rate));

  std::string provenance = "{";
  for (size_t i = 0; i < run.provenance.size(); ++i) {
    provenance += (i > 0 ? "," : "") + run.provenance[i];
  }
  std::printf("PROVENANCE %s}\n", provenance.c_str());
  std::printf("error_rate %s (%lld failed of %lld attempted; %lld matches "
              "compared with the reference)\n",
              Number(error_rate).c_str(),
              static_cast<long long>(run.tally.failed),
              static_cast<long long>(run.tally.attempted),
              static_cast<long long>(compared));

  const bool correct = run.tally.failed == 0 && ran.ok();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<int64_t>(1, run.tally.attempted)) +
                     ", \"failed\": " + std::to_string(run.tally.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& metric = run.metrics[i];
    json += (i > 0 ? ", " : "") + Quoted(metric.name) + ": {\"value\": " +
            Number(metric.value) + ", \"unit\": " + Quoted(metric.unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  if (correct) fs::remove_all(run.config.work_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace springdtw

int main(int argc, char** argv) {
  return springdtw::perfbench::Main(argc, argv);
}
