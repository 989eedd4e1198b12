#include "workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <tuple>

namespace springdtw {
namespace perfbench {
namespace {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> all;

    WorkloadSpec kernel;
    kernel.name = "kernel_bound";
    kernel.workers = 2;
    kernel.streams = 8;
    kernel.queries_per_stream = 16;
    kernel.m = 256;
    kernel.batch_ticks = 512;
    kernel.credit_ticks = 8192;
    kernel.round_ticks = 32;
    kernel.nominal_ticks_per_s = 80e3;
    kernel.nominal_rounds_per_s = 280;
    kernel.plant_every = 2048;
    kernel.flags = {"--workers=2"};
    kernel.telemetry_flags = {"--introspect_port=0"};
    all.push_back(kernel);

    WorkloadSpec wire;
    wire.name = "wire_bound";
    wire.workers = 1;
    wire.streams = 64;
    wire.queries_per_stream = 1;
    wire.m = 8;
    wire.batch_ticks = 16;
    wire.credit_ticks = 131072;
    wire.round_ticks = 16;
    wire.nominal_ticks_per_s = 4.2e6;
    wire.nominal_rounds_per_s = 4000;
    wire.plant_every = 40;
    wire.flags = {"--workers=1"};
    wire.telemetry_flags = {"--introspect_port=0"};
    all.push_back(wire);

    WorkloadSpec churn;
    churn.name = "daemon_churn";
    churn.workers = 2;
    churn.streams = 16;
    churn.queries_per_stream = 4;
    churn.m = 64;
    churn.batch_ticks = 128;
    churn.credit_ticks = 65536;
    churn.round_ticks = 32;
    churn.nominal_ticks_per_s = 550e3;
    churn.nominal_rounds_per_s = 220;
    churn.plant_every = 512;
    churn.churn = true;
    churn.churn_every_rounds = 100;
    churn.prefix_ticks = 2048;
    churn.tail_ticks = 4096;
    churn.flags = {"--workers=2", "--fsync=os"};
    churn.telemetry_flags = {"--introspect_port=0", "--timeline",
                             "--slo_p99_ms=50"};
    churn.telemetry_in_e2e = true;
    all.push_back(churn);
    return all;
  }();
  return workloads;
}

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  util::SplitMix64 mix(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                       (b * 0xc2b2ae3d27d4eb4fULL));
  return mix.Next();
}

double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

double Epsilon(const WorkloadSpec& spec) {
  return 0.05 * static_cast<double>(spec.m);
}

std::vector<double> QueryValues(const WorkloadSpec& spec, uint64_t seed,
                                int64_t stream, int64_t query) {
  util::SplitMix64 rng(Mix(seed, static_cast<uint64_t>(stream) + 1,
                           static_cast<uint64_t>(query) + 1));
  const double amplitude = 1.5 + Unit(rng.Next());
  const double cycles = 1.0 + 2.0 * Unit(rng.Next());
  const double phase = 2.0 * std::numbers::pi * Unit(rng.Next());
  const double offset = 2.0 * Unit(rng.Next()) - 1.0;
  std::vector<double> values(static_cast<size_t>(spec.m));
  for (int64_t i = 0; i < spec.m; ++i) {
    values[static_cast<size_t>(i)] =
        offset + amplitude * std::sin(2.0 * std::numbers::pi * cycles *
                                          static_cast<double>(i) /
                                          static_cast<double>(spec.m) +
                                      phase);
  }
  return values;
}

std::vector<double> ChurnQueryValues(const WorkloadSpec& spec) {
  return std::vector<double>(static_cast<size_t>(spec.m), 8.0);
}

std::string StreamName(int64_t stream) {
  return std::string("s").append(std::to_string(stream));
}
std::string QueryName(int64_t query) {
  return std::string("q").append(std::to_string(query));
}

StreamData::StreamData(const WorkloadSpec& spec, uint64_t seed,
                       int64_t stream)
    : rng_(Mix(seed, static_cast<uint64_t>(stream) + 1, 0)),
      plant_(QueryValues(spec, seed, stream, 0)),
      mean_gap_(spec.plant_every - spec.m) {
  gap_left_ = NextGap();
}

double StreamData::Noise(double half_width) {
  return half_width * (2.0 * Unit(rng_.Next()) - 1.0);
}

int64_t StreamData::NextGap() {
  // Uniform in [mean/2, 3*mean/2].
  const uint64_t span = static_cast<uint64_t>(mean_gap_) + 1;
  return mean_gap_ / 2 + static_cast<int64_t>(rng_.Next() % span);
}

void StreamData::Fill(std::span<double> out) {
  for (double& value : out) {
    if (plant_pos_ < 0) {
      if (gap_left_ > 0) {
        --gap_left_;
        value = Noise(0.5);
        continue;
      }
      plant_pos_ = 0;
    }
    value = plant_[static_cast<size_t>(plant_pos_)] + Noise(0.2);
    if (++plant_pos_ == static_cast<int64_t>(plant_.size())) {
      plant_pos_ = -1;
      gap_left_ = NextGap();
    }
  }
  position_ += static_cast<int64_t>(out.size());
}

void StreamData::Skip(int64_t ticks) {
  std::vector<double> discarded(4096);
  while (ticks > 0) {
    const int64_t n = std::min<int64_t>(ticks, 4096);
    Fill(std::span<double>(discarded.data(), static_cast<size_t>(n)));
    ticks -= n;
  }
}

bool operator<(const MatchRec& a, const MatchRec& b) {
  return std::make_tuple(a.report_time, a.start, a.end,
                         std::bit_cast<uint64_t>(a.distance)) <
         std::make_tuple(b.report_time, b.start, b.end,
                         std::bit_cast<uint64_t>(b.distance));
}

bool operator==(const MatchRec& a, const MatchRec& b) {
  return a.report_time == b.report_time && a.start == b.start &&
         a.end == b.end &&
         std::bit_cast<uint64_t>(a.distance) ==
             std::bit_cast<uint64_t>(b.distance);
}

std::vector<MatchRec> ReferenceMatches(const WorkloadSpec& spec,
                                       uint64_t seed, int64_t stream,
                                       int64_t query, int64_t ticks) {
  core::SpringOptions options;
  options.epsilon = Epsilon(spec);
  core::SpringMatcher matcher(QueryValues(spec, seed, stream, query),
                              options);
  StreamData data(spec, seed, stream);
  std::vector<double> chunk(4096);
  std::vector<MatchRec> matches;
  core::Match match;
  for (int64_t done = 0; done < ticks;) {
    const int64_t n = std::min<int64_t>(ticks - done, 4096);
    std::span<double> values(chunk.data(), static_cast<size_t>(n));
    data.Fill(values);
    for (double x : values) {
      if (matcher.Update(x, &match)) {
        matches.push_back(
            MatchRec{match.start, match.end, match.report_time,
                     match.distance});
      }
    }
    done += n;
  }
  return matches;
}

}  // namespace perfbench
}  // namespace springdtw
