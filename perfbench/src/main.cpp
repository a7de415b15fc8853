// Benchmark harness: runs one named workload as a closed loop of whole
// repetitions for a fixed host-time budget, checks every repetition's
// outputs outside the timed region, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//   perfbench --workload paper_campaign|sharded_fleet|hybrid_fleet
//             --seed N --seconds S --trace 0|1 [--out DIR]
//             [--fault digest|shard_twin|fidelity_band]
//
// --fault breaks one reference on purpose; the benchmark's tests use it
// to show each check turns the run's flows into failures.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "runtime/telemetry.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
  Fault fault = Fault::kNone;
};

/// Set-up-only samples, taken before the timed repetitions: at least
/// kMinSetupSamples, and for the cheap set-ups (tens of microseconds, where
/// one slow file-system call shows) as many as fit in kSetupSampleS of
/// wall time, up to kMaxSetupSamples, so the median spans more than one
/// moment of the host.
constexpr std::size_t kMinSetupSamples = 15;
constexpr std::size_t kMaxSetupSamples = 2000;
constexpr double kSetupSampleS = 0.5;
/// Timed repetitions per invocation at least (traced runs: this many of
/// each kind, so exact counts can be compared between traced repetitions).
constexpr std::size_t kMinReps = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_campaign|sharded_fleet|hybrid_fleet --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--fault "
               "digest|shard_twin|fidelity_band]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--fault") {
      if (v == "digest") o.fault = Fault::kDigest;
      else if (v == "shard_twin") o.fault = Fault::kShardTwin;
      else if (v == "fidelity_band") o.fault = Fault::kFidelityBand;
      else usage("unknown --fault");
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  return o;
}

/// All the digits of a measured value (JSON has no NaN or infinity).
std::string num(double v) { return std::isfinite(v) ? fmt("%.17g", v) : "0"; }

struct Printed {
  std::string name;
  double value;
  std::string unit;
};

int run(const Options& o) {
  std::unique_ptr<Workload> w;
  if (o.workload == "paper_campaign") {
    w = make_paper_campaign(o.seed, o.fault, o.out);
  } else if (o.workload == "sharded_fleet") {
    w = make_sharded_fleet(o.seed, o.fault);
  } else if (o.workload == "hybrid_fleet") {
    w = make_hybrid_fleet(o.seed, o.fault);
  } else {
    usage("unknown workload");
  }

  emptcp::runtime::Telemetry& tel = emptcp::runtime::Telemetry::instance();
  w->prepare(o.trace);

  std::vector<double> setup_s, wall_s, rate, rss, traced_wall_s;
  const double sampling_end = now_s() + kSetupSampleS;
  while (setup_s.size() < kMinSetupSamples ||
         (now_s() < sampling_end && setup_s.size() < kMaxSetupSamples)) {
    reset_peak_rss();  // the same heap state the repetitions start from
    const double t0 = now_s();
    w->setup(false);
    setup_s.push_back(now_s() - t0);
    w->discard();
  }

  std::map<std::string, SpanTime> spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double deadline = now_s() + o.seconds;
  for (std::size_t rep = 0;; ++rep) {
    // Traced runs alternate plain and traced repetitions, so the tracing
    // overhead compares like with like.
    const bool traced = o.trace && rep % 2 == 1;
    if (traced) {
      tel.clear();
      tel.enable(true);
    }
    reset_peak_rss();
    const double base_mb = rss_mb();
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    const double t0 = now_s();
    w->setup(traced);
    const double t1 = now_s();
    w->run();
    const double t2 = now_s();
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    const double peak_mb = peak_rss_mb();
    if (traced) {
      tel.enable(false);
      for (const auto& [name, t] : span_times()) {
        SpanTime& s = spans[name];
        s.count += t.count;
        s.total_s += t.total_s;
        s.self_s += t.self_s;
        s.durations_s.insert(s.durations_s.end(), t.durations_s.begin(),
                             t.durations_s.end());
      }
    }
    const RepOutcome out = w->finish_rep();
    attempted += out.attempted;
    failed += out.failed;
    const auto tv_s = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    std::printf("  rep %zu%s: setup %.6f s, wall %.6f s, user %.3f s, sys "
                "%.3f s, minor faults %ld, peak +%.1f MB, flows %llu (%llu "
                "failed)\n",
                rep, traced ? " traced" : "", t1 - t0, t2 - t1,
                tv_s(ru1.ru_utime) - tv_s(ru0.ru_utime),
                tv_s(ru1.ru_stime) - tv_s(ru0.ru_stime),
                ru1.ru_minflt - ru0.ru_minflt, peak_mb - base_mb,
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    if (traced) {
      traced_wall_s.push_back(t2 - t1);
    } else {
      setup_s.push_back(t1 - t0);
      wall_s.push_back(t2 - t1);
      rate.push_back(out.client_s / (t2 - t1));
      rss.push_back(peak_mb - base_mb);
    }
    const std::size_t min_reps = o.trace ? 2 * kMinReps : kMinReps;
    if (now_s() >= deadline && rep + 1 >= min_reps) break;
  }

  bool correct = w->checks_ok() && failed == 0;
  if (attempted == 0) {
    // A run in which no flow finished measured nothing.
    correct = false;
    attempted = failed = 1;
  }

  std::printf("workload %s  seed %llu  repetitions %zu plain, %zu traced\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              wall_s.size(), traced_wall_s.size());
  const double plain_wall = median(wall_s);
  std::vector<Printed> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"wall_s", plain_wall, "s"},
        {"client_s_per_s", median(rate), "client_s/s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
    for (const Printed& m : metrics) {
      std::printf("  %-16s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str());
    }
    std::printf("  %-16s %s ratio  (ops=%llu ops_failed=%llu)\n",
                "failed_share",
                num(static_cast<double>(failed) /
                    static_cast<double>(attempted))
                    .c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  } else {
    const std::map<std::string, double> layers =
        w->layers(median(traced_wall_s), plain_wall, spans);
    std::printf("  %-28s %-22s %-10s %s\n", "metric", "value", "unit",
                "should move");
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = layers.find(m.name);
      const double v = it == layers.end() ? 0.0 : it->second;
      metrics.push_back({m.name, v, m.unit});
      std::printf("  %-28s %-22s %-10s %s on %s%s\n", m.name,
                  num(v).c_str(), m.unit, m.moves, m.on,
                  it == layers.end() ? "  (not reached by this workload)"
                                     : "");
    }
    std::printf("  spans (traced repetitions; self = minus same-thread "
                "children)\n  %-36s %8s %12s %12s\n",
                "name", "count", "total_s", "self_s");
    for (const auto& [name, s] : spans) {
      std::printf("  %-36s %8llu %12.6f %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_s,
                  s.self_s);
    }
  }
  for (const std::string& line : w->notes()) {
    std::printf("  %s\n", line.c_str());
  }

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
