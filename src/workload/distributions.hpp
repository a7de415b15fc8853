// Workload randomness: flow sizes, arrival processes and think times.
//
// Each model is a small POD config sampled through sim::Rng, so every draw
// is a pure function of the owning simulation's seed and the draw order —
// the determinism contract (bit-identical sequential vs parallel) extends
// unchanged to fleet runs. Size distributions follow the traffic-modeling
// literature: lognormal bodies and Pareto tails for web/file transfers,
// plus empirical sets for replaying measured size mixes (the paper's "in
// the wild" categories).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace emptcp::workload {

/// Flow-size model. All draws are clamped to [min_bytes, max_bytes].
struct SizeDist {
  enum class Kind : std::uint8_t {
    kFixed,      ///< every flow is mean_bytes
    kLognormal,  ///< lognormal(log_mu, log_sigma) in bytes
    kPareto,     ///< Pareto(scale=min_bytes, shape=alpha); heavy tail
    kEmpirical,  ///< uniform pick from `values`
    kScheduled,  ///< values[index % size], no rng draw — flow sizes become
                 ///< a pure function of the flow index, which is what lets
                 ///< the fuzzer's differential mode compare protocols on
                 ///< identical workloads
  };

  Kind kind = Kind::kFixed;
  std::uint64_t mean_bytes = 1 << 20;  ///< kFixed value
  double log_mu = 11.0;                ///< kLognormal: mean of ln(bytes)
  double log_sigma = 1.5;              ///< kLognormal: sigma of ln(bytes)
  double alpha = 1.2;                  ///< kPareto shape (tail heaviness)
  std::uint64_t min_bytes = 1024;
  std::uint64_t max_bytes = std::uint64_t{1} << 32;
  std::vector<std::uint64_t> values{};  ///< kEmpirical/kScheduled support

  /// `index` is the flow index; only kScheduled consults it (and draws
  /// nothing from `rng`, like kFixed).
  [[nodiscard]] std::uint64_t sample(sim::Rng& rng,
                                     std::size_t index = 0) const;
};

/// Flow inter-arrival model (open-loop fleets).
struct ArrivalProcess {
  enum class Kind : std::uint8_t {
    kPoisson,        ///< exponential gaps at rate_per_s
    kDeterministic,  ///< fixed gaps of 1/rate_per_s
    kTrace,          ///< explicit start times (seconds, ascending)
  };

  Kind kind = Kind::kPoisson;
  double rate_per_s = 1.0;
  std::vector<double> times_s;  ///< kTrace schedule

  /// Seconds from `prev_s` (or the trace start time for draw `index`);
  /// negative when a kTrace schedule is exhausted.
  [[nodiscard]] double next_start_s(sim::Rng& rng, double prev_s,
                                    std::size_t index) const;
};

/// Client think time between a completion and the next request
/// (closed-loop fleets).
struct ThinkTime {
  enum class Kind : std::uint8_t {
    kNone,         ///< immediately request the next flow
    kFixed,        ///< constant mean_s
    kExponential,  ///< exponential with mean mean_s
  };

  Kind kind = Kind::kNone;
  double mean_s = 0.0;

  [[nodiscard]] double sample_s(sim::Rng& rng) const;
};

}  // namespace emptcp::workload
