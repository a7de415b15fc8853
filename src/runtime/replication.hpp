// Parallel replication runner for figure/table reproductions.
//
// Every paper result is a mean ± SEM over independent (scenario, seed)
// replications. Those runs share nothing — each constructs its own
// Simulation, RNG and trace sink — so they fan out across cores freely. The
// runner preserves the sequential contract exactly: results come back in
// a [config][seed] matrix regardless of completion order, so any
// aggregation (mean, SEM, ratios) performed over that matrix is
// bit-identical to running the same loop sequentially.
//
// `fn(config, seed)` is invoked concurrently from pool workers and must
// be thread-safe: build all per-run state (Scenario, Simulation) inside
// the call; never write to shared captures.
#pragma once

#include <cstdint>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace emptcp::runtime {

/// Runs fn(configs[i], seeds[j]) for every pair, in parallel, and returns
/// the results as matrix[i][j]. Exceptions thrown by runs are captured and
/// rethrown here, lowest (i, j) first. `workers` = 0 uses all cores
/// (respecting EMPTCP_JOBS).
template <typename Config, typename Fn>
auto run_replications(const std::vector<Config>& configs,
                      const std::vector<std::uint64_t>& seeds, Fn&& fn,
                      std::size_t workers = 0)
    -> std::vector<std::vector<
        std::invoke_result_t<Fn&, const Config&, std::uint64_t>>> {
  using Result = std::invoke_result_t<Fn&, const Config&, std::uint64_t>;
  static_assert(!std::is_reference_v<Result>,
                "replication results must be values");

  std::vector<std::vector<Result>> results(configs.size());
  std::vector<std::vector<std::exception_ptr>> errors(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    results[i].resize(seeds.size());
    errors[i].resize(seeds.size());
  }

  {
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      for (std::size_t j = 0; j < seeds.size(); ++j) {
        pool.submit([&, i, j] {
          try {
            results[i][j] = fn(configs[i], seeds[j]);
          } catch (...) {
            errors[i][j] = std::current_exception();
          }
        });
      }
    }
    pool.wait_idle();
  }

  for (const auto& row : errors) {
    for (const std::exception_ptr& e : row) {
      if (e) std::rethrow_exception(e);
    }
  }
  return results;
}

/// Single-config convenience: one result per seed, in seed order.
template <typename Config, typename Fn>
auto run_replications(const Config& config,
                      const std::vector<std::uint64_t>& seeds, Fn&& fn,
                      std::size_t workers = 0)
    -> std::vector<std::invoke_result_t<Fn&, const Config&, std::uint64_t>> {
  auto matrix = run_replications(std::vector<Config>{config}, seeds,
                                 std::forward<Fn>(fn), workers);
  return std::move(matrix.front());
}

/// Seed lists the way the benches build them: {base, base+1, ...}.
inline std::vector<std::uint64_t> seed_range(std::uint64_t base,
                                             std::size_t count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

}  // namespace emptcp::runtime
