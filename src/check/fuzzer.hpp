// Deterministic scenario fuzzer: seed-scheduled grids of randomized fleet
// scenarios executed under the invariant oracle (check::Oracle), with an
// optional differential mode that re-runs the identical workload under
// plain MPTCP and cross-checks application byte streams and energy.
//
// Determinism contract: a scenario is a pure function of its seed (all
// generation draws come from an FNV-derived SeedStream, never from global
// rng), and a run is a pure function of (scenario, seed) — so the whole
// batch digest is reproducible across process runs and across
// EMPTCP_JOBS=1 vs parallel execution. Violations dump self-contained
// repro files (schema "emptcp-fuzz-repro-v1") that `emptcp-fuzz --replay`
// turns back into the exact failing run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "check/mutation.hpp"
#include "check/oracle.hpp"
#include "workload/fleet.hpp"

namespace emptcp::check {

/// Deterministic value stream for scenario generation: draw n is
/// fnv1a64("fuzz|<seed>|<n>"). No state beyond the counter, so generation
/// order is the only coupling between dimensions.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t next();
  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Uniform real in [lo, hi).
  double real(double lo, double hi);
  /// True with probability ~p.
  bool chance(double p);
  /// Log-uniform integer in [lo, hi] — for flow sizes spanning decades.
  std::uint64_t log_range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

/// A scheduled total blackout of one path: the affected links' loss
/// probability is forced to 1.0 for the window, then restored to the
/// scenario's configured value.
struct LinkOutage {
  enum class Path : std::uint8_t { kWifi, kCell };
  enum class Dir : std::uint8_t { kDown, kUp, kBoth };
  Path path = Path::kWifi;
  Dir dir = Dir::kBoth;
  double at_s = 1.0;
  double duration_s = 1.0;
};

const char* to_string(LinkOutage::Path p);
const char* to_string(LinkOutage::Dir d);

/// One generated test case. `fleet.protocol` is the primary protocol; when
/// `differential` is set the same workload also runs under kMptcp and the
/// two runs are cross-checked.
struct FuzzScenario {
  std::uint64_t seed = 0;
  workload::FleetConfig fleet;
  std::vector<LinkOutage> outages;
  bool differential = false;
  std::string summary;  ///< one-line human description
};

/// Pure function of (`seed`, `fidelity_diff`). Scenarios draw their
/// application (download, upload or stream); --fidelity-diff scenarios
/// keep downloads, the one application hybrid fidelity runs.
FuzzScenario generate_scenario(std::uint64_t seed, bool fidelity_diff = false);

/// One protocol run of a scenario under the oracle.
struct RunOutcome {
  std::uint64_t digest = 0;  ///< fnv1a64 of the serialized trace
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  bool all_completed = false;
  double energy_j = 0.0;
  std::uint64_t checks = 0;
  std::vector<Violation> violations;
  std::string flight_tail;  ///< flight-recorder dump; filled on violation
  std::vector<workload::FlowRecord> flows;
};

RunOutcome run_protocol(const FuzzScenario& sc, app::Protocol protocol,
                        sim::Fidelity fidelity = sim::Fidelity::kPacket);

/// Full result for one seed: primary run, plus the differential baseline
/// and cross-run checks when the scenario asks for them.
struct SeedResult {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;  ///< combined over all runs of this seed
  std::uint64_t checks = 0;
  std::vector<Violation> violations;
  std::string flight_tail;
  std::string summary;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// `fidelity_diff` additionally re-runs the scenario's primary protocol at
/// hybrid fidelity under the full oracle, and — on scenarios whose workload
/// is rng-independent (the same property the protocol differential needs)
/// — cross-checks per-flow completion, bytes (exact), FCT and energy
/// against the packet run within the DESIGN.md §13 tolerance contract.
SeedResult run_seed(std::uint64_t seed, bool fidelity_diff = false);

struct FuzzBatchConfig {
  std::uint64_t base_seed = 1;
  std::size_t seeds = 16;
  /// Re-run the first `recheck` seeds a second time and require identical
  /// digests (catches nondeterminism the cross-job comparison misses).
  std::size_t recheck = 0;
  std::size_t workers = 0;  ///< 0 = all cores (respects EMPTCP_JOBS)
  /// Run every seed's primary protocol at hybrid fidelity too and
  /// cross-check against the packet run (see run_seed).
  bool fidelity_diff = false;
};

struct FuzzBatchResult {
  std::vector<SeedResult> results;  ///< one per seed, in seed order
  std::uint64_t batch_digest = 0;   ///< order-stable combination
  std::size_t violating_seeds = 0;
  std::size_t recheck_mismatches = 0;
  std::uint64_t total_checks = 0;
};

/// Runs seeds [base_seed, base_seed + seeds) in parallel. Deterministic:
/// the batch digest depends only on (base_seed, seeds), never on workers.
/// Must run with the global mutation at kNone OR workers == 1 — mutations
/// are process-global, so mutated batches cannot overlap clean ones.
FuzzBatchResult run_batch(const FuzzBatchConfig& cfg);

/// Self-contained repro file ("emptcp-fuzz-repro-v1"): machine-readable
/// seed + mutation (+ fidelity-diff) header, human-readable
/// violation/flight commentary.
std::string format_repro(const FuzzScenario& sc, Mutation mutation,
                         const SeedResult& r, bool fidelity_diff = false);

struct ReproHeader {
  std::uint64_t seed = 0;
  Mutation mutation = Mutation::kNone;
  bool fidelity_diff = false;
};

/// Parses a repro file's header. Returns false (with `err` set) on
/// unknown schema or missing/garbled fields.
bool parse_repro(const std::string& text, ReproHeader& out, std::string& err);

}  // namespace emptcp::check
