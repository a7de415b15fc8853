// emptcp-fuzz: deterministic scenario fuzzer under the invariant oracle.
//
//   emptcp-fuzz [--seeds N] [--base-seed S] [--jobs N] [--recheck N]
//               [--mutate NAME] [--out DIR] [--digest-out FILE]
//   emptcp-fuzz --replay FILE
//
// Each seed expands (via check::generate_scenario) into a randomized fleet
// scenario executed under the protocol-invariant oracle; differential
// seeds run the identical workload under eMPTCP and plain MPTCP and
// cross-check byte streams and energy. The batch digest is a pure
// function of (base seed, seed count) — independent of --jobs /
// EMPTCP_JOBS — so two invocations can be diffed byte-for-byte.
//
// Violating seeds dump self-contained repro files into --out (default
// fuzz-out); `--replay FILE` re-runs exactly that scenario (including any
// injected mutation) and exits 1 while the violation reproduces. --mutate
// injects a known protocol bug (see check/mutation.hpp) to prove the
// oracle catches it; mutated batches force --jobs 1 because the mutation
// switch is process-global.
//
// Exit status: 0 clean, 1 violations or determinism mismatch, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/mutation.hpp"

namespace {

using namespace emptcp;

constexpr const char kUsage[] =
    "usage: emptcp-fuzz [--seeds N] [--base-seed S] [--jobs N]\n"
    "                   [--recheck N] [--mutate NAME] [--out DIR]\n"
    "                   [--digest-out FILE] [--fidelity-diff]\n"
    "       emptcp-fuzz --replay FILE\n"
    "       emptcp-fuzz --help\n"
    "\n"
    "Runs N seed-derived scenarios under the protocol-invariant oracle\n"
    "(differential eMPTCP-vs-MPTCP checking included). Violating seeds\n"
    "write replayable repro files into DIR (default: fuzz-out). The batch\n"
    "digest depends only on (--base-seed, --seeds), never on --jobs.\n"
    "--recheck N re-runs the first N seeds and demands identical digests.\n"
    "--mutate injects a known bug (reassembly-dup-deliver,\n"
    "scheduler-ignore-backup) to demonstrate detection; implies --jobs 1.\n"
    "--fidelity-diff additionally re-runs every seed's primary protocol at\n"
    "hybrid fidelity under the oracle and cross-checks per-flow bytes\n"
    "(exact), FCT and energy against the packet run (DESIGN.md §13).\n"
    "Exit: 0 clean, 1 violation or determinism mismatch, 2 usage.\n";

int usage_error(const std::string& complaint) {
  if (!complaint.empty()) {
    std::fprintf(stderr, "emptcp-fuzz: %s\n", complaint.c_str());
  }
  std::fputs(kUsage, stderr);
  return 2;
}

bool parse_count(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != s.c_str() && end != nullptr && *end == '\0';
}

int replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return usage_error("cannot read replay file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  check::ReproHeader hdr;
  std::string err;
  if (!check::parse_repro(buf.str(), hdr, err)) {
    return usage_error(path + ": " + err);
  }

  const check::ScopedMutation guard(hdr.mutation);
  const auto sc = check::generate_scenario(hdr.seed, hdr.fidelity_diff);
  std::fprintf(stderr, "emptcp-fuzz: replaying seed %llu (mutation %s)\n",
               static_cast<unsigned long long>(hdr.seed),
               check::to_string(hdr.mutation));
  std::fprintf(stderr, "emptcp-fuzz: scenario: %s\n", sc.summary.c_str());
  const check::SeedResult r = check::run_seed(hdr.seed, hdr.fidelity_diff);
  std::fprintf(stderr,
               "emptcp-fuzz: %llu checks, %zu violation(s), digest %llu\n",
               static_cast<unsigned long long>(r.checks),
               r.violations.size(),
               static_cast<unsigned long long>(r.digest));
  for (const check::Violation& v : r.violations) {
    std::fprintf(stderr, "  t=%.6f %s: %s\n", v.t_s, v.invariant.c_str(),
                 v.detail.c_str());
  }
  return r.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }

  check::FuzzBatchConfig cfg;
  cfg.seeds = 16;
  cfg.base_seed = 1;
  check::Mutation mutation = check::Mutation::kNone;
  std::string out_dir = "fuzz-out";
  std::string digest_out;
  std::string replay_path;
  bool jobs_given = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* what) -> const std::string* {
      if (i + 1 >= args.size()) return nullptr;
      (void)what;
      return &args[++i];
    };
    std::uint64_t n = 0;
    if (args[i] == "--seeds") {
      const std::string* v = value("--seeds");
      if (v == nullptr || !parse_count(*v, n) || n == 0) {
        return usage_error("--seeds needs a positive count");
      }
      cfg.seeds = static_cast<std::size_t>(n);
    } else if (args[i] == "--base-seed") {
      const std::string* v = value("--base-seed");
      if (v == nullptr || !parse_count(*v, n)) {
        return usage_error("--base-seed needs a number");
      }
      cfg.base_seed = n;
    } else if (args[i] == "--jobs") {
      const std::string* v = value("--jobs");
      if (v == nullptr || !parse_count(*v, n) || n == 0) {
        return usage_error("--jobs needs a positive count");
      }
      cfg.workers = static_cast<std::size_t>(n);
      jobs_given = true;
    } else if (args[i] == "--recheck") {
      const std::string* v = value("--recheck");
      if (v == nullptr || !parse_count(*v, n)) {
        return usage_error("--recheck needs a count");
      }
      cfg.recheck = static_cast<std::size_t>(n);
    } else if (args[i] == "--mutate") {
      const std::string* v = value("--mutate");
      if (v == nullptr || !check::mutation_from_string(*v, mutation)) {
        return usage_error("unknown --mutate name" +
                           (v != nullptr ? ": " + *v : std::string()));
      }
    } else if (args[i] == "--out") {
      const std::string* v = value("--out");
      if (v == nullptr) return usage_error("--out needs a directory");
      out_dir = *v;
    } else if (args[i] == "--digest-out") {
      const std::string* v = value("--digest-out");
      if (v == nullptr) return usage_error("--digest-out needs a file");
      digest_out = *v;
    } else if (args[i] == "--replay") {
      const std::string* v = value("--replay");
      if (v == nullptr) return usage_error("--replay needs a file");
      replay_path = *v;
    } else if (args[i] == "--fidelity-diff") {
      cfg.fidelity_diff = true;
    } else {
      return usage_error("unknown option: " + args[i]);
    }
  }

  if (!replay_path.empty()) return replay(replay_path);

  if (mutation != check::Mutation::kNone) {
    if (jobs_given && cfg.workers != 1) {
      return usage_error("--mutate is process-global; use --jobs 1");
    }
    cfg.workers = 1;
  }

  const check::ScopedMutation guard(mutation);
  std::fprintf(stderr,
               "emptcp-fuzz: %zu seed(s) from %llu, recheck %zu, "
               "mutation %s\n",
               cfg.seeds, static_cast<unsigned long long>(cfg.base_seed),
               cfg.recheck, check::to_string(mutation));
  const check::FuzzBatchResult batch = check::run_batch(cfg);

  if (batch.violating_seeds > 0) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "emptcp-fuzz: cannot create %s: %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  for (const check::SeedResult& r : batch.results) {
    if (r.ok()) continue;
    const auto sc = check::generate_scenario(r.seed, cfg.fidelity_diff);
    const std::filesystem::path repro =
        std::filesystem::path(out_dir) /
        ("repro-" + std::to_string(r.seed) + ".txt");
    std::ofstream out(repro);
    out << check::format_repro(sc, mutation, r, cfg.fidelity_diff);
    std::fprintf(stderr, "emptcp-fuzz: seed %llu: %zu violation(s) -> %s\n",
                 static_cast<unsigned long long>(r.seed),
                 r.violations.size(), repro.string().c_str());
    std::size_t shown = 0;
    for (const check::Violation& v : r.violations) {
      if (shown++ == 4) {
        std::fprintf(stderr, "    ...\n");
        break;
      }
      std::fprintf(stderr, "    t=%.6f %s: %s\n", v.t_s,
                   v.invariant.c_str(), v.detail.c_str());
    }
  }

  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "fnv1a64:%016llx",
                static_cast<unsigned long long>(batch.batch_digest));
  const std::string digest = digest_hex;
  std::fprintf(stderr,
               "emptcp-fuzz: %zu seed(s), %llu checks, %zu violating, "
               "%zu recheck mismatch(es)\n",
               batch.results.size(),
               static_cast<unsigned long long>(batch.total_checks),
               batch.violating_seeds, batch.recheck_mismatches);
  std::fprintf(stdout, "%s\n", digest.c_str());
  if (!digest_out.empty()) {
    std::ofstream out(digest_out);
    out << digest << "\n";
  }
  return batch.violating_seeds > 0 || batch.recheck_mismatches > 0 ? 1 : 0;
}
