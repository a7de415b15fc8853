// Declarative campaign specifications.
//
// A campaign is a scenario grid — protocol × fleet size × seed — over one
// workload description, written either as JSON or as key=value lines:
//
//   # §4.6-style baseline sweep
//   name          = sec46-fleet
//   protocols     = emptcp, mptcp
//   fleet_sizes   = 4, 16
//   seeds         = 1, 2, 3
//   mode          = closed
//   app.kind      = download
//   flows_per_client = 2
//   size.kind     = lognormal
//   size.log_mu   = 13.2
//   scenario.wifi.down_mbps = 12
//
// Both syntaxes flatten to the same dotted-path document (the JSON path
// reuses analysis::parse_json_flat), so one applier populates the spec and
// unknown keys fail loudly — a typo'd knob aborts instead of silently
// running the default. The parsed spec holds a complete FleetConfig
// template; the runner stamps protocol and fleet size per cell.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "workload/fleet.hpp"

namespace emptcp::campaign {

inline constexpr std::string_view kCampaignSchema = "emptcp-campaign-v1";

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<app::Protocol> protocols;
  std::vector<std::size_t> fleet_sizes;
  std::vector<std::uint64_t> seeds;
  /// Workload template: scenario + mode + distributions + sharding
  /// (`sharding.clients_per_cell` > 0 runs each cell's fleet on the
  /// conservative shard engine; `sharding.shards` picks the worker count
  /// without changing a single output byte). The parser forces trace on
  /// at trace::Level::kDecisions; the runner overrides `protocol` and
  /// `clients` per cell.
  workload::FleetConfig workload;

  [[nodiscard]] std::size_t cell_count() const {
    return protocols.size() * fleet_sizes.size() * seeds.size();
  }
};

/// Filename-safe lowercase protocol tag ("tcp-wifi", "emptcp", ...), also
/// accepted back by app::protocol_from_string.
const char* protocol_slug(app::Protocol p);

/// The `app.kind` value naming an application ("download", "upload",
/// "stream", "web").
const char* application_slug(workload::Application::Kind k);

/// Parses a spec from text (JSON object or key=value lines, auto-detected
/// by a leading '{'). False with a diagnostic in `err` on malformed input,
/// unknown keys or named values (app.kind = web included: no key states a
/// page), an incomplete grid (empty protocols/fleet_sizes/seeds), or a
/// workload that cannot run: hybrid fidelity on a sharded fleet or with
/// an application other than download, an open loop without a positive
/// finite rate or (trace arrivals) without times, or size.min_bytes above
/// size.max_bytes.
bool parse_campaign_spec(std::string_view text, CampaignSpec& out,
                         std::string& err);

/// parse_campaign_spec over a file's contents.
bool load_campaign_spec(const std::string& path, CampaignSpec& out,
                        std::string& err);

}  // namespace emptcp::campaign
