#include "campaign/spec.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "analysis/json.hpp"
#include "sim/fidelity.hpp"

namespace emptcp::campaign {
namespace {

using analysis::FlatJson;
using analysis::JsonScalar;

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

JsonScalar scalar_from_text(std::string_view text) {
  JsonScalar v;
  if (text == "true" || text == "false") {
    v.type = JsonScalar::Type::kBool;
    v.boolean = text == "true";
    return v;
  }
  const std::string buf(text);
  char* end = nullptr;
  const double num = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() && *end == '\0' && !buf.empty()) {
    v.type = JsonScalar::Type::kNumber;
    v.num = num;
    return v;
  }
  v.type = JsonScalar::Type::kString;
  v.str = buf;
  return v;
}

/// key=value lines -> the same flattened document JSON parses to.
/// Comma-separated values become list entries (key.0, key.1, ...).
bool keyvalue_to_flat(std::string_view text, FlatJson& out, std::string& err) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = trim(text.substr(pos, nl - pos));
    pos = nl + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      err = "line " + std::to_string(line_no) + ": expected key = value";
      return false;
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      err = "line " + std::to_string(line_no) + ": empty key";
      return false;
    }
    if (value.find(',') == std::string_view::npos) {
      out.emplace_back(key, scalar_from_text(value));
      continue;
    }
    std::size_t index = 0;
    std::size_t vpos = 0;
    while (vpos <= value.size()) {
      std::size_t comma = value.find(',', vpos);
      if (comma == std::string_view::npos) comma = value.size();
      const std::string_view item = trim(value.substr(vpos, comma - vpos));
      vpos = comma + 1;
      if (item.empty()) continue;
      out.emplace_back(key + "." + std::to_string(index++),
                       scalar_from_text(item));
    }
  }
  return true;
}

double as_num(const JsonScalar& v) {
  switch (v.type) {
    case JsonScalar::Type::kNumber: return v.num;
    case JsonScalar::Type::kBool: return v.boolean ? 1.0 : 0.0;
    default: return 0.0;
  }
}

bool as_bool(const JsonScalar& v) { return as_num(v) != 0.0; }

/// Stores a numeric or boolean value into `field`; true, so a key's branch
/// can end in `return set(field, v);`.
template <typename T>
bool set(T& field, const JsonScalar& v) {
  if constexpr (std::is_same_v<T, bool>) {
    field = as_bool(v);
  } else {
    field = static_cast<T>(as_num(v));
  }
  return true;
}

std::string as_str(const JsonScalar& v) {
  if (v.type == JsonScalar::Type::kString) return v.str;
  return {};
}

/// Sets the scenario field `key` names (the part after "scenario."). False
/// with a diagnostic in `err` for an unknown key or an unknown named value.
bool apply_scenario_key(app::ScenarioConfig& cfg, std::string_view key,
                        const JsonScalar& v, std::string& err) {
  const auto bad_value = [&](const char* what) {
    err = "scenario." + std::string(key) + ": unknown " + what + " \"" +
          as_str(v) + "\"";
    return false;
  };
  auto path_key = [&](app::PathParams& pp, std::string_view sub) {
    if (sub == "down_mbps") return set(pp.down_mbps, v);
    if (sub == "up_mbps") return set(pp.up_mbps, v);
    if (sub == "rtt_ms") {
      pp.rtt = sim::from_seconds(as_num(v) * 1e-3);
      return true;
    }
    if (sub == "loss") return set(pp.loss, v);
    if (sub == "queue_bytes") return set(pp.queue_bytes, v);
    return false;
  };
  if (starts_with(key, "wifi.") && path_key(cfg.wifi, key.substr(5))) {
    return true;
  }
  if (starts_with(key, "cell.") && path_key(cfg.cell, key.substr(5))) {
    return true;
  }
  if (key == "wifi_onoff") return set(cfg.wifi_onoff, v);
  if (key == "onoff.high_mbps") return set(cfg.onoff.high_mbps, v);
  if (key == "onoff.low_mbps") return set(cfg.onoff.low_mbps, v);
  if (key == "onoff.mean_high_s") return set(cfg.onoff.mean_high_s, v);
  if (key == "onoff.mean_low_s") return set(cfg.onoff.mean_low_s, v);
  if (key == "interferers") return set(cfg.interferers, v);
  if (key == "lambda_on") return set(cfg.lambda_on, v);
  if (key == "lambda_off") return set(cfg.lambda_off, v);
  if (key == "mobility") return set(cfg.mobility, v);
  if (key == "request_bytes") return set(cfg.request_bytes, v);
  if (key == "max_sim_time_s") {
    cfg.max_sim_time = sim::from_seconds(as_num(v));
    return true;
  }
  if (key == "max_drain_s") {
    cfg.max_drain = sim::from_seconds(as_num(v));
    return true;
  }
  if (key == "record_series") return set(cfg.record_series, v);
  if (key == "fidelity") {
    const auto f = sim::fidelity_from_string(as_str(v));
    if (!f) return bad_value("fidelity");
    cfg.fidelity = *f;
    return true;
  }
  if (key == "device") {
    const std::string d = as_str(v);
    if (d == "galaxy-s3") cfg.device = energy::DeviceProfile::galaxy_s3();
    else if (d == "nexus5") cfg.device = energy::DeviceProfile::nexus5();
    else return bad_value("device");
    return true;
  }
  if (key == "cell_tech") {
    const std::string t = as_str(v);
    if (t == "lte") cfg.cell_tech = energy::CellTech::kLte;
    else if (t == "3g") cfg.cell_tech = energy::CellTech::kThreeG;
    else return bad_value("cellular technology");
    return true;
  }
  err = "unknown scenario key: scenario." + std::string(key);
  return false;
}

bool apply_key(CampaignSpec& spec, std::string_view key, const JsonScalar& v,
               std::string& err) {
  using workload::ArrivalProcess;
  using workload::FleetConfig;
  using workload::SizeDist;
  using workload::ThinkTime;
  FleetConfig& w = spec.workload;

  auto bad_value = [&](const std::string& what) {
    err = std::string(key) + ": unknown " + what + " \"" + as_str(v) + "\"";
    return false;
  };

  if (key == "schema") {
    if (as_str(v) != kCampaignSchema) {
      err = "schema: expected \"" + std::string(kCampaignSchema) + "\"";
      return false;
    }
    return true;
  }
  if (key == "name") {
    spec.name = as_str(v);
    return !spec.name.empty() || (err = "name: must be non-empty", false);
  }
  // List keys accept both the indexed form ("seeds.0", from JSON arrays
  // and comma lists) and the bare form (a single-element key=value line).
  auto list_key = [&key](std::string_view base) {
    return key == base ||
           (starts_with(key, base) && key.size() > base.size() &&
            key[base.size()] == '.');
  };
  if (list_key("protocols")) {
    const auto p = app::protocol_from_string(as_str(v));
    if (!p) return bad_value("protocol");
    spec.protocols.push_back(*p);
    return true;
  }
  if (list_key("fleet_sizes")) {
    const auto n = static_cast<std::size_t>(as_num(v));
    if (n == 0) {
      err = std::string(key) + ": fleet size must be >= 1";
      return false;
    }
    spec.fleet_sizes.push_back(n);
    return true;
  }
  if (list_key("seeds")) {
    spec.seeds.push_back(static_cast<std::uint64_t>(as_num(v)));
    return true;
  }
  if (key == "mode") {
    const std::string m = as_str(v);
    if (m == "closed") w.mode = FleetConfig::Mode::kClosed;
    else if (m == "open") w.mode = FleetConfig::Mode::kOpen;
    else return bad_value("mode");
    return true;
  }
  if (key == "app.kind") {
    using Kind = workload::Application::Kind;
    if (as_str(v) == "web") {
      err = "app.kind = web: no spec can state a web page yet";
      return false;
    }
    for (const Kind kind : {Kind::kDownload, Kind::kUpload, Kind::kStream}) {
      if (as_str(v) == application_slug(kind)) {
        w.application.kind = kind;
        return true;
      }
    }
    return bad_value("application");
  }
  if (key == "flows_per_client") return set(w.flows_per_client, v);
  if (key == "size.kind") {
    const std::string k = as_str(v);
    if (k == "fixed") w.flow_size.kind = SizeDist::Kind::kFixed;
    else if (k == "lognormal") w.flow_size.kind = SizeDist::Kind::kLognormal;
    else if (k == "pareto") w.flow_size.kind = SizeDist::Kind::kPareto;
    else if (k == "empirical") w.flow_size.kind = SizeDist::Kind::kEmpirical;
    else if (k == "scheduled") w.flow_size.kind = SizeDist::Kind::kScheduled;
    else return bad_value("size distribution");
    return true;
  }
  if (key == "size.mean_bytes") return set(w.flow_size.mean_bytes, v);
  if (key == "size.log_mu") return set(w.flow_size.log_mu, v);
  if (key == "size.log_sigma") return set(w.flow_size.log_sigma, v);
  if (key == "size.alpha") return set(w.flow_size.alpha, v);
  if (key == "size.min_bytes") return set(w.flow_size.min_bytes, v);
  if (key == "size.max_bytes") return set(w.flow_size.max_bytes, v);
  if (list_key("size.values")) {
    w.flow_size.values.push_back(static_cast<std::uint64_t>(as_num(v)));
    return true;
  }
  if (key == "think.kind") {
    const std::string k = as_str(v);
    if (k == "none") w.think.kind = ThinkTime::Kind::kNone;
    else if (k == "fixed") w.think.kind = ThinkTime::Kind::kFixed;
    else if (k == "exponential") w.think.kind = ThinkTime::Kind::kExponential;
    else return bad_value("think-time model");
    return true;
  }
  if (key == "think.mean_s") return set(w.think.mean_s, v);
  if (key == "arrival.kind") {
    using Arrival = ArrivalProcess::Kind;
    const std::string k = as_str(v);
    if (k == "poisson") w.arrival.kind = Arrival::kPoisson;
    else if (k == "deterministic") w.arrival.kind = Arrival::kDeterministic;
    else if (k == "trace") w.arrival.kind = Arrival::kTrace;
    else return bad_value("arrival process");
    return true;
  }
  if (key == "arrival.rate_per_s") return set(w.arrival.rate_per_s, v);
  if (list_key("arrival.times_s")) {
    w.arrival.times_s.push_back(as_num(v));
    return true;
  }
  if (key == "sharding.clients_per_cell") {
    return set(w.sharding.clients_per_cell, v);
  }
  if (key == "sharding.shards") return set(w.sharding.shards, v);
  if (key == "sharding.cross_every") return set(w.sharding.cross_every, v);
  if (key == "sharding.backbone_mbps") {
    if (as_num(v) <= 0.0) {
      err = std::string(key) + ": backbone rate must be > 0";
      return false;
    }
    w.sharding.backbone_mbps = as_num(v);
    return true;
  }
  if (key == "sharding.backbone_delay_ms") {
    if (as_num(v) <= 0.0) {
      err = std::string(key) +
            ": backbone delay must be > 0 (zero propagation collapses the "
            "conservative lookahead window)";
      return false;
    }
    w.sharding.backbone_delay = sim::from_seconds(as_num(v) * 1e-3);
    return true;
  }
  if (starts_with(key, "scenario.")) {
    return apply_scenario_key(w.scenario, key.substr(9), v, err);
  }
  err = "unknown key: " + std::string(key);
  return false;
}

/// Combinations no single key can reject: each would otherwise run
/// unverified or into undefined behaviour.
bool validate_workload(const workload::FleetConfig& w, std::string& err) {
  const auto reject = [&err](const char* why) {
    err = why;
    return false;
  };
  if (w.scenario.fidelity == sim::Fidelity::kHybrid &&
      w.sharding.clients_per_cell > 0) {
    return reject(
        "fidelity hybrid (scenario.fidelity or EMPTCP_FIDELITY) cannot run "
        "a sharded fleet (sharding.clients_per_cell > 0): the sharded merge "
        "keeps no fluid metrics and cross-cell links have no fast-path "
        "hooks");
  }
  if (w.scenario.fidelity == sim::Fidelity::kHybrid &&
      w.application.kind != workload::Application::Kind::kDownload) {
    return reject(
        "fidelity hybrid (scenario.fidelity or EMPTCP_FIDELITY) runs "
        "app.kind = download only: the hybrid differential checks have only "
        "ever compared downloads");
  }
  const bool open = w.mode == workload::FleetConfig::Mode::kOpen;
  const bool trace = w.arrival.kind == workload::ArrivalProcess::Kind::kTrace;
  if (open && trace && w.arrival.times_s.empty()) {
    return reject("arrival.kind = trace needs arrival.times_s");
  }
  const double rate = w.arrival.rate_per_s;
  if (open && !trace && !(rate > 0.0 && std::isfinite(rate))) {
    return reject("arrival.rate_per_s must be finite and > 0");
  }
  if (w.flow_size.min_bytes > w.flow_size.max_bytes) {
    return reject("size.min_bytes must not exceed size.max_bytes");
  }
  return true;
}

}  // namespace

const char* application_slug(workload::Application::Kind k) {
  constexpr const char* kSlugs[] = {"download", "upload", "stream", "web"};
  return kSlugs[static_cast<std::size_t>(k)];
}

const char* protocol_slug(app::Protocol p) {
  switch (p) {
    case app::Protocol::kTcpWifi: return "tcp-wifi";
    case app::Protocol::kTcpLte: return "tcp-lte";
    case app::Protocol::kMptcp: return "mptcp";
    case app::Protocol::kEmptcp: return "emptcp";
    case app::Protocol::kWifiFirst: return "wifi-first";
    case app::Protocol::kMdp: return "mdp";
  }
  return "unknown";
}

bool parse_campaign_spec(std::string_view text, CampaignSpec& out,
                         std::string& err) {
  FlatJson doc;
  const std::string_view body = trim(text);
  if (!body.empty() && body.front() == '{') {
    std::string perr;
    auto parsed = analysis::parse_json_flat(body, &perr);
    if (!parsed) {
      err = perr;
      return false;
    }
    doc = std::move(*parsed);
  } else if (!keyvalue_to_flat(text, doc, err)) {
    return false;
  }

  CampaignSpec spec;
  // Campaign runs always trace (the artifacts are the output) at the
  // decisions level (no figure reads per-ACK records; their counts stay
  // in the snapshot) and default to lean runs: no in-memory series.
  spec.workload.scenario.trace = true;
  spec.workload.scenario.trace_level = trace::Level::kDecisions;
  spec.workload.scenario.record_series = false;
  // EMPTCP_FIDELITY selects the default fidelity so one committed spec can
  // be driven at both fidelities (the hybrid differential gate does this);
  // an explicit scenario.fidelity key in the spec still wins.
  spec.workload.scenario.fidelity = sim::fidelity_from_env();
  for (const auto& [key, v] : doc) {
    if (!apply_key(spec, key, v, err)) return false;
  }
  if (spec.protocols.empty()) { err = "spec has no protocols"; return false; }
  if (spec.fleet_sizes.empty()) {
    err = "spec has no fleet_sizes";
    return false;
  }
  if (spec.seeds.empty()) { err = "spec has no seeds"; return false; }
  if (!validate_workload(spec.workload, err)) return false;
  // Stamped per cell by the runner; re-force in case a scenario key
  // toggled it.
  spec.workload.scenario.trace = true;
  spec.workload.scenario.trace_level = trace::Level::kDecisions;
  out = std::move(spec);
  return true;
}

bool load_campaign_spec(const std::string& path, CampaignSpec& out,
                        std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err = "cannot read " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!parse_campaign_spec(ss.str(), out, err)) {
    err = path + ": " + err;
    return false;
  }
  return true;
}

}  // namespace emptcp::campaign
