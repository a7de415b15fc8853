#include "analysis/manifest.hpp"

#include "app/scenario.hpp"
#include "stats/csv.hpp"
#include "stats/trace_export.hpp"

namespace emptcp::analysis {
namespace {

std::string quoted(std::string_view s) {
  std::string out;
  stats::append_json_string(out, s);
  return out;
}

std::string num(double v) { return stats::fmt_double(v); }

}  // namespace

std::vector<std::pair<std::string, std::string>> describe_scenario(
    const app::ScenarioConfig& cfg) {
  std::vector<std::pair<std::string, std::string>> p;
  auto path = [&p](const char* name, const app::PathParams& pp) {
    const std::string pre = std::string(name) + ".";
    p.emplace_back(pre + "down_mbps", num(pp.down_mbps));
    p.emplace_back(pre + "up_mbps", num(pp.up_mbps));
    p.emplace_back(pre + "rtt_ms", num(sim::to_seconds(pp.rtt) * 1e3));
    p.emplace_back(pre + "loss", num(pp.loss));
    p.emplace_back(pre + "queue_bytes",
                   num(static_cast<double>(pp.queue_bytes)));
  };
  path("wifi", cfg.wifi);
  path("cell", cfg.cell);
  p.emplace_back("device", quoted(cfg.device.name));
  p.emplace_back("cell_tech",
                 cfg.cell_tech == energy::CellTech::kLte ? "\"LTE\""
                                                         : "\"3G\"");
  p.emplace_back("wifi_onoff", cfg.wifi_onoff ? "true" : "false");
  if (cfg.wifi_onoff) {
    p.emplace_back("onoff.high_mbps", num(cfg.onoff.high_mbps));
    p.emplace_back("onoff.low_mbps", num(cfg.onoff.low_mbps));
    p.emplace_back("onoff.mean_high_s", num(cfg.onoff.mean_high_s));
    p.emplace_back("onoff.mean_low_s", num(cfg.onoff.mean_low_s));
  }
  p.emplace_back("interferers", num(cfg.interferers));
  if (cfg.interferers > 0) {
    p.emplace_back("lambda_on", num(cfg.lambda_on));
    p.emplace_back("lambda_off", num(cfg.lambda_off));
  }
  p.emplace_back("mobility", cfg.mobility ? "true" : "false");
  p.emplace_back("request_bytes",
                 num(static_cast<double>(cfg.request_bytes)));
  p.emplace_back("max_sim_time_s", num(sim::to_seconds(cfg.max_sim_time)));
  p.emplace_back("max_drain_s", num(sim::to_seconds(cfg.max_drain)));
  return p;
}

std::vector<std::pair<std::string, std::string>> describe_build() {
  std::vector<std::pair<std::string, std::string>> p;
#ifdef NDEBUG
  p.emplace_back("build.ndebug", "true");
#else
  p.emplace_back("build.ndebug", "false");
#endif
#ifdef __VERSION__
  p.emplace_back("build.compiler", quoted(__VERSION__));
#endif
  return p;
}

std::string manifest_to_json(const RunManifest& m) {
  std::string out = "{\n";
  out += "  \"schema\": " + quoted(kManifestSchema) + ",\n";
  out += "  \"group\": " + quoted(m.group) + ",\n";
  out += "  \"protocol\": " + quoted(m.protocol) + ",\n";
  out += "  \"seed\": " + num(static_cast<double>(m.seed)) + ",\n";
  out += "  \"workload\": " + quoted(m.workload) + ",\n";
  out += "  \"trace_file\": " + quoted(m.trace_file) + ",\n";
  out += "  \"trace_events\": " + num(static_cast<double>(m.trace_events)) +
         ",\n";
  out += "  \"trace_digest\": " + quoted(m.trace_digest) + ",\n";
  out += "  \"params\": {";
  bool first = true;
  for (const auto& [k, v] : m.params) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + quoted(k) + ": " + v;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool manifest_from_json(const FlatJson& doc, RunManifest& out) {
  if (json_str(doc, "schema") != kManifestSchema) return false;
  out.group = json_str(doc, "group");
  out.protocol = json_str(doc, "protocol");
  out.seed = static_cast<std::uint64_t>(json_num(doc, "seed", 0));
  out.workload = json_str(doc, "workload");
  out.trace_file = json_str(doc, "trace_file");
  out.trace_events =
      static_cast<std::uint64_t>(json_num(doc, "trace_events", 0));
  out.trace_digest = json_str(doc, "trace_digest");
  out.params.clear();
  constexpr std::string_view kPrefix = "params.";
  for (const auto& [k, v] : doc) {
    if (k.rfind(kPrefix, 0) != 0) continue;
    std::string rendered;
    switch (v.type) {
      case JsonScalar::Type::kNumber: rendered = num(v.num); break;
      case JsonScalar::Type::kBool: rendered = v.boolean ? "true" : "false";
        break;
      case JsonScalar::Type::kString: rendered = quoted(v.str); break;
      case JsonScalar::Type::kNull: rendered = "null"; break;
    }
    out.params.emplace_back(k.substr(kPrefix.size()), std::move(rendered));
  }
  return true;
}

std::string write_run_artifacts(
    const std::string& dir, const std::string& base,
    const std::vector<trace::Event>& events,
    const std::vector<trace::MetricSnapshot>& metrics, RunManifest& manifest) {
  manifest.trace_file = base + ".jsonl";
  const std::string trace_path = dir + "/" + manifest.trace_file;
  if (!stats::write_trace_jsonl(trace_path, events, metrics,
                                manifest.trace_digest)) {
    return trace_path;
  }
  manifest.trace_events = events.size();
  for (auto& kv : describe_build()) manifest.params.push_back(std::move(kv));
  const std::string manifest_path = dir + "/" + base + ".manifest.json";
  if (!stats::write_file(manifest_path, manifest_to_json(manifest))) {
    return manifest_path;
  }
  return "";
}

}  // namespace emptcp::analysis
