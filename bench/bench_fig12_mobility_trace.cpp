// Paper Figs. 11+12: the walking route (Fig. 11) and an example
// accumulated-energy trace along it (Fig. 12). The device starts next to
// the AP, walks out of usable range around 25-45 s, passes the AP again,
// and exits coverage near the end of the 250 s route.
#include "bench_util.hpp"
#include "net/channel/mobility.hpp"

int main() {
  using namespace emptcp;
  using namespace emptcp::bench;

  header("Figures 11 & 12",
         "Mobile route and accumulated energy example (250 s walk)");

  // Fig. 11: print the route's distance/rate profile.
  {
    const net::MobilityModel::Config route =
        net::MobilityModel::umass_corridor_route();
    std::printf("route profile (Fig. 11): distance to AP and achievable "
                "WiFi rate\n");
    stats::Table table({"t (s)", "distance (m)", "wifi rate (Mbps)"});
    for (double t = 0.0; t <= 250.0; t += 25.0) {
      table.add_row({stats::Table::num(t, 0),
                     stats::Table::num(route.distance_at(t), 1),
                     stats::Table::num(route.rate_at(t), 1)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  // Fig. 12: accumulated energy traces.
  app::ScenarioConfig cfg = lab_config(18.0, 9.0, /*record_series=*/true);
  cfg.mobility = true;
  app::Scenario s(cfg);
  for (app::Protocol p : {app::Protocol::kMptcp, app::Protocol::kEmptcp,
                          app::Protocol::kTcpWifi}) {
    const app::RunMetrics m = s.run_timed(p, sim::seconds(250), 12);
    std::printf("%s: %.0f J total, %.0f MB downloaded\n", app::to_string(p),
                m.energy_j, static_cast<double>(m.bytes_received) / 1e6);
    std::printf("accumulated energy (J):\n%s",
                stats::ascii_chart(m.energy_series, 72, 8).c_str());
    std::printf("wifi Mbps: %s\n\n",
                stats::sparkline(m.wifi_rate_series, 72).c_str());
    maybe_dump_csv(std::string("fig12_") + app::to_string(p),
                   {{"energy_j", &m.energy_series},
                    {"wifi_mbps", &m.wifi_rate_series},
                    {"lte_mbps", &m.cell_rate_series}});
  }
  note("eMPTCP's energy slope sits between TCP/WiFi's and MPTCP's: it only "
       "pays for LTE during the coverage dips (paper §4.5).");
  return 0;
}
