// Paper Fig. 1: fixed energy cost (promotion + tail) of waking each
// interface, for both devices.
//
// Reproduced two ways: (a) closed-form from the device profiles, and
// (b) dynamically, by waking each radio once in the simulator and
// integrating the measured power until it idles — the two must agree,
// which is the calibration check for the whole energy subsystem.
#include "bench_util.hpp"
#include "energy/device_profile.hpp"
#include "energy/energy_tracker.hpp"
#include "net/node.hpp"

namespace {

using namespace emptcp;

/// Wakes a radio of the given params once and integrates energy to idle.
double measured_overhead_j(const energy::InterfacePowerParams& params,
                           net::InterfaceType type) {
  sim::Simulation sim(1);
  net::Node node(sim);
  auto& ifc = node.add_interface({type, 1, "radio"});
  net::Link link(sim, net::Link::Config{});
  ifc.set_default_route(link);

  energy::RadioModel radio(params);
  energy::EnergyTracker tracker(sim, {sim::milliseconds(10), 0.0, false});
  tracker.track(ifc, radio);
  tracker.start();

  sim.in(sim::milliseconds(50), [&] {
    net::Packet p;
    p.src = 1;
    p.dst = 2;
    p.payload = 60;  // one tiny datagram: almost pure fixed cost
    ifc.send(p);
  });
  sim.run_until(sim::seconds(20));
  // Subtract the idle floor over the 20 s window.
  return tracker.iface_j(type) - params.idle_mw * 20.0 / 1000.0;
}

}  // namespace

int main() {
  using namespace emptcp;
  using namespace emptcp::bench;

  header("Figure 1", "Fixed energy cost: WiFi and cellular (promotion + tail)");
  std::printf("paper bars: S3 WiFi 0.15 J, 3G ~7 J, LTE ~12 J; "
              "N5 WiFi 0.06 J, cellular ~15%% lower\n\n");

  stats::Table table({"device", "interface", "model (J)", "measured (J)"});
  for (const energy::DeviceProfile& dev :
       {energy::DeviceProfile::galaxy_s3(), energy::DeviceProfile::nexus5()}) {
    struct Row {
      const energy::InterfacePowerParams* p;
      net::InterfaceType t;
    };
    const Row rows[] = {{&dev.wifi, net::InterfaceType::kWifi},
                        {&dev.threeg, net::InterfaceType::kThreeG},
                        {&dev.lte, net::InterfaceType::kLte}};
    for (const Row& r : rows) {
      table.add_row({dev.name, r.p->name,
                     stats::Table::num(r.p->fixed_overhead_j(), 2),
                     stats::Table::num(measured_overhead_j(*r.p, r.t), 2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  note("LTE >> 3G >> WiFi per device; Nexus 5 below Galaxy S3; "
       "measured ~= closed-form.");
  return 0;
}
