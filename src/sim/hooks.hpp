// The per-simulation attachment point for observers that hook protocol
// code directly: the invariant oracle (check::Oracle) and the hybrid-
// fidelity governor (app::FastPath, seen as an mptcp::FastPathListener
// because mptcp must not depend on app).
//
// TcpSocket, MptcpConnection and LiaCoupledCc cache a pointer to their
// simulation's Hooks at construction, so a hook site costs one pointer load
// and a branch when nothing is attached, cheap enough for the hot paths.
// Hooks live in Simulation::context<T>() storage: created lazily, owned by
// the simulation, torn down after the scheduler.
#pragma once

#include "sim/simulation.hpp"

namespace emptcp::check {
class Oracle;
}  // namespace emptcp::check

namespace emptcp::mptcp {
class FastPathListener;
}  // namespace emptcp::mptcp

namespace emptcp::sim {

struct Hooks {
  check::Oracle* oracle = nullptr;
  mptcp::FastPathListener* fast_path = nullptr;
};

inline Hooks& hooks(Simulation& sim) { return sim.context<Hooks>(); }

}  // namespace emptcp::sim
