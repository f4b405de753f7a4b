// The benchmark's three workloads, built from the seed.
//
// prepare() builds everything up to (not including) the mapping: topology,
// routing (and, for the LB scenario, the compiled fault timeline), the
// traffic inputs, and the mapping::Experiment that owns the run. Each phase
// is wrapped in a span so the traced run can attribute set-up time to the
// topology, routing, traffic and core layers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "app/scenario.hpp"
#include "bench/common.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "routing/routing.hpp"
#include "spans.hpp"
#include "topology/network.hpp"

namespace perfbench {

namespace fault = massf::fault;
namespace mapping = massf::mapping;
namespace routing = massf::routing;
namespace topology = massf::topology;
namespace traffic = massf::traffic;

enum class Kind { LbProfileThreaded, TeragridScalapack, Hier300kCbr };

const char* workload_name(Kind kind);
std::optional<Kind> parse_workload(const std::string& name);

/// One workload's inputs and its experiment. Not copyable or movable: the
/// experiment holds pointers into the owned network, routes and timeline.
struct Bench {
  Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  Kind kind = Kind::LbProfileThreaded;
  std::uint64_t seed = 0;
  mapping::Approach approach = mapping::Approach::Top;
  /// The horizon Experiment::run uses (set explicitly so a hand-built
  /// emulator in the traced run can use the same one).
  double horizon = 0;

  const topology::Network* network = nullptr;
  const routing::RoutingView* routes = nullptr;
  std::unique_ptr<fault::FaultTimeline> faults;
  std::shared_ptr<const traffic::Workload> workload;
  std::unique_ptr<mapping::Experiment> experiment;

  // ---- Expectations computed apart from the program -----------------------
  /// lb-profile-threaded: λT = users × rate × duration.
  double expected_requests = 0;
  /// lb-profile-threaded: the shortest client → LB → backend → LB → client
  /// propagation delay over all client/backend pairs, from link latencies.
  double min_round_trip_s = 0;
  /// hier-300k-cbr: flows × duration / interval.
  double expected_messages = 0;
  /// paper-teragrid-scalapack: the workload PROFILE profiles, whose
  /// placement the measured workload must share.
  std::shared_ptr<const traffic::Workload> profiled_workload;
  std::shared_ptr<const massf::app::LbWorkload> lb_workload;

  // ---- Owners of the inputs above (one set per workload kind) -------------
  std::unique_ptr<massf::app::LbScenario> lb_scenario;
  std::unique_ptr<massf::bench::TopologyCase> teragrid;
  std::unique_ptr<topology::Network> hierarchy;
  std::shared_ptr<const routing::RoutingView> view;
};

std::unique_ptr<Bench> prepare(Kind kind, std::uint64_t seed, Spans& spans);

}  // namespace perfbench
