// Output checks, each with a negative case.
//
// Every check is a predicate over an observation of the program's outputs,
// compared against a property computed apart from the program (a count, a
// Poisson bound, a Dijkstra distance of the benchmark's own). Each check
// also carries a mutation of its observation that it must reject — one
// response removed, one next link swapped, one node left unassigned. A run
// applies both to its real outputs, so a check that could never fail shows
// up as a failed run instead of a silent pass.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "emu/emulator.hpp"
#include "routing/routing.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/histogram.hpp"

namespace perfbench {

class CheckLog {
 public:
  /// Apply `holds` to `observation` and to a copy mutated by `break_it`.
  /// The check passes when the real outputs hold and the mutated ones do
  /// not.
  template <class Obs>
  void run(const std::string& name, const Obs& observation,
           const std::function<bool(const Obs&)>& holds,
           const std::function<void(Obs&)>& break_it) {
    ++checks_;
    if (!holds(observation)) failures_.push_back(name);
    Obs broken = observation;
    break_it(broken);
    if (holds(broken)) failures_.push_back(name + " (negative case passed)");
  }

  int checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool passed() const { return failures_.empty(); }

 private:
  int checks_ = 0;
  std::vector<std::string> failures_;
};

/// Shortest propagation latency from `src` to every node (Dijkstra over the
/// links' latencies; +inf where unreachable).
std::vector<double> shortest_latencies(const massf::topology::Network& network,
                                       massf::topology::NodeId src);

/// Every workload: trains injected == delivered + every drop class.
void check_train_conservation(CheckLog& log,
                              const massf::emu::EmulatorStats& stats);

/// A valid `engines`-way assignment of every node, with no empty engine.
void check_assignment(CheckLog& log, const std::vector<int>& node_engine,
                      int engines);

/// Two fingerprints that must be equal (history hashes of runs that must
/// replay one history, or a modeled time that must repeat).
void check_equal(CheckLog& log, const std::string& name, std::uint64_t a,
                 std::uint64_t b);

/// lb-profile-threaded outputs.
struct LbObservation {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_received = 0;
  massf::LatencyHistogram latency;
  double expected_requests = 0;
  double min_round_trip_s = 0;
};
void check_lb(CheckLog& log, const LbObservation& obs);

/// paper-teragrid-scalapack: every application message is delivered.
void check_messages_delivered(CheckLog& log,
                              const massf::emu::EmulatorStats& stats);

/// paper-teragrid-scalapack: the measured workload places its traffic as
/// the profiled one does (foreground hosts in rank order, HTTP client/server
/// pairs and their predicted rates, duration), so the profile describes it.
void check_same_traffic_plan(CheckLog& log,
                             const massf::topology::Network& network,
                             const massf::traffic::Workload& profiled,
                             const massf::traffic::Workload& measured);

/// hier-300k-cbr: messages sent lie within 5·√λT of λT.
void check_poisson_messages(CheckLog& log, std::uint64_t messages_sent,
                            double expected);

/// hier-300k-cbr: for each sampled pair, walking next_link from the source
/// reaches the destination at a path latency equal to the benchmark's own
/// Dijkstra distance.
void check_routes(CheckLog& log, const massf::topology::Network& network,
                  const massf::routing::RoutingView& routes,
                  const std::vector<std::pair<massf::topology::NodeId,
                                              massf::topology::NodeId>>& pairs);

}  // namespace perfbench
