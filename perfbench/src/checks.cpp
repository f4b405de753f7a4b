#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace perfbench {

using massf::LatencyHistogram;
using massf::emu::EmulatorStats;
using massf::routing::RoutingView;
using massf::topology::LinkId;
using massf::topology::Network;
using massf::topology::NodeId;
using massf::traffic::Workload;

std::vector<double> shortest_latencies(const Network& network, NodeId src) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(network.node_count()),
                           inf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  dist[static_cast<std::size_t>(src)] = 0;
  frontier.push({0.0, src});
  while (!frontier.empty()) {
    const auto [d, node] = frontier.top();
    frontier.pop();
    if (d > dist[static_cast<std::size_t>(node)]) continue;
    for (const LinkId link : network.incident_links(node)) {
      const NodeId next = network.link_other_end(link, node);
      const double candidate = d + network.link(link).latency_s;
      if (candidate < dist[static_cast<std::size_t>(next)]) {
        dist[static_cast<std::size_t>(next)] = candidate;
        frontier.push({candidate, next});
      }
    }
  }
  return dist;
}

void check_train_conservation(CheckLog& log, const EmulatorStats& stats) {
  log.run<EmulatorStats>(
      "trains injected == delivered + dropped", stats,
      [](const EmulatorStats& s) {
        return s.trains_injected ==
               s.trains_delivered + s.trains_dropped + s.trains_dropped_fault +
                   s.trains_dropped_unreachable + s.trains_expired;
      },
      // One train injected that no counter accounts for.
      [](EmulatorStats& s) { s.trains_injected += 1; });
}

namespace {

struct Assignment {
  std::vector<int> node_engine;
  int engines = 0;
};

}  // namespace

void check_assignment(CheckLog& log, const std::vector<int>& node_engine,
                      int engines) {
  log.run<Assignment>(
      "mapping is a valid " + std::to_string(engines) +
          "-way assignment with no empty engine",
      Assignment{node_engine, engines},
      [](const Assignment& a) {
        std::vector<std::size_t> per_engine(
            static_cast<std::size_t>(a.engines), 0);
        for (const int engine : a.node_engine) {
          if (engine < 0 || engine >= a.engines) return false;
          ++per_engine[static_cast<std::size_t>(engine)];
        }
        return std::find(per_engine.begin(), per_engine.end(), 0u) ==
               per_engine.end();
      },
      // One node left unassigned.
      [](Assignment& a) { a.node_engine.front() = -1; });
}

void check_equal(CheckLog& log, const std::string& name, std::uint64_t a,
                 std::uint64_t b) {
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  log.run<Pair>(
      name, Pair{a, b}, [](const Pair& p) { return p.first == p.second; },
      // One bit of the second fingerprint flipped.
      [](Pair& p) { p.second ^= 1; });
}

namespace {

bool within_poisson_bound(double observed, double expected) {
  return std::abs(observed - expected) <= 5.0 * std::sqrt(expected);
}

/// Samples certainly below `floor_s`: those in buckets whose upper edge is
/// at or below it (bucket 0 is [0, 1 µs), bucket i >= 1 ends at 1 µs · 2^i).
std::uint64_t samples_below(const LatencyHistogram& histogram,
                            double floor_s) {
  std::uint64_t below = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const double upper = LatencyHistogram::kBaseSeconds * std::ldexp(1.0, i);
    if (upper > floor_s) break;
    below += histogram.bucket(i);
  }
  return below;
}

}  // namespace

void check_lb(CheckLog& log, const LbObservation& obs) {
  log.run<LbObservation>(
      "requests_sent within 5*sqrt(lambda*T) of lambda*T", obs,
      [](const LbObservation& o) {
        return within_poisson_bound(static_cast<double>(o.requests_sent),
                                    o.expected_requests);
      },
      // A tenth of the offered load missing (four of forty client hosts
      // silent).
      [](LbObservation& o) { o.requests_sent -= o.requests_sent / 10; });

  log.run<LbObservation>(
      "responses_received == requests_sent", obs,
      [](const LbObservation& o) {
        return o.responses_received == o.requests_sent;
      },
      // One response removed.
      [](LbObservation& o) { o.responses_received -= 1; });

  log.run<LbObservation>(
      "latency histogram count == responses_received", obs,
      [](const LbObservation& o) {
        return o.latency.count() == o.responses_received;
      },
      // One sample removed from the fullest bucket.
      [](LbObservation& o) {
        auto raw = o.latency.raw();
        auto fullest = std::max_element(raw.begin(), raw.end());
        if (*fullest > 0) *fullest -= 1;
        o.latency.set_raw(raw);
      });

  log.run<LbObservation>(
      "no latency below the client-LB-backend round-trip propagation delay",
      obs,
      [](const LbObservation& o) {
        return o.min_round_trip_s > 0 &&
               samples_below(o.latency, o.min_round_trip_s) == 0;
      },
      // One sample at half the propagation floor.
      [](LbObservation& o) { o.latency.record(o.min_round_trip_s / 2); });
}

void check_messages_delivered(CheckLog& log, const EmulatorStats& stats) {
  log.run<EmulatorStats>(
      "messages_delivered == messages_sent", stats,
      [](const EmulatorStats& s) {
        return s.messages_sent > 0 && s.messages_delivered == s.messages_sent;
      },
      // One message lost.
      [](EmulatorStats& s) { s.messages_delivered -= 1; });
}

void check_poisson_messages(CheckLog& log, std::uint64_t messages_sent,
                            double expected) {
  using Obs = std::pair<std::uint64_t, double>;
  log.run<Obs>(
      "messages_sent within 5*sqrt(lambda*T) of flows*duration/interval",
      Obs{messages_sent, expected},
      [](const Obs& o) {
        return within_poisson_bound(static_cast<double>(o.first), o.second);
      },
      // A tenth of the flows silent.
      [](Obs& o) { o.first -= o.first / 10; });
}

namespace {

struct TrafficPlan {
  std::vector<NodeId> injection_points;
  std::vector<massf::routing::Flow> background;
  double duration = 0;
};

TrafficPlan plan_of(const Network& network, const Workload& workload) {
  return {workload.injection_points(), workload.predicted_background(network),
          workload.duration()};
}

bool same_flows(const std::vector<massf::routing::Flow>& a,
                const std::vector<massf::routing::Flow>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const massf::routing::Flow& x,
                       const massf::routing::Flow& y) {
                      return x.src == y.src && x.dst == y.dst &&
                             x.volume == y.volume;
                    });
}

}  // namespace

void check_same_traffic_plan(CheckLog& log, const Network& network,
                             const Workload& profiled,
                             const Workload& measured) {
  using Plans = std::pair<TrafficPlan, TrafficPlan>;
  log.run<Plans>(
      "measured workload shares the profiled workload's placement",
      Plans{plan_of(network, profiled), plan_of(network, measured)},
      [](const Plans& p) {
        return !p.first.injection_points.empty() &&
               !p.first.background.empty() &&
               p.first.injection_points == p.second.injection_points &&
               same_flows(p.first.background, p.second.background) &&
               p.first.duration == p.second.duration;
      },
      // One HTTP client moved to its server's host.
      [](Plans& p) {
        massf::routing::Flow& flow = p.second.background.front();
        flow.dst = flow.src;
      });
}

namespace {

/// A routing view that answers like `base` except for one (node, dst)
/// query, whose next link is replaced: the negative case of the route walk.
class OneLinkSwapped final : public RoutingView {
 public:
  OneLinkSwapped(const Network& network, const RoutingView& base, NodeId at,
                 NodeId dst, LinkId replacement)
      : network_(network),
        base_(base),
        at_(at),
        dst_(dst),
        replacement_(replacement) {}

  NodeId node_count() const override { return base_.node_count(); }
  NodeId next_hop(NodeId src, NodeId dst) const override {
    if (src == at_ && dst == dst_)
      return network_.link_other_end(replacement_, src);
    return base_.next_hop(src, dst);
  }
  LinkId next_link(NodeId src, NodeId dst) const override {
    if (src == at_ && dst == dst_) return replacement_;
    return base_.next_link(src, dst);
  }
  std::size_t memory_bytes() const override { return base_.memory_bytes(); }

 private:
  const Network& network_;
  const RoutingView& base_;
  NodeId at_;
  NodeId dst_;
  LinkId replacement_;
};

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

struct RouteObservation {
  const Network* network = nullptr;
  const RoutingView* routes = nullptr;
  std::shared_ptr<const RoutingView> swapped;  // owns the negative case
  Pairs pairs;
  std::vector<double> dijkstra;  // one per pair
};

/// Latency of the path found by following next_link from src to dst, or -1
/// when the walk dead-ends or revisits more nodes than the network has.
double walk_latency(const Network& network, const RoutingView& routes,
                    NodeId src, NodeId dst) {
  double latency = 0;
  NodeId at = src;
  for (NodeId steps = 0; at != dst; ++steps) {
    if (steps > network.node_count()) return -1;
    const LinkId link = routes.next_link(at, dst);
    if (link < 0) return -1;
    latency += network.link(link).latency_s;
    at = network.link_other_end(link, at);
  }
  return latency;
}

bool routes_match(const RouteObservation& o) {
  const RoutingView& routes = o.swapped ? *o.swapped : *o.routes;
  for (std::size_t i = 0; i < o.pairs.size(); ++i) {
    const double walked =
        walk_latency(*o.network, routes, o.pairs[i].first, o.pairs[i].second);
    if (walked < 0 ||
        std::abs(walked - o.dijkstra[i]) > 1e-12 * std::max(o.dijkstra[i], 1.0))
      return false;
  }
  return true;
}

/// Swap the next link at the first node of the first pair's path that has
/// another link to offer.
void swap_one_next_link(RouteObservation& o) {
  const auto [src, dst] = o.pairs.front();
  for (NodeId at = src; at != dst;) {
    const LinkId right = o.routes->next_link(at, dst);
    for (const LinkId other : o.network->incident_links(at)) {
      if (other == right) continue;
      o.swapped = std::make_shared<OneLinkSwapped>(*o.network, *o.routes, at,
                                                   dst, other);
      return;
    }
    at = o.network->link_other_end(right, at);
  }
}

}  // namespace

void check_routes(CheckLog& log, const Network& network,
                  const RoutingView& routes, const Pairs& pairs) {
  RouteObservation obs;
  obs.network = &network;
  obs.routes = &routes;
  obs.pairs = pairs;
  NodeId last_src = -1;
  std::vector<double> dist;
  for (const auto& [src, dst] : pairs) {
    if (src != last_src) dist = shortest_latencies(network, src);
    last_src = src;
    obs.dijkstra.push_back(dist[static_cast<std::size_t>(dst)]);
  }
  log.run<RouteObservation>(
      "next_link walks reach the destination at the Dijkstra distance", obs,
      routes_match, swap_one_next_link);
}

}  // namespace perfbench
