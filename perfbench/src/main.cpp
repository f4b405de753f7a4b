// perfbench: the repo benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (measured run): one cold set-up from process start to a ready
// mapping (setup_s), then whole Experiment::run rounds until --seconds have
// passed (run_s is their median), then peak RSS and the modeled emulation
// time. Every round's outputs are checked.
//
// --trace 1 (traced run): the same set-up with spans around each layer's
// public entry point, one Experiment::run as the untraced reference, then
// the same run rebuilt by hand (Emulator construction, Workload::install,
// Emulator::run) under spans, which must replay the reference's
// history_hash. It reports the layers' times and counters, the tracing
// overhead, and how much of the outer stopwatch the spans cover.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. attempted and failed count the
// program's own operations over every round: requests sent and requests
// left without a response on the LB scenario, application messages sent
// and messages not delivered elsewhere. Details (round times, hashes, check
// failures) and the span list go to files under .bench_out/ in the working
// directory.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "checks.hpp"
#include "des/kernel.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace des = massf::des;
namespace emu = massf::emu;

struct Args {
  Kind kind = Kind::LbProfileThreaded;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

constexpr const char* kOutDir = ".bench_out";

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  CheckLog checks;
  /// Operations over every round, and those among them that failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Extra facts for the details file.
  std::vector<double> round_s;
  std::uint64_t history_hash = 0;
  double modeled_emulation_s = 0;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <lb-profile-threaded|"
               "paper-teragrid-scalapack|hier-300k-cbr> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto kind = parse_workload(value);
        if (!kind) usage("unknown workload '" + value + "'");
        args.kind = *kind;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

std::string json_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::uint64_t total_events(const des::KernelStats& stats) {
  std::uint64_t events = 0;
  for (const std::uint64_t e : stats.events_per_lp) events += e;
  return events;
}

/// Checks every round's outputs must pass, per workload.
void check_run(CheckLog& log, const Bench& b, const mapping::RunMetrics& m) {
  check_train_conservation(log, m.emulator_stats);
  switch (b.kind) {
    case Kind::LbProfileThreaded: {
      LbObservation obs;
      const massf::app::ClientCounters clients = b.lb_workload->client_totals();
      obs.requests_sent = clients.requests_sent;
      obs.responses_received = clients.responses_received;
      if (m.latency.size() == 1) obs.latency = m.latency.front().total;
      obs.expected_requests = b.expected_requests;
      obs.min_round_trip_s = b.min_round_trip_s;
      check_lb(log, obs);
      break;
    }
    case Kind::TeragridScalapack:
      check_messages_delivered(log, m.emulator_stats);
      break;
    case Kind::Hier300kCbr:
      check_poisson_messages(log, m.emulator_stats.messages_sent,
                             b.expected_messages);
      break;
  }
}

/// Adds one round's operations to `out`: the LB scenario's requests, with
/// those left without a response as failed; every other workload's
/// application messages, with those not delivered as failed.
void count_operations(Outcome& out, const Bench& b,
                      const mapping::RunMetrics& m) {
  std::uint64_t sent = m.emulator_stats.messages_sent;
  std::uint64_t done = m.emulator_stats.messages_delivered;
  if (b.kind == Kind::LbProfileThreaded) {
    const massf::app::ClientCounters clients = b.lb_workload->client_totals();
    sent = clients.requests_sent;
    done = clients.responses_received;
  }
  out.attempted += sent;
  out.failed += sent - std::min(sent, done);
}

/// Checks on the mapped inputs, before any round runs.
void check_inputs(CheckLog& log, const Bench& b,
                  const mapping::MappingResult& mapped) {
  check_assignment(log, mapped.node_engine, mapped.engines);
  if (b.profiled_workload)
    check_same_traffic_plan(log, *b.network, *b.profiled_workload,
                            *b.workload);
}

/// hier-300k-cbr's route check on seeded host pairs: 4 sources × 8
/// destinations, grouped by source so each source needs one Dijkstra.
void check_sampled_routes(CheckLog& log, const Bench& b) {
  const std::vector<topology::NodeId> hosts = b.network->hosts();
  massf::Rng rng(massf::mix_seed(b.seed, 0x726f757465ULL));
  std::vector<std::pair<topology::NodeId, topology::NodeId>> pairs;
  for (int s = 0; s < 4; ++s) {
    const topology::NodeId src = hosts[rng.next_below(hosts.size())];
    for (int d = 0; d < 8;) {
      const topology::NodeId dst = hosts[rng.next_below(hosts.size())];
      if (dst == src) continue;
      pairs.emplace_back(src, dst);
      ++d;
    }
  }
  check_routes(log, *b.network, *b.routes, pairs);
}

// ---- Bare kernel: the same LP and event counts with empty handlers ---------

/// Each LP runs 256 self-rescheduling event chains with 1–16 µs gaps until
/// it has executed exactly its target count; handlers do nothing else.
class ChainSink final : public des::EventSink {
 public:
  ChainSink(des::Kernel& kernel, std::vector<std::uint64_t> remaining)
      : kernel_(kernel), remaining_(std::move(remaining)) {}

  void on_packet_event(const des::PacketEvent& event) override {
    std::uint64_t& left = remaining_[static_cast<std::size_t>(event.node)];
    if (left == 0) return;
    --left;
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const double gap = 1e-6 * static_cast<double>(1 + (state_ >> 60));
    kernel_.schedule_packet(event.node, kernel_.now() + gap, event);
  }

 private:
  des::Kernel& kernel_;
  std::vector<std::uint64_t> remaining_;
  std::uint64_t state_ = 0x853c49e6748fea9bULL;
};

/// Events per second of a bare sequential kernel executing `events_per_lp`.
/// Executing any other number of events fails a check.
double bare_events_per_s(const std::vector<std::uint64_t>& events_per_lp,
                         double lookahead, CheckLog& log) {
  constexpr std::uint64_t kChains = 256;
  const int lps = static_cast<int>(events_per_lp.size());
  des::Kernel kernel(lps, lookahead);
  std::vector<std::uint64_t> remaining;
  for (const std::uint64_t target : events_per_lp)
    remaining.push_back(target - std::min(target, kChains));
  ChainSink sink(kernel, std::move(remaining));
  kernel.set_event_sink(&sink);
  for (int lp = 0; lp < lps; ++lp) {
    const std::uint64_t chains =
        std::min(events_per_lp[static_cast<std::size_t>(lp)], kChains);
    for (std::uint64_t c = 0; c < chains; ++c)
      kernel.schedule_packet(lp, 1e-6 * static_cast<double>(c), {nullptr, lp});
  }
  const auto start = Clock::now();
  kernel.run_until(1e12, des::ExecutionMode::Sequential);
  const double elapsed = seconds_between(start, Clock::now());
  const std::uint64_t executed = total_events(kernel.stats());
  std::uint64_t wanted = 0;
  for (const std::uint64_t e : events_per_lp) wanted += e;
  check_equal(log, "bare kernel executed the emulator's event count", wanted,
              executed);
  return static_cast<double>(executed) / elapsed;
}

// ---- Measured run -----------------------------------------------------------

Outcome measured_run(const Args& args, Clock::time_point origin) {
  Outcome out;
  Spans off(false, origin);
  std::unique_ptr<Bench> b = prepare(args.kind, args.seed, off);
  const mapping::MappingResult mapped = b->experiment->map(b->approach);
  const double setup_s = seconds_between(origin, Clock::now());

  check_inputs(out.checks, *b, mapped);
  mapping::RunMetrics first;
  const auto start = Clock::now();
  do {
    const auto round_start = Clock::now();
    const mapping::RunMetrics m = b->experiment->run(mapped);
    out.round_s.push_back(seconds_between(round_start, Clock::now()));
    count_operations(out, *b, m);
    check_run(out.checks, *b, m);
    if (out.round_s.size() == 1) {
      first = m;
    } else {
      check_equal(out.checks, "history_hash repeats across rounds",
                  first.history_hash, m.history_hash);
      check_equal(out.checks, "modeled emulation time repeats across rounds",
                  bits_of(first.emulation_time), bits_of(m.emulation_time));
    }
  } while (seconds_between(start, Clock::now()) < args.seconds);
  if (b->kind == Kind::Hier300kCbr) check_sampled_routes(out.checks, *b);

  out.history_hash = first.history_hash;
  out.modeled_emulation_s = first.emulation_time;
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"run_s", median(out.round_s), "s"},
      {"peak_rss_mb",
       static_cast<double>(massf::bench::peak_rss_bytes()) / 1e6, "MB"},
      {"modeled_emulation_s", first.emulation_time, "modeled_s"},
  };
  return out;
}

// ---- Traced run -------------------------------------------------------------

Outcome traced_run(const Args& args, Clock::time_point origin, Spans& spans) {
  Outcome out;
  std::vector<Metric>& m = out.metrics;
  CheckLog& log = out.checks;
  {
    std::unique_ptr<Bench> b = prepare(args.kind, args.seed, spans);
    mapping::Experiment& experiment = *b->experiment;
    mapping::MappingResult mapped;
    {
      auto span = spans.open("core.map_top");
      mapped = experiment.map(mapping::Approach::Top);
    }
    // PROFILE runs only where the workload maps with it: on the 3x10^5-node
    // hierarchy map(Profile) does not finish within the run's time limit.
    if (b->approach == mapping::Approach::Profile) {
      auto span = spans.open("core.profile");
      mapped = experiment.map(mapping::Approach::Profile);
    }
    check_inputs(log, *b, mapped);

    // The untraced reference: Experiment::run as the measured run calls it.
    mapping::RunMetrics reference;
    {
      auto span = spans.open("core.experiment_run");
      reference = experiment.run(mapped);
    }
    const double untraced_s = spans.total("core.experiment_run");
    count_operations(out, *b, reference);
    check_run(log, *b, reference);

    // The same run, rebuilt by hand so each layer's entry point is spanned.
    const mapping::ExperimentSetup& setup = experiment.setup();
    std::unique_ptr<emu::Emulator> emulator;
    {
      auto span = spans.open("emu.construct");
      emulator = std::make_unique<emu::Emulator>(
          *setup.network, *setup.routes, mapped.node_engine, setup.engines,
          setup.emulator);
      emulator->set_fault_timeline(setup.faults);
    }
    {
      auto span = spans.open("traffic.install");
      setup.workload->install(*emulator);
    }
    {
      auto span = spans.open("des.run");
      emulator->run(b->horizon, setup.mode);
    }
    const des::KernelStats ks = emulator->kernel_stats();
    const emu::EmulatorStats es = emulator->stats();
    const std::vector<emu::EpochStats> epochs = emulator->epoch_stats();
    const std::vector<emu::LatencySummary> latency =
        emulator->latency_summaries();
    const double lookahead = emulator->lookahead();
    const std::size_t pool_slots = emulator->packet_pool_size();
    {
      auto span = spans.open("emu.destroy");
      emulator.reset();
    }
    const double traced_s = spans.total("emu.construct") +
                            spans.total("traffic.install") +
                            spans.total("des.run") + spans.total("emu.destroy");
    check_equal(log, "hand-built run replays Experiment::run's history",
                reference.history_hash, ks.history_hash);

    massf::app::ClientCounters clients;
    if (b->kind == Kind::LbProfileThreaded) {
      clients = b->lb_workload->client_totals();
      auto span = spans.open("des.run_sequential");
      emu::Emulator sequential(*setup.network, *setup.routes,
                               mapped.node_engine, setup.engines,
                               setup.emulator);
      sequential.set_fault_timeline(setup.faults);
      setup.workload->install(sequential);
      sequential.run(b->horizon, des::ExecutionMode::Sequential);
      check_equal(log, "threaded and sequential runs share one history_hash",
                  ks.history_hash, sequential.kernel_stats().history_hash);
    }
    double bare = 0;
    {
      auto span = spans.open("des.bare_kernel");
      bare = bare_events_per_s(ks.events_per_lp, lookahead, log);
    }
    if (b->kind == Kind::Hier300kCbr) {
      auto span = spans.open("check.routes");
      check_sampled_routes(log, *b);
    }

    const double events = static_cast<double>(total_events(ks));
    const double run_s = spans.total("des.run");
    const double events_per_s = events / run_s;
    std::uint64_t dropped_fault = 0;
    for (const emu::EpochStats& e : epochs)
      dropped_fault += e.trains_dropped_fault;
    const massf::LatencyHistogram& hist =
        latency.empty() ? massf::LatencyHistogram() : latency.front().total;
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    m = {
        {"topology.build_s", spans.total("topology.build"), "s"},
        {"routing.build_s", spans.total("routing.build"), "s"},
        {"routing.memory_mb", u(b->routes->memory_bytes()) / 1e6, "MB"},
        {"traffic.generate_s", spans.total("traffic.generate"), "s"},
        {"core.experiment_s", spans.total("core.experiment"), "s"},
        {"core.map_top_s", spans.total("core.map_top"), "s"},
        {"core.profile_s", spans.total("core.profile"), "s"},
        {"core.links_cut", mapped.links_cut, "count"},
        {"core.remote_messages", u(reference.remote_messages), "count"},
        {"core.load_imbalance", reference.load_imbalance, "ratio"},
        {"emu.construct_s", spans.total("emu.construct"), "s"},
        {"traffic.install_s", spans.total("traffic.install"), "s"},
        {"des.run_s", run_s, "s"},
        {"des.events", events, "count"},
        {"des.events_per_s", events_per_s, "1/s"},
        {"des.bare_events_per_s", bare, "1/s"},
        {"emu.hop_overhead", bare / events_per_s, "ratio"},
        {"des.windows", u(ks.windows), "count"},
        {"des.parks", u(ks.parks), "count"},
        {"des.handoff_runs", u(ks.handoff_runs), "count"},
        {"emu.trains_delivered", u(es.trains_delivered), "count"},
        {"emu.pool_slots", u(pool_slots), "count"},
        {"emu.events_per_train",
         events / u(std::max<std::uint64_t>(es.trains_injected, 1)), "ratio"},
        {"emu.retransmissions", u(es.retransmissions), "count"},
        {"emu.duplicate_deliveries", u(es.duplicate_deliveries), "count"},
        {"fault.epochs", u(epochs.size()), "count"},
        {"fault.trains_dropped_fault", u(dropped_fault), "count"},
        {"app.requests_sent", u(clients.requests_sent), "count"},
        {"app.responses_received", u(clients.responses_received), "count"},
        {"app.latency_p50_ms", hist.quantile(0.50) * 1e3, "sim_ms"},
        {"app.latency_p99_ms", hist.quantile(0.99) * 1e3, "sim_ms"},
        {"trace.overhead_s", traced_s - untraced_s, "s"},
    };
    out.history_hash = reference.history_hash;
    out.modeled_emulation_s = reference.emulation_time;
    auto span = spans.open("teardown");
    b.reset();
  }
  const double outer_s = seconds_between(origin, Clock::now());
  const double coverage = spans.top_level_total() / outer_s;
  m.push_back({"trace.coverage", coverage, "ratio"});
  using Cover = std::pair<double, double>;
  log.run<Cover>(
      "spans cover >= 95% of the outer stopwatch", Cover{coverage, outer_s},
      [](const Cover& c) { return c.first >= 0.95; },
      // The longest top-level span missing.
      [&spans](Cover& c) {
        double longest = 0;
        for (const Span& s : spans.spans())
          if (s.parent < 0) longest = std::max(longest, s.duration());
        c.first -= longest / c.second;
      });
  return out;
}

void write_files(const Args& args, const Outcome& out, const Spans& spans) {
  namespace fs = std::filesystem;
  std::error_code error;
  fs::create_directories(kOutDir, error);
  if (error) {
    std::cerr << "perfbench: cannot create " << kOutDir << ": "
              << error.message() << "\n";
    return;
  }
  const std::string stem = std::string(workload_name(args.kind)) + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::ofstream details(fs::path(kOutDir) / ("result-" + stem + ".json"));
  details << "{\"workload\": " << json_string(workload_name(args.kind))
          << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
          << ", \"rounds_s\": [";
  for (std::size_t i = 0; i < out.round_s.size(); ++i)
    details << (i ? ", " : "") << json_number(out.round_s[i]);
  std::ostringstream hash;
  hash << std::hex << out.history_hash;
  details << "], \"history_hash\": \"" << hash.str()
          << "\", \"modeled_emulation_s\": "
          << json_number(out.modeled_emulation_s)
          << ", \"checks\": " << out.checks.checks() << ", \"failures\": [";
  for (std::size_t i = 0; i < out.checks.failures().size(); ++i)
    details << (i ? ", " : "") << json_string(out.checks.failures()[i]);
  details << "]}\n";

  if (!args.trace) return;
  std::ofstream file(fs::path(kOutDir) / ("spans-" + stem + ".json"));
  file << "[\n";
  const std::vector<Span>& list = spans.spans();
  for (std::size_t i = 0; i < list.size(); ++i)
    file << "  {\"id\": " << i << ", \"name\": " << json_string(list[i].name)
         << ", \"start_s\": " << json_number(list[i].start_s)
         << ", \"end_s\": " << json_number(list[i].end_s)
         << ", \"parent\": " << list[i].parent << "}"
         << (i + 1 < list.size() ? ",\n" : "\n");
  file << "]\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point origin = Clock::now();
  const Args args = parse_args(argc, argv);
  Spans spans(args.trace, origin);
  Outcome out;
  try {
    out = args.trace ? traced_run(args, origin, spans)
                     : measured_run(args, origin);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << workload_name(args.kind)
              << " failed: " << error.what() << "\n";
    return 1;
  }
  for (const Metric& metric : out.metrics)
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: metric " << metric.name << " is not finite\n";
      return 1;
    }
  for (const std::string& failure : out.checks.failures())
    std::cerr << "perfbench: check failed: " << failure << "\n";
  write_files(args, out, spans);

  std::ostringstream line;
  line << "{\"correct\": " << (out.checks.passed() ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    line << (i ? ", " : "") << json_string(out.metrics[i].name)
         << ": {\"value\": " << json_number(out.metrics[i].value)
         << ", \"unit\": " << json_string(out.metrics[i].unit) << "}";
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
