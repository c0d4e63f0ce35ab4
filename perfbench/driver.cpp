// perfbench driver: runs one benchmark workload through the public API and
// prints its raw results as one JSON object on the last line of stdout.
// perfbench/run.py builds this file, runs it, compares the deterministic
// counts against perfbench/pins.json and prints the benchmark's result.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--tamper-log]
//
// --tamper-log corrupts one committed KV log entry before the history
// check, which must then fail (perfbench/test_perfbench.py uses it).
//
// Workloads (why each was chosen: perfbench/README.md):
//   ears-n600    make_gossip_engine + run_gossip, EARS n=600 f=150 d=4 δ=2
//   tears-n2000  the same for TEARS n=2000 f=500 d=4 δ=2
//   kv-paced     open loop at 2000 req/s into svc::KvService (cr-tears, n=8)
//   kv-burst     a burst of put requests queued behind a busy commit thread
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// workload untraced for half the time, then traced for the other half, and
// reports the per-layer split; tracing times calls into each layer from
// this file, plus the engine's existing flight-recorder zones.
//
// Threads: one for gossip (two while tracing: the ring drainer); the
// generator and the service's commit thread for KV, both on one CPU.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "consensus/cr_gossip.h"
#include "gossip/completion.h"
#include "gossip/harness.h"
#include "svc/history.h"
#include "svc/kv.h"
#include "svc/loadgen.h"
#include "svc/service.h"

namespace {

using namespace asyncgossip;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Threads of this process right now (Linux /proc).
int os_threads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  std::fclose(f);
  return threads;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Everything one invocation reports; serialized by print().
struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> counts;  // exact values
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::uint64_t>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void count(const std::string& name, std::uint64_t value) {
    counts.push_back({name, std::to_string(value)});
  }
  /// Prints 0 for per-layer metrics of a layer this workload does not
  /// exercise, so every declared name is printed on every workload.
  void not_exercised(
      std::initializer_list<std::pair<const char*, const char*>> names) {
    for (const auto& [name, unit] : names) metric(name, 0.0, unit);
  }
  void check(const std::string& name, bool ok) {
    checks.push_back({name, ok});
    if (!ok) std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
  }

  void print(const std::string& workload, std::uint64_t seed, int trace) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"trace\": " << trace << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"machine\": {\"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\"}, \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, vu] : metrics) {
      os << sep << '"' << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
      sep = ", ";
    }
    os << "}, \"counts\": {";
    sep = "";
    for (const auto& [name, v] : counts) {
      os << sep << '"' << name << "\": \"" << v << '"';
      sep = ", ";
    }
    os << "}, \"checks\": {";
    sep = "";
    for (const auto& [name, ok] : checks) {
      os << sep << '"' << name << "\": " << (ok ? "true" : "false");
      sep = ", ";
    }
    os << "}, \"samples\": {";
    sep = "";
    for (const auto& [name, n] : samples) {
      os << sep << '"' << name << "\": " << n;
      sep = ", ";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
  }
};

// --------------------------------------------------------------------------
// Gossip workloads
// --------------------------------------------------------------------------

GossipSpec gossip_spec(const std::string& workload, std::uint64_t seed) {
  GossipSpec spec;
  if (workload == "ears-n600") {
    spec.algorithm = GossipAlgorithm::kEars;
    spec.n = 600;
    spec.f = 150;
  } else {
    spec.algorithm = GossipAlgorithm::kTears;
    spec.n = 2000;
    spec.f = 500;
  }
  // The shape of `gossiplab gossip --d 4 --delta 2`.
  spec.d = 4;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.delay = DelayPattern::kUniform;
  spec.tears_a_constant = 1.0;
  spec.tears_kappa_constant = 1.0;
  spec.seed = seed;
  spec.engine_jobs = 1;  // sharded stepping is not measured
  return spec;
}

/// Consumes the engine's flight ring on its own thread while the run
/// produces: zone durations are summed per zone, send records counted.
class RingDrainer {
 public:
  explicit RingDrainer(FlightRing* ring)
      : ring_(ring), thread_([this] { loop(); }) {}
  ~RingDrainer() { finish(); }

  void finish() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  double zone_s(FlightZoneId id) const {
    return static_cast<double>(zone_ns_[static_cast<std::size_t>(id)]) * 1e-9;
  }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t dropped() const { return ring_->dropped(); }

 private:
  void loop() {
    FlightRecord r;
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      bool any = false;
      while (ring_->pop(&r)) {
        any = true;
        if (r.kind == static_cast<std::uint64_t>(FlightKind::kZone)) {
          if (r.a < kFlightZoneCount) zone_ns_[r.a] += r.extra;
        } else if (r.kind == static_cast<std::uint64_t>(FlightKind::kSend)) {
          ++sends_;
        }
      }
      if (stopping) return;  // drained after the producer stopped
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  FlightRing* ring_;
  std::atomic<bool> stop_{false};
  std::uint64_t zone_ns_[kFlightZoneCount] = {};
  std::uint64_t sends_ = 0;
  std::thread thread_;
};

struct GossipRep {
  double setup_s = 0;
  double run_s = 0;
  GossipOutcome outcome;
  std::uint64_t hash = 0;
  std::uint64_t global_steps = 0;
  std::uint64_t process_steps = 0;
  ArenaStats arena;
  int threads = 0;  // while the engine is alive, after the run
  // Traced reps only.
  double step_s = 0, drain_s = 0, kway_s = 0;
  std::uint64_t ring_sends = 0, ring_dropped = 0;
};

GossipRep gossip_rep(const GossipSpec& spec, bool traced) {
  GossipRep rep;
  const auto t0 = Clock::now();
  Engine engine = make_gossip_engine(spec);
  rep.setup_s = seconds_since(t0);
  std::unique_ptr<FlightRing> ring;
  std::unique_ptr<RingDrainer> drainer;
  if (traced) {
    ring = std::make_unique<FlightRing>(std::size_t{1} << 18);
    drainer = std::make_unique<RingDrainer>(ring.get());
    engine.set_flight_ring(ring.get());
  }
  const auto t1 = Clock::now();
  rep.outcome = run_gossip(engine, default_step_budget(spec));
  rep.run_s = seconds_since(t1);
  rep.hash = engine.trace_hash();
  rep.global_steps = engine.now();
  rep.process_steps = engine.metrics().local_steps();
  rep.arena = engine.arena_stats();
  rep.threads = os_threads();
  if (traced) {
    drainer->finish();
    rep.step_s = drainer->zone_s(FlightZoneId::kStepDispatch);
    rep.drain_s = drainer->zone_s(FlightZoneId::kWheelDrain);
    rep.kway_s = drainer->zone_s(FlightZoneId::kKwayMerge);
    rep.ring_sends = drainer->sends();
    rep.ring_dropped = drainer->dropped();
  }
  return rep;
}

/// Extra `make_gossip_engine` timings taken before each untraced rep.
constexpr int kSetupsPerRep = 3;

/// Runs reps of the spec until `seconds` are used (at least `min_reps`).
/// With `setups`, also times set-up before each rep. The host's speed
/// drifts over seconds, so samples spread over the pass give a steadier
/// median than a burst of them at its start.
std::vector<GossipRep> gossip_pass(const GossipSpec& spec, double seconds,
                                   bool traced, std::size_t min_reps,
                                   std::vector<double>* setups) {
  std::vector<GossipRep> reps;
  const auto t0 = Clock::now();
  for (;;) {
    for (int i = 0; setups != nullptr && i < kSetupsPerRep; ++i) {
      const auto s0 = Clock::now();
      const Engine engine = make_gossip_engine(spec);
      setups->push_back(seconds_since(s0));
    }
    reps.push_back(gossip_rep(spec, traced));
    if (setups != nullptr) setups->push_back(reps.back().setup_s);
    const double used = seconds_since(t0);
    const double per_rep = used / static_cast<double>(reps.size());
    if (reps.size() >= min_reps && used + per_rep > seconds) break;
  }
  return reps;
}

bool gossip_rep_ok(const GossipSpec& spec, const GossipRep& rep,
                   std::uint64_t want_hash) {
  const bool post = spec.algorithm == GossipAlgorithm::kEars
                        ? rep.outcome.gathering_ok
                        : rep.outcome.majority_ok;
  return rep.outcome.completed && post && rep.hash == want_hash;
}

/// The rep whose run time is the median (lower median for even counts).
const GossipRep& median_rep(const std::vector<GossipRep>& reps) {
  std::vector<std::size_t> idx(reps.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return reps[a].run_s < reps[b].run_s;
  });
  return reps[idx[(idx.size() - 1) / 2]];
}

void run_gossip_workload(const std::string& workload, std::uint64_t seed,
                         double seconds, bool trace, Result* res) {
  const GossipSpec spec = gossip_spec(workload, seed);
  const double pass_s = trace ? seconds / 2 : seconds;
  std::vector<double> setups;
  const std::vector<GossipRep> reps =
      gossip_pass(spec, pass_s, false, 2, &setups);
  std::vector<double> runs;
  for (const GossipRep& r : reps) runs.push_back(r.run_s);
  const GossipRep& first = reps.front();
  std::uint64_t failed = 0;
  bool one_thread = true;
  for (const GossipRep& r : reps) {
    if (!gossip_rep_ok(spec, r, first.hash)) ++failed;
    one_thread = one_thread && r.threads == 1;
  }
  res->check("postcondition_and_hash_every_rep", failed == 0);
  res->check("one_thread", one_thread);
  res->count("trace_hash", first.hash);
  res->count("messages", first.outcome.messages);
  res->count("bytes", first.outcome.bytes);
  res->count("global_steps", first.global_steps);
  res->count("process_steps", first.process_steps);
  res->count("slab_allocs", first.arena.slab_allocations);
  res->count("payload_pool_peak", first.arena.payload_pool_peak);
  res->attempted = reps.size();
  res->failed = failed;
  const double run_s = median(runs);

  if (!trace) {
    res->metric("run_s", run_s, "s");
    res->metric("setup_s", median(setups), "s");
    res->metric("peak_rss_mb", peak_rss_mb(), "MB");
    res->metric("ops_per_s",
                static_cast<double>(first.outcome.messages) / run_s, "1/s");
    res->metric("lat_p50_ms", 1e3 * run_s, "ms");
    res->samples.push_back({"lat_p50_ms", runs.size()});
    return;
  }

  const std::vector<GossipRep> traced =
      gossip_pass(spec, pass_s, true, 1, nullptr);
  std::uint64_t traced_failed = 0;
  for (const GossipRep& r : traced)
    if (!gossip_rep_ok(spec, r, first.hash) || r.threads != 2 ||
        r.ring_sends != r.outcome.messages || r.ring_dropped != 0)
      ++traced_failed;
  res->check("traced_hash_equals_untraced_and_ring_complete",
             traced_failed == 0);
  res->attempted += traced.size();
  res->failed += traced_failed;
  const GossipRep& m = median_rep(traced);
  const double msgs = static_cast<double>(m.outcome.messages);
  res->metric("gossip.step_s", m.step_s, "s");
  res->metric("gossip.step_share", m.step_s / m.run_s, "ratio");
  res->metric("gossip.msgs", msgs, "count");
  res->metric("gossip.bytes", static_cast<double>(m.outcome.bytes), "B");
  res->metric("gossip.bytes_per_msg",
              static_cast<double>(m.outcome.bytes) / msgs, "B");
  res->metric("sim.drain_s", m.drain_s, "s");
  res->metric("sim.kway_merge_s", m.kway_s, "s");
  res->metric("sim.other_s", m.run_s - m.step_s - m.drain_s, "s");
  res->metric("sim.global_steps", static_cast<double>(m.global_steps), "count");
  res->metric("sim.process_steps", static_cast<double>(m.process_steps),
              "count");
  res->metric("sim.slab_allocs", static_cast<double>(m.arena.slab_allocations),
              "count");
  res->metric("sim.payload_pool_peak",
              static_cast<double>(m.arena.payload_pool_peak), "count");
  res->metric("trace.run_s", m.run_s, "s");
  res->metric("trace.dropped", static_cast<double>(m.ring_dropped), "count");
  res->metric("trace.overhead", m.run_s / run_s, "ratio");
  res->not_exercised({{"consensus.slots", "count"},
                      {"consensus.slot_us_p50", "us"},
                      {"consensus.slot_us_p99", "us"},
                      {"consensus.busy_s", "s"},
                      {"consensus.busy_share", "ratio"},
                      {"consensus.ticks_per_slot", "ticks"},
                      {"consensus.msgs_per_op", "count"},
                      {"consensus.bytes_per_op", "B"},
                      {"svc.ops_per_batch", "count"},
                      {"svc.max_batch", "count"},
                      {"svc.submit_us_p50", "us"},
                      {"svc.self_s", "s"},
                      {"svc.apply_us_per_op", "us"},
                      {"load.late_ms_p99", "ms"},
                      {"load.lat_p99_ms", "ms"},
                      {"load.lat_max_ms", "ms"},
                      {"load.samples", "count"}});
}

// --------------------------------------------------------------------------
// KV workloads
// --------------------------------------------------------------------------

constexpr double kPacedRate = 2000.0;  // requests per second
constexpr std::size_t kBurstRequests = 100000;
constexpr std::size_t kBatchLimit = 512;

svc::KvServiceConfig kv_config(std::uint64_t seed, std::ostream* log) {
  svc::KvServiceConfig cfg;
  cfg.group.n = 8;
  cfg.group.f = 3;
  cfg.group.algorithm = GossipAlgorithm::kCrTears;
  cfg.group.d = 2;
  cfg.group.delta = 2;
  cfg.group.seed = seed;
  cfg.batch_limit = kBatchLimit;
  cfg.log_out = log;
  return cfg;
}

svc::LoadgenConfig load_config(bool burst, std::uint64_t seed) {
  svc::LoadgenConfig lc;
  lc.seed = seed;
  if (burst) {
    lc.value_bytes = 128;
    lc.get_fraction = 0.0;
    lc.cas_fraction = 0.0;
  }
  return lc;  // paced: the default 40/10/50 get/cas/put mix, 16 B values
}

/// One KV run: requests issued by this thread on the schedule, answered on
/// the service's commit thread. Times are nanoseconds from the run's start.
struct KvRun {
  std::vector<svc::Command> cmds;
  std::vector<svc::CommandResult> results;
  std::vector<std::int64_t> due_ns, submit_ns, submit_cost_ns, done_ns;
  std::vector<std::uint8_t> answered;
  std::string log_text;
  svc::KvServiceStats stats;
  int threads = 0;  // generator + commit thread, sampled before stop()
  double window_s = 0;  // first due time -> last callback
};

/// Pins this thread, and so every thread it starts later (the commit
/// thread), to the last CPU it may run on. With wait_until, the generator
/// and the commit thread then hand that CPU to each other, and it never
/// idles: a request's latency is its slot's work, not the wake-up of an
/// idle CPU, whose cost varies with the host's other load.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/// Spins until `t`, yielding the CPU to the commit thread whenever it has
/// work. Sleeping instead lets the CPU idle, and a timer wake-up on an idle
/// CPU of a shared host sometimes came several milliseconds late.
void wait_until(Clock::time_point t) {
  while (Clock::now() < t) sched_yield();
}

// Set-up samples are spread over the run (see gossip_pass): before each
// burst, and 300 us before every kSetupEvery-th paced due time, when the
// commit thread has finished the previous request's slot and is idle.
constexpr int kSetupsPerBurst = 16;
constexpr std::size_t kSetupEvery = 100;

/// One timed set-up: consensus registration + KvService construction,
/// mostly starting the commit thread. It takes ~20 us back to back (burst)
/// and ~110 us alone after an idle gap (paced), so each workload's median
/// needs many samples of its own kind.
double kv_setup_s(std::uint64_t seed) {
  const auto t0 = Clock::now();
  register_consensus_algorithms();
  const svc::KvService service(kv_config(seed, nullptr));
  return seconds_since(t0);
}

/// With `setups`, also times set-up during the run.
KvRun kv_run(bool burst, std::uint64_t seed, std::size_t requests,
             bool time_submits, std::vector<double>* setups) {
  KvRun run;
  for (int i = 0; burst && setups != nullptr && i < kSetupsPerBurst; ++i)
    setups->push_back(kv_setup_s(seed));
  const svc::LoadgenConfig lc = load_config(burst, seed);
  run.cmds.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i)
    run.cmds.push_back(svc::loadgen_command(lc, i));
  run.results.resize(requests);
  run.due_ns.resize(requests);
  run.submit_ns.resize(requests);
  run.submit_cost_ns.resize(requests);
  run.done_ns.assign(requests, 0);
  run.answered.assign(requests, 0);

  std::ostringstream log;
  svc::KvService service(kv_config(seed, &log));

  // The burst's first request holds the commit thread until every other
  // request is queued, so each later batch is full and the slot count is
  // exact: 1 + ceil((requests - 1) / batch_limit).
  std::atomic<bool> gate_entered{false}, gate_open{false};
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto ns_since_start = [start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  };
  for (std::size_t i = 0; i < requests; ++i) {
    const std::int64_t due =
        burst ? 0
              : static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                          kPacedRate);
    run.due_ns[i] = due;
    // Request 0 has no gap before it, hence == 1.
    if (!burst && setups != nullptr && i % kSetupEvery == 1) {
      wait_until(start + std::chrono::nanoseconds(due - 300000));
      setups->push_back(kv_setup_s(seed));
    }
    wait_until(start + std::chrono::nanoseconds(due));
    const bool gate = burst && i == 0;
    const std::int64_t before = ns_since_start();
    run.submit_ns[i] = before;
    service.submit(run.cmds[i], [&run, i, gate, &gate_entered, &gate_open,
                                 &ns_since_start](const svc::Command&,
                                                  const svc::CommandResult& r,
                                                  std::uint64_t) {
      run.results[i] = r;
      run.done_ns[i] = ns_since_start();
      run.answered[i] = 1;
      if (gate) {
        gate_entered.store(true);
        gate_entered.notify_one();
        gate_open.wait(false);
      }
    });
    if (time_submits) run.submit_cost_ns[i] = ns_since_start() - before;
    if (gate) gate_entered.wait(false);
  }
  run.threads = os_threads();
  gate_open.store(true);
  gate_open.notify_one();
  service.stop();  // drains the queue and joins: every callback has run
  run.stats = service.stats();
  run.window_s =
      static_cast<double>(*std::max_element(run.done_ns.begin(),
                                            run.done_ns.end())) *
      1e-9;
  run.log_text = log.str();
  return run;
}

/// Replays a run's committed log against what the clients were told
/// (svc::check_history). `tamper` corrupts one committed entry first, the
/// way a lost or reordered write would look, so the check must fail.
bool history_clean(const KvRun& run, bool tamper,
                   std::vector<svc::CommittedEntry>* log) {
  std::vector<svc::Observation> obs;
  obs.reserve(run.cmds.size());
  for (std::size_t i = 0; i < run.cmds.size(); ++i)
    obs.push_back({run.cmds[i], run.results[i]});
  std::string error;
  std::istringstream is(run.log_text);
  if (svc::read_log(is, log, &error)) {
    if (tamper && !log->empty()) {
      svc::CommittedEntry& e = (*log)[log->size() / 2];
      e.cmd.value += "t";
      e.read_value = "tampered";
      e.ok = !e.ok;
    }
    const svc::HistoryReport rep = svc::check_history(*log, obs);
    if (rep.ok && log->size() == run.cmds.size()) return true;
    error = rep.ok ? "log is missing entries" : rep.error;
  }
  std::fprintf(stderr, "perfbench: history check: %s\n", error.c_str());
  return false;
}

/// What the KV runs of one pass add up to.
struct KvSummary {
  std::vector<double> setups, windows, lat_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t log_hash = 0;
  std::size_t runs = 0;
  bool same_log = true;     // every run committed the identical log
  bool slots_exact = true;  // burst: the slot count the gate guarantees
  bool two_threads = true;  // generator + commit thread, nothing else
};

/// Checks one run and folds it into `sum`; returns the committed log.
std::vector<svc::CommittedEntry> fold_kv_run(const KvRun& run, bool burst,
                                             bool tamper, KvSummary* sum) {
  const std::size_t n = run.cmds.size();
  sum->windows.push_back(run.window_s);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum->lat_ms.push_back(static_cast<double>(run.done_ns[i] - run.due_ns[i]) *
                          1e-6);
    if (!run.answered[i] || run.results[i].unavailable) ++failed;
  }
  std::vector<svc::CommittedEntry> log;
  if (!history_clean(run, tamper, &log)) failed = n;  // no op is trusted
  const std::uint64_t hash = fnv1a(run.log_text);
  if (sum->attempted == 0) sum->log_hash = hash;
  else if (hash != sum->log_hash) sum->same_log = false;
  if (burst &&
      run.stats.slots != 1 + (n - 1 + kBatchLimit - 1) / kBatchLimit)
    sum->slots_exact = false;
  sum->two_threads = sum->two_threads && run.threads == 2;
  ++sum->runs;
  sum->attempted += n;
  sum->failed += failed;
  return log;
}

void kv_checks(const KvSummary& sum, bool burst, Result* res) {
  res->check("every_request_acked_and_history_clean", sum.failed == 0);
  // Only a comparison of two or more runs can catch a nondeterministic log.
  if (sum.runs >= 2) res->check("same_log_every_run", sum.same_log);
  res->check("two_threads", sum.two_threads);
  if (burst) res->check("burst_slots_exact", sum.slots_exact);
}

void run_kv_workload(bool burst, std::uint64_t seed, double seconds,
                     bool trace, bool tamper, Result* res) {
  const double pass_s = trace ? seconds / 2 : seconds;
  const std::size_t requests =
      burst ? kBurstRequests
            : static_cast<std::size_t>(kPacedRate * 0.8 * pass_s);

  register_consensus_algorithms();  // before the first commit_slot
  res->check("one_cpu", pin_to_one_cpu());
  KvSummary sum;
  // Paced: one run fills the pass. Burst: reps until the pass is used.
  const auto pass0 = Clock::now();
  KvRun first = kv_run(burst, seed, requests, false, &sum.setups);
  const std::uint64_t first_slots = first.stats.slots;
  const std::uint64_t first_msgs = first.stats.consensus_messages;
  fold_kv_run(first, burst, tamper, &sum);
  first = KvRun{};
  for (std::size_t reps = 1; burst; ++reps) {
    const double used = seconds_since(pass0);
    if (reps >= 2 && used + used / static_cast<double>(reps) > pass_s) break;
    fold_kv_run(kv_run(burst, seed, requests, false, &sum.setups), burst,
                tamper, &sum);
  }
  res->count("requests", requests);
  res->count("log_hash", sum.log_hash);
  if (burst) {
    res->count("slots", first_slots);
    res->count("consensus_messages", first_msgs);
  }
  const double window_s = median(sum.windows);

  if (!trace) {
    kv_checks(sum, burst, res);
    res->attempted = sum.attempted;
    res->failed = sum.failed;
    res->metric("run_s", window_s, "s");
    res->metric("setup_s", median(sum.setups), "s");
    res->metric("peak_rss_mb", peak_rss_mb(), "MB");
    res->metric("ops_per_s", static_cast<double>(requests) / window_s, "1/s");
    res->metric("lat_p50_ms", quantile(sum.lat_ms, 0.50), "ms");
    res->samples.push_back({"lat_p50_ms", sum.lat_ms.size()});
    return;
  }

  // Traced pass: the same workload with submit() timed from the caller.
  const KvRun t = kv_run(burst, seed, requests, true, nullptr);
  const std::vector<svc::CommittedEntry> log =
      fold_kv_run(t, burst, tamper, &sum);
  kv_checks(sum, burst, res);
  res->attempted = sum.attempted;
  res->failed = sum.failed;
  const svc::KvServiceStats& st = t.stats;

  // consensus: replay commit_slot for the traced run's slot count with the
  // same group config. The call is deterministic per (config, call index),
  // so the replay's cost counters must equal the service's.
  svc::ReplicaGroup group(kv_config(seed, nullptr).group);
  std::vector<double> slot_us;
  std::uint64_t replay_msgs = 0, replay_bytes = 0;
  double busy_s = 0;
  for (std::uint64_t s = 0; s < st.slots; ++s) {
    const auto t0 = Clock::now();
    const svc::CommitOutcome out = group.commit_slot();
    const double dt = seconds_since(t0);
    busy_s += dt;
    slot_us.push_back(dt * 1e6);
    replay_msgs += out.messages;
    replay_bytes += out.bytes;
  }
  res->check("consensus_replay_matches_service",
             replay_msgs == st.consensus_messages &&
                 replay_bytes == st.consensus_bytes);

  // svc apply: replay the committed log into a fresh store.
  svc::KvStore store;
  const auto a0 = Clock::now();
  for (const svc::CommittedEntry& e : log) (void)store.apply(e.cmd);
  const double apply_s = seconds_since(a0);

  std::vector<double> submit_us, lat_ms, late_ms;
  for (std::size_t i = 0; i < t.cmds.size(); ++i) {
    submit_us.push_back(static_cast<double>(t.submit_cost_ns[i]) * 1e-3);
    lat_ms.push_back(static_cast<double>(t.done_ns[i] - t.due_ns[i]) * 1e-6);
    late_ms.push_back(static_cast<double>(t.submit_ns[i] - t.due_ns[i]) *
                      1e-6);
  }
  const double ops = static_cast<double>(st.committed);
  const double slots = static_cast<double>(st.slots);
  res->metric("consensus.slots", slots, "count");
  res->metric("consensus.slot_us_p50", quantile(slot_us, 0.50), "us");
  res->metric("consensus.slot_us_p99", quantile(slot_us, 0.99), "us");
  res->metric("consensus.busy_s", busy_s, "s");
  res->metric("consensus.busy_share", busy_s / t.window_s, "ratio");
  res->metric("consensus.ticks_per_slot",
              static_cast<double>(st.consensus_ticks) / slots, "ticks");
  res->metric("consensus.msgs_per_op",
              static_cast<double>(st.consensus_messages) / ops, "count");
  res->metric("consensus.bytes_per_op",
              static_cast<double>(st.consensus_bytes) / ops, "B");
  res->metric("svc.ops_per_batch", ops / slots, "count");
  res->metric("svc.max_batch", static_cast<double>(st.max_batch), "count");
  res->metric("svc.submit_us_p50", quantile(submit_us, 0.50), "us");
  res->metric("svc.self_s", t.window_s - busy_s, "s");
  res->metric("svc.apply_us_per_op", apply_s * 1e6 / ops, "us");
  res->metric("load.late_ms_p99", quantile(late_ms, 0.99), "ms");
  res->metric("load.lat_p99_ms", quantile(lat_ms, 0.99), "ms");
  res->metric("load.lat_max_ms", quantile(lat_ms, 1.0), "ms");
  res->metric("load.samples", static_cast<double>(lat_ms.size()), "count");
  res->metric("trace.run_s", t.window_s, "s");
  res->metric("trace.overhead", t.window_s / window_s, "ratio");
  // KV runs use no flight ring, so trace.dropped has nothing to count.
  res->not_exercised({{"gossip.step_s", "s"},
                      {"gossip.step_share", "ratio"},
                      {"gossip.msgs", "count"},
                      {"gossip.bytes", "B"},
                      {"gossip.bytes_per_msg", "B"},
                      {"sim.drain_s", "s"},
                      {"sim.kway_merge_s", "s"},
                      {"sim.other_s", "s"},
                      {"sim.global_steps", "count"},
                      {"sim.process_steps", "count"},
                      {"sim.slab_allocs", "count"},
                      {"sim.payload_pool_peak", "count"},
                      {"trace.dropped", "count"}});
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <ears-n600|tears-n2000|"
               "kv-paced|kv-burst> --seed <n> --seconds <s> --trace <0|1> "
               "[--tamper-log]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing a debug or sanitizer build\n");
  return 2;
#endif
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tamper = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) workload = argv[++i];
    else if (a == "--seed" && has_value) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has_value) trace = std::atoi(argv[++i]);
    else if (a == "--tamper-log") tamper = true;
    else return usage();
  }
  const bool gossip = workload == "ears-n600" || workload == "tears-n2000";
  const bool kv = workload == "kv-paced" || workload == "kv-burst";
  if ((!gossip && !kv) || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();

  Result res;
  if (gossip)
    run_gossip_workload(workload, seed, seconds, trace == 1, &res);
  else
    run_kv_workload(workload == "kv-burst", seed, seconds, trace == 1, tamper,
                    &res);
  res.print(workload, seed, trace);
  bool ok = res.failed == 0;
  for (const auto& c : res.checks) ok = ok && c.second;
  return ok ? 0 : 1;
}
