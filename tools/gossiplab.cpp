// gossiplab — command-line experiment runner.
//
// Subcommands:
//   gossip     run one gossip execution, print a summary (or --csv row)
//   sweep      run a gossip algorithm over a list of n values, CSV output
//   consensus  run one consensus execution
//   lowerbound run the Theorem 1 adaptive adversary against an algorithm
//   trace      run a small gossip execution and print its ASCII timeline
//   report     run one gossip execution with telemetry, print the JSON report
//   rt         run one gossip execution on the real-time threaded runtime
//              (wall-clock ticks, optional fault injection), audit the
//              recorded trace offline, print the JSON report; --spans /
//              --stats-interval-ms turn on the flight recorder / live stats
//   spans      convert a recorded flight log to Perfetto-loadable Chrome
//              trace-event JSON and print delivery-latency percentiles
//   fuzz       sample adversary configurations, shrink any failing case to a
//              replayable repro artifact (exit 1 when a failure was found)
//   replay     re-execute a repro artifact, verify its pinned trace hash
//   statcheck  statistical Table 1 bound check (asyncgossip-statcheck-v1 JSON)
//   serve      run the replicated KV service behind a loopback UDP front-end
//              for a fixed duration (docs/SERVING.md)
//   loadgen    drive an open-loop workload at a serve instance (--target udp)
//              or an in-process service (--target inproc, the soak path);
//              exit 1 when the run is incomplete
//   histcheck  check a committed log + observation stream for lost writes,
//              stale reads, and session-order violations
//
// Every subcommand understands --help; unknown flags are rejected.
//
// Examples:
//   gossiplab gossip --alg ears --n 256 --f 64 --d 4 --delta 3 --seed 1
//   gossiplab sweep --alg tears --n 256,512,1024 --fpct 25 --csv
//   gossiplab consensus --exchange tears --n 128 --seed 7
//   gossiplab lowerbound --alg lazy --f 64 --seed 3
//   gossiplab trace --alg ears --n 16 --f 4 --steps 96
//   gossiplab trace --alg ears --n 16 --f 4 --record run.trace
//   gossiplab gossip --alg tears --n 128 --f 32 --audit
//   gossiplab report --algorithm ears --n 64 --f 16
//   gossiplab report --alg tears --n 128 --f 32 --out run.json --spread-csv spread.csv
//   gossiplab rt --algorithm ears --n 32 --f 8 --inject crash --seed 7
//   gossiplab rt --alg tears --n 24 --f 5 --record rt.trace --out rt.json
//   gossiplab rt --alg ears --n 16 --f 4 --spans rt.flight --stats-interval-ms 50
//   gossiplab spans --in rt.flight --out spans.json
//   gossiplab fuzz --iters 200 --seed 7 --out repro
//   gossiplab fuzz --iters 20 --inject late-delivery --out repro
//   gossiplab replay --in repro.spec.json
//   gossiplab statcheck --trials 12 --n 12,16,24,32 --out statcheck.json
//   gossiplab rt --algorithm cr-tears --n 32 --f 15 --inject crash
//   gossiplab serve --port 47123 --duration 10 --algorithm cr-tears
//   gossiplab loadgen --target udp --port 47123 --rate 500 --duration 5
//   gossiplab loadgen --target inproc --requests 1000000 --crashes 2
//       --log svc.log --obs svc.obs
//   gossiplab histcheck --log svc.log --obs svc.obs
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "consensus/canetti_rabin.h"
#include "consensus/cr_gossip.h"
#include "gossip/fuzz_harness.h"
#include "gossip/harness.h"
#include "gossip/spec_json.h"
#include "lowerbound/adaptive.h"
#include "rt/driver.h"
#include "rt/multiproc.h"
#include "sim/span_export.h"
#include "sim/sweep.h"
#include "sim/telemetry.h"
#include "sim/telemetry_export.h"
#include "sim/trace.h"
#include "svc/consensus_wire.h"
#include "svc/history.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/service.h"

using namespace asyncgossip;

namespace {

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    // erase, not `arg = arg.substr(2)`: the self-assignment-from-temporary
    // form trips GCC 12's -Wrestrict false positive (PR 105329) under
    // inlining.
    arg.erase(0, 2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";  // boolean flag
    }
  }
  return flags;
}

/// Rejects flags the subcommand does not understand (exit 2, naming the
/// offending flag). Every allow-list implicitly contains "help".
void check_flags(const char* cmd, const Flags& flags,
                 std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : flags) {
    (void)value;
    if (key == "help") continue;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr,
                   "gossiplab %s: unknown flag --%s (try: gossiplab %s --help)\n",
                   cmd, key.c_str(), cmd);
      std::exit(2);
    }
  }
}

// Shared model/algorithm flags consumed by spec_from_flags.
#define SPEC_FLAG_LIST                                                      \
  "alg", "algorithm", "n", "f", "d", "delta", "seed", "schedule", "delay",  \
      "crash-horizon", "epsilon", "shutdown-c", "tears-a", "tears-kappa",   \
      "lazy-fanout", "max-steps", "engine-jobs", "audit"

constexpr const char* kSpecFlagHelp =
    "  model/algorithm flags (shared by gossip runs):\n"
    "    --alg NAME          algorithm: trivial|ears|sears|tears|sync|\n"
    "                        ears-no-informed-list|lazy|round-robin|\n"
    "                        cr-ears|cr-sears|cr-tears (default ears)\n"
    "    --algorithm NAME    alias for --alg\n"
    "    --n N --f F         processes / crash budget (default 64, n/4)\n"
    "    --d D --delta DD    delivery / scheduling bounds (default 1, 1)\n"
    "    --seed S            RNG seed (default 1)\n"
    "    --schedule NAME     lockstep|staggered|random|rotating|straggler\n"
    "    --delay NAME        unit|max|uniform|bimodal|targeted\n"
    "    --crash-horizon T   crash times drawn in [0, T) (default 64)\n"
    "    --epsilon E         SEARS fanout exponent (default 0.5)\n"
    "    --shutdown-c C      EARS shutdown constant (default 4.0)\n"
    "    --tears-a C --tears-kappa C   TEARS constants (default 1.0)\n"
    "    --lazy-fanout K     lazy-gossip fanout (default 2)\n"
    "    --max-steps T       step budget, 0 = automatic\n"
    "    --engine-jobs J     engine worker threads per run: 1 = serial,\n"
    "                        0 = hardware concurrency (default: AG_ENGINE_JOBS\n"
    "                        or 1; results are identical for every J)\n"
    "    --audit             attach the invariant auditor; violations abort\n";

std::uint64_t get_u64(const Flags& f, const std::string& key,
                      std::uint64_t fallback) {
  auto it = f.find(key);
  return it == f.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
}

double get_double(const Flags& f, const std::string& key, double fallback) {
  auto it = f.find(key);
  return it == f.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::string get_str(const Flags& f, const std::string& key,
                    const std::string& fallback) {
  auto it = f.find(key);
  return it == f.end() ? fallback : it->second;
}

bool has_flag(const Flags& f, const std::string& key) {
  return f.count(key) > 0;
}

std::vector<std::uint64_t> parse_list(const std::string& s) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::strtoull(s.substr(pos, comma - pos).c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return out;
}

GossipAlgorithm parse_algorithm(const std::string& name) {
  GossipAlgorithm out;
  if (algorithm_from_string(name, &out)) return out;
  std::fprintf(stderr, "unknown algorithm: %s\n", name.c_str());
  std::exit(2);
}

ExchangeKind parse_exchange(const std::string& name) {
  if (name == "all-to-all" || name == "cr") return ExchangeKind::kAllToAll;
  if (name == "ears") return ExchangeKind::kEars;
  if (name == "sears") return ExchangeKind::kSears;
  if (name == "tears") return ExchangeKind::kTears;
  std::fprintf(stderr, "unknown exchange: %s\n", name.c_str());
  std::exit(2);
}

SchedulePattern parse_schedule(const std::string& name) {
  SchedulePattern out;
  if (schedule_from_string(name, &out)) return out;
  std::fprintf(stderr, "unknown schedule: %s\n", name.c_str());
  std::exit(2);
}

DelayPattern parse_delay(const std::string& name) {
  DelayPattern out;
  if (delay_from_string(name, &out)) return out;
  std::fprintf(stderr, "unknown delay pattern: %s\n", name.c_str());
  std::exit(2);
}

GossipSpec spec_from_flags(const Flags& f) {
  GossipSpec spec;
  // --algorithm is an alias for --alg; --alg wins when both are given.
  spec.algorithm =
      parse_algorithm(get_str(f, "alg", get_str(f, "algorithm", "ears")));
  spec.n = get_u64(f, "n", 64);
  spec.f = get_u64(f, "f", spec.n / 4);
  spec.d = get_u64(f, "d", 1);
  spec.delta = get_u64(f, "delta", 1);
  spec.seed = get_u64(f, "seed", 1);
  spec.schedule = parse_schedule(
      get_str(f, "schedule", spec.delta == 1 ? "lockstep" : "staggered"));
  spec.delay = parse_delay(get_str(f, "delay", spec.d == 1 ? "unit" : "uniform"));
  spec.crash_horizon = get_u64(f, "crash-horizon", 64);
  spec.sears_epsilon = get_double(f, "epsilon", 0.5);
  spec.ears_shutdown_constant = get_double(f, "shutdown-c", 4.0);
  spec.tears_a_constant = get_double(f, "tears-a", 1.0);
  spec.tears_kappa_constant = get_double(f, "tears-kappa", 1.0);
  spec.lazy_fanout = get_u64(f, "lazy-fanout", 2);
  spec.max_steps = get_u64(f, "max-steps", 0);
  spec.engine_jobs = get_u64(f, "engine-jobs", spec.engine_jobs);
  spec.audit = has_flag(f, "audit");
  return spec;
}

// Peak memory of an informed-list run as a multiple of its process state:
// besides its own list, every process holds a cached snapshot (a copy) and
// more snapshots are in flight for up to d steps. Peak RSS over state,
// ears at n = 2000, d = 4, delta = 2: 3.0 with --engine-jobs 1, 3.8 with
// --engine-jobs 4. A larger d keeps more snapshots in flight, so there the
// estimate is a floor, not a bound.
constexpr double kInformedListPeakFactor = 4.0;

/// Refuses, before any process is built, runs whose informed-list state
/// cannot fit in physical memory: an infeasible n then exits 2 with a
/// message instead of being killed by the OOM killer halfway through.
/// `concurrent` runs are resident at once (sweep --jobs). Returns false
/// after printing the reason.
bool fits_in_memory(const char* cmd, const std::vector<GossipSpec>& specs,
                    std::size_t concurrent) {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || page_size <= 0) return true;  // unknown: do not guess
  const double physical = static_cast<double>(pages) * static_cast<double>(page_size);
  std::vector<double> needs;
  for (const GossipSpec& spec : specs)
    needs.push_back(kInformedListPeakFactor * informed_list_state_bytes(spec));
  std::sort(needs.begin(), needs.end(), std::greater<>());
  needs.resize(std::min(needs.size(), std::max<std::size_t>(concurrent, 1)));
  double need = 0;
  for (double b : needs) need += b;
  if (need <= physical) return true;
  constexpr double kGB = 1e9;
  std::fprintf(stderr,
               "%s: not enough memory: the informed lists need about %.1f GB "
               "(%.1f GB of state for the largest run, times %.0f for the "
               "snapshots in flight",
               cmd, need / kGB, needs.front() / kInformedListPeakFactor / kGB,
               kInformedListPeakFactor);
  if (needs.size() > 1)
    std::fprintf(stderr, ", %zu runs at once", needs.size());
  std::fprintf(stderr, ") but this machine has %.1f GB of physical memory\n",
               physical / kGB);
  return false;
}

void print_gossip_csv_header() {
  std::printf(
      "alg,n,f,d,delta,seed,completed,steps,msgs,bytes,gathering,majority,"
      "alive,realized_d,realized_delta\n");
}

void print_gossip_csv(const GossipSpec& spec, const GossipOutcome& out) {
  std::printf("%s,%zu,%zu,%llu,%llu,%llu,%d,%llu,%llu,%llu,%d,%d,%zu,%llu,%llu\n",
              to_string(spec.algorithm), spec.n, spec.f,
              (unsigned long long)spec.d, (unsigned long long)spec.delta,
              (unsigned long long)spec.seed, (int)out.completed,
              (unsigned long long)out.completion_time,
              (unsigned long long)out.messages, (unsigned long long)out.bytes,
              (int)out.gathering_ok, (int)out.majority_ok, out.alive,
              (unsigned long long)out.realized_d,
              (unsigned long long)out.realized_delta);
}

int cmd_gossip(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf("usage: gossiplab gossip [flags]\n"
                "run one gossip execution and print a human summary\n"
                "    --csv               print a CSV header + row instead\n%s",
                kSpecFlagHelp);
    return 0;
  }
  check_flags("gossip", f, {SPEC_FLAG_LIST, "csv"});
  const GossipSpec spec = spec_from_flags(f);
  if (!fits_in_memory("gossip", {spec}, 1)) return 2;
  const GossipOutcome out = run_gossip_spec(spec);
  if (has_flag(f, "csv")) {
    print_gossip_csv_header();
    print_gossip_csv(spec, out);
  } else {
    std::printf("%s n=%zu f=%zu d=%llu delta=%llu seed=%llu\n",
                to_string(spec.algorithm), spec.n, spec.f,
                (unsigned long long)spec.d, (unsigned long long)spec.delta,
                (unsigned long long)spec.seed);
    std::printf("  completed   %s (detector at step %llu)\n",
                out.completed ? "yes" : "NO",
                (unsigned long long)out.detection_time);
    std::printf("  time        %llu steps (%.2f per d+delta)\n",
                (unsigned long long)out.completion_time,
                (double)out.completion_time / (double)(spec.d + spec.delta));
    std::printf("  messages    %llu (%.1f per process)\n",
                (unsigned long long)out.messages,
                (double)out.messages / (double)spec.n);
    std::printf("  bytes       %llu (%.1f per message)\n",
                (unsigned long long)out.bytes,
                out.messages ? (double)out.bytes / (double)out.messages : 0.0);
    std::printf("  gathering   %s   majority %s   survivors %zu/%zu\n",
                out.gathering_ok ? "ok" : "FAILED",
                out.majority_ok ? "ok" : "FAILED", out.alive, spec.n);
  }
  return out.completed ? 0 : 1;
}

int cmd_sweep(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf("usage: gossiplab sweep [flags]\n"
                "run an algorithm over a grid of n values x seeds, CSV to "
                "stdout\n"
                "    --n N1,N2,...       population sizes (default 64,128,256)\n"
                "    --fpct P            crash budget as %% of n (default 25)\n"
                "    --seeds K           seeds per size (default 3)\n"
                "    --jobs J            worker threads (default 1; 0 = all "
                "hardware threads).\n"
                "                        output is identical for every J — "
                "only wall time changes\n"
                "    --json PATH         also write an asyncgossip-bench-v1 "
                "report (suite \"sweep\")\n%s",
                kSpecFlagHelp);
    return 0;
  }
  check_flags("sweep", f, {SPEC_FLAG_LIST, "fpct", "seeds", "csv", "jobs",
                           "json"});
  const auto ns = parse_list(get_str(f, "n", "64,128,256"));
  const std::uint64_t fpct = get_u64(f, "fpct", 25);
  const std::uint64_t seeds = get_u64(f, "seeds", 3);
  const std::uint64_t jobs = get_u64(f, "jobs", 1);

  // Build the whole grid up front so the parallel runner can claim cases
  // freely; rows are printed afterwards in grid order regardless of which
  // worker finished first.
  std::vector<GossipSpec> specs;
  specs.reserve(ns.size() * seeds);
  for (std::uint64_t n : ns) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      Flags g = f;
      g["n"] = std::to_string(n);
      g["f"] = std::to_string(n * fpct / 100);
      g["seed"] = std::to_string(get_u64(f, "seed", 1) + s);
      specs.push_back(spec_from_flags(g));
    }
  }
  const std::size_t workers = SweepRunner(static_cast<std::size_t>(jobs)).jobs();
  if (!fits_in_memory("sweep", specs, workers)) return 2;
  const std::vector<GossipSweepResult> results =
      run_gossip_sweep(specs, static_cast<std::size_t>(jobs));

  print_gossip_csv_header();
  for (std::size_t i = 0; i < specs.size(); ++i)
    print_gossip_csv(specs[i], results[i].outcome);

  const std::string json_path = get_str(f, "json", "");
  if (!json_path.empty()) {
    std::vector<BenchCaseRow> rows;
    rows.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const GossipSpec& spec = specs[i];
      const GossipOutcome& out = results[i].outcome;
      BenchCaseRow row;
      row.name = spec_label(spec) + "/seed:" + std::to_string(spec.seed);
      row.counters = {
          {"completed", out.completed ? 1.0 : 0.0},
          {"steps", static_cast<double>(out.completion_time)},
          {"msgs", static_cast<double>(out.messages)},
          {"bytes", static_cast<double>(out.bytes)},
          {"gather_ok", out.gathering_ok ? 1.0 : 0.0},
          {"majority_ok", out.majority_ok ? 1.0 : 0.0},
          {"alive", static_cast<double>(out.alive)},
          {"realized_d", static_cast<double>(out.realized_d)},
          {"realized_delta", static_cast<double>(out.realized_delta)},
      };
      rows.push_back(std::move(row));
    }
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "sweep: cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    write_bench_json(out, "sweep", rows);
  }
  return 0;
}

int cmd_consensus(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab consensus [flags]\n"
        "run one Canetti-Rabin consensus execution\n"
        "    --exchange NAME     all-to-all|cr|ears|sears|tears (default tears)\n"
        "    --n N --f F         processes / crash budget (default 64, n/2-1)\n"
        "    --inputs NAME       random|zero|one|half (default random)\n"
        "    --d D --delta DD --seed S --schedule NAME --delay NAME\n"
        "    --epsilon E --tears-a C --tears-kappa C\n");
    return 0;
  }
  check_flags("consensus", f,
              {"exchange", "n", "f", "inputs", "d", "delta", "seed", "schedule",
               "delay", "epsilon", "tears-a", "tears-kappa"});
  ConsensusSpec spec;
  spec.config.n = get_u64(f, "n", 64);
  spec.config.f = get_u64(f, "f", spec.config.n / 2 - 1);
  spec.config.exchange = parse_exchange(get_str(f, "exchange", "tears"));
  spec.config.sears_epsilon = get_double(f, "epsilon", 0.5);
  spec.config.tears_a_constant = get_double(f, "tears-a", 1.0);
  spec.config.tears_kappa_constant = get_double(f, "tears-kappa", 1.0);
  spec.config.seed = get_u64(f, "seed", 1);
  spec.d = get_u64(f, "d", 1);
  spec.delta = get_u64(f, "delta", 1);
  spec.schedule = parse_schedule(
      get_str(f, "schedule", spec.delta == 1 ? "lockstep" : "staggered"));
  spec.delay = parse_delay(get_str(f, "delay", spec.d == 1 ? "unit" : "uniform"));
  spec.seed = spec.config.seed;
  const std::string inputs = get_str(f, "inputs", "random");
  spec.inputs = inputs == "zero"   ? InputPattern::kAllZero
                : inputs == "one"  ? InputPattern::kAllOne
                : inputs == "half" ? InputPattern::kHalfHalf
                                   : InputPattern::kRandom;
  const ConsensusOutcome out = run_consensus_spec(spec);
  std::printf("CR-%s n=%zu f=%zu inputs=%s\n",
              to_string(spec.config.exchange), spec.config.n, spec.config.f,
              inputs.c_str());
  std::printf("  decided     %s -> %d (phase %u)\n",
              out.all_decided ? "yes" : "NO", (int)out.decided_value,
              out.decision_phase);
  std::printf("  agreement   %s   validity %s   core violations %llu\n",
              out.agreement ? "ok" : "VIOLATED",
              out.validity ? "ok" : "VIOLATED",
              (unsigned long long)out.core_violations);
  std::printf("  time        %llu steps to decision, quiet at %llu\n",
              (unsigned long long)out.decision_time,
              (unsigned long long)out.quiet_time);
  std::printf("  messages    %llu to decision, %llu total, %llu bytes\n",
              (unsigned long long)out.messages_at_decision,
              (unsigned long long)out.total_messages,
              (unsigned long long)out.total_bytes);
  return out.all_decided && out.agreement && out.validity ? 0 : 1;
}

int cmd_lowerbound(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf("usage: gossiplab lowerbound [flags]\n"
                "run the Theorem 1 adaptive adversary against an algorithm\n"
                "(omit --n to get the canonical n = 4f population)\n%s",
                kSpecFlagHelp);
    return 0;
  }
  check_flags("lowerbound", f, {SPEC_FLAG_LIST});
  LowerBoundConfig cfg;
  cfg.spec = spec_from_flags(f);
  cfg.spec.ears_shutdown_constant = get_double(f, "shutdown-c", 2.0);
  cfg.f = get_u64(f, "f", cfg.spec.n / 4);
  if (!has_flag(f, "n")) cfg.spec.n = 4 * cfg.f;
  const LowerBoundReport r = run_lower_bound(cfg);
  std::printf("lower bound vs %s: n=%zu f_eff=%zu -> %s\n",
              to_string(cfg.spec.algorithm), r.n, r.f_eff,
              to_string(r.outcome));
  std::printf("  phase1 end t=%llu, promiscuous %zu/%zu\n",
              (unsigned long long)r.phase1_end, r.promiscuous_count,
              r.s2_size);
  if (r.outcome == LowerBoundCase::kCase1Messages)
    std::printf("  case1 window messages %llu (f^2 = %zu)\n",
                (unsigned long long)r.case1_window_messages,
                r.f_eff * r.f_eff);
  if (r.outcome == LowerBoundCase::kCase2Time)
    std::printf("  case2 pair (%u,%u), window to t=%llu, communicated=%d\n",
                r.pair_p, r.pair_q, (unsigned long long)r.case2_window_end,
                (int)r.pair_communicated);
  std::printf("  totals: %llu msgs, completion %llu, gathering %s, "
              "construction %s\n",
              (unsigned long long)r.total_messages,
              (unsigned long long)r.completion_time,
              r.gathering_ok ? "ok" : "never",
              r.construction_ok ? "ok" : "failed");
  return 0;
}

int cmd_trace(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf("usage: gossiplab trace [flags]\n"
                "run a small gossip execution and print its ASCII timeline\n"
                "    --steps T           step budget (default 96)\n"
                "    --record PATH       write the event trace to PATH instead\n%s",
                kSpecFlagHelp);
    return 0;
  }
  check_flags("trace", f, {SPEC_FLAG_LIST, "steps", "record"});
  GossipSpec spec = spec_from_flags(f);
  Engine engine = make_gossip_engine(spec);
  TraceRecorder trace;
  engine.set_observer(&trace);
  const Time steps = get_u64(f, "steps", 96);
  engine.run_until(gossip_quiet, steps);
  if (has_flag(f, "record")) {
    const std::string path = get_str(f, "record", "run.trace");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    trace.write_trace(out, spec.n, spec.d, spec.delta, spec.f);
    std::printf("recorded %zu events to %s (check with: tracecheck %s)\n",
                trace.events().size(), path.c_str(), path.c_str());
    return 0;
  }
  std::printf("%s n=%zu f=%zu — timeline (o step, s send, d deliver, "
              "b both, X crash):\n\n",
              to_string(spec.algorithm), spec.n, spec.f);
  std::printf("%s\n", trace.render_timeline(spec.n, 32,
                                            (std::size_t)engine.now()).c_str());
  const Summary lat = trace.latency_summary();
  std::printf("events: %llu steps, %llu sends, %llu deliveries, %llu crashes\n",
              (unsigned long long)trace.steps(),
              (unsigned long long)trace.sends(),
              (unsigned long long)trace.deliveries(),
              (unsigned long long)trace.crashes());
  std::printf("delivery latency: mean %.2f, max %.0f\n", lat.mean, lat.max);
  return 0;
}

int cmd_report(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab report [flags]\n"
        "run one gossip execution with telemetry attached and print the\n"
        "asyncgossip-telemetry-v1 JSON report (schema: docs/OBSERVABILITY.md)\n"
        "    --out PATH          write the JSON report to PATH\n"
        "    --spread-csv PATH   also write the spread time-series as CSV\n%s",
        kSpecFlagHelp);
    return 0;
  }
  check_flags("report", f, {SPEC_FLAG_LIST, "out", "spread-csv"});
  GossipSpec spec = spec_from_flags(f);
  if (!fits_in_memory("report", {spec}, 1)) return 2;
  TelemetryCollector telemetry(telemetry_config(spec));
  spec.telemetry = &telemetry;
  const GossipOutcome out = run_gossip_spec(spec);

  TelemetryExportInfo info;
  info.run = {{"tool", "gossiplab report"},
              {"algorithm", to_string(spec.algorithm)},
              {"schedule", to_string(spec.schedule)},
              {"delay", to_string(spec.delay)}};
  info.summary = {
      {"n", (double)spec.n},
      {"f", (double)spec.f},
      {"d", (double)spec.d},
      {"delta", (double)spec.delta},
      {"seed", (double)spec.seed},
      {"completed", out.completed ? 1.0 : 0.0},
      {"completion_time", (double)out.completion_time},
      {"detection_time", (double)out.detection_time},
      {"steps_per_d_plus_delta",
       (double)out.completion_time / (double)(spec.d + spec.delta)},
      {"messages", (double)out.messages},
      {"bytes", (double)out.bytes},
      {"gathering_ok", out.gathering_ok ? 1.0 : 0.0},
      {"majority_ok", out.majority_ok ? 1.0 : 0.0},
      {"alive", (double)out.alive},
  };

  std::ostringstream doc;
  write_telemetry_json(doc, telemetry, info);
  std::string json_err;
  if (!json_valid(doc.str(), &json_err)) {
    std::fprintf(stderr, "internal error: report is not valid JSON: %s\n",
                 json_err.c_str());
    return 3;
  }
  if (has_flag(f, "out")) {
    const std::string path = get_str(f, "out", "report.json");
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    os << doc.str();
    std::fprintf(stderr, "wrote telemetry report to %s\n", path.c_str());
  } else {
    std::fputs(doc.str().c_str(), stdout);
  }
  if (has_flag(f, "spread-csv")) {
    const std::string path = get_str(f, "spread-csv", "spread.csv");
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    write_spread_csv(os, telemetry);
    std::fprintf(stderr, "wrote spread time-series to %s\n", path.c_str());
  }
  return out.completed ? 0 : 1;
}

int cmd_rt(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab rt [flags]\n"
        "run one gossip execution on the real-time threaded runtime (one\n"
        "thread per process, wall-clock ticks; see docs/RUNTIME.md), audit\n"
        "the recorded trace offline, and print the asyncgossip-telemetry-v1\n"
        "JSON report\n"
        "    --inject KIND       faults: none|crash|stall|drop|all (default none)\n"
        "    --tick-us T         wall-clock microseconds per model tick (default 200)\n"
        "    --transport KIND    inproc (threads, default) | udp (one OS process\n"
        "                        per gossip process over loopback datagrams) |\n"
        "                        udp-threads (threads over the UDP transport)\n"
        "    --wire-drop P --wire-dup P --wire-reorder P\n"
        "                        seeded datagram faults at the socket boundary\n"
        "                        (UDP transports only; probabilities in [0,1])\n"
        "    --wire-seed S       fault-shim seed (default: --seed)\n"
        "    --record PATH       write the trace-format-v1 event log to PATH\n"
        "    --out PATH          write the JSON report to PATH\n"
        "    --spans PATH        enable the flight recorder and write the raw\n"
        "                        flight log (asyncgossip flight v1) to PATH;\n"
        "                        convert with `gossiplab spans`\n"
        "    --stats-interval-ms T  emit live asyncgossip-stats-v1 NDJSON\n"
        "                        snapshots every T ms (T >= 1)\n"
        "    --stats-out PATH    stats destination (default: stderr)\n"
        "  --d/--delta are *targets* (delay-draw range / pacing aim); the\n"
        "  report carries the bounds the execution realized (defaults 4, 2)\n%s",
        kSpecFlagHelp);
    return 0;
  }
  check_flags("rt", f,
              {SPEC_FLAG_LIST, "inject", "tick-us", "record", "out", "spans",
               "stats-interval-ms", "stats-out", "transport", "wire-drop",
               "wire-dup", "wire-reorder", "wire-seed", "worker", "coord-port",
               "trace-out"});
  RtConfig config;
  config.spec = spec_from_flags(f);
  // Real transports have jitter: a degenerate d = 1 target makes every
  // delay draw identical, so rt defaults to a small spread instead.
  if (!has_flag(f, "d")) config.spec.d = 4;
  if (!has_flag(f, "delta")) config.spec.delta = 2;
  config.tick_us = get_u64(f, "tick-us", 200);
  const std::string inject_name = get_str(f, "inject", "none");
  if (!rt_inject_from_string(inject_name, &config.inject)) {
    std::fprintf(stderr, "unknown inject kind: %s\n", inject_name.c_str());
    return 2;
  }
  const std::string transport_name = get_str(f, "transport", "inproc");
  bool multiproc = false;
  if (transport_name == "udp") {
    // One OS process per gossip process (rt/multiproc.h).
    multiproc = true;
    config.transport = RtTransportKind::kUdp;
  } else if (transport_name == "udp-threads") {
    config.transport = RtTransportKind::kUdp;
  } else if (!rt_transport_from_string(transport_name, &config.transport)) {
    std::fprintf(stderr, "unknown transport: %s\n", transport_name.c_str());
    return 2;
  }
  config.wire_faults.drop_probability = get_double(f, "wire-drop", 0.0);
  config.wire_faults.duplicate_probability = get_double(f, "wire-dup", 0.0);
  config.wire_faults.reorder_probability = get_double(f, "wire-reorder", 0.0);
  config.wire_faults.seed = get_u64(f, "wire-seed", config.spec.seed);

  // Worker mode: this invocation IS one gossip process of a multi-process
  // run (re-exec'd by the coordinator — UDP by definition, so the
  // wire-fault validation below does not apply); run it and exit.
  if (has_flag(f, "worker")) {
    const auto worker_id = static_cast<ProcessId>(get_u64(f, "worker", 0));
    const auto coord_port =
        static_cast<std::uint16_t>(get_u64(f, "coord-port", 0));
    return run_rt_udp_worker(config, worker_id, coord_port,
                             get_str(f, "trace-out", ""));
  }
  if (config.wire_faults.any() &&
      config.transport == RtTransportKind::kInProcess) {
    std::fprintf(stderr,
                 "gossiplab rt: --wire-* faults need --transport udp or "
                 "udp-threads\n");
    return 2;
  }
  if (has_flag(f, "coord-port") || has_flag(f, "trace-out")) {
    std::fprintf(stderr,
                 "gossiplab rt: --coord-port/--trace-out are worker-mode "
                 "flags (set by the coordinator)\n");
    return 2;
  }
  if (multiproc && (has_flag(f, "spans") || has_flag(f, "stats-interval-ms"))) {
    std::fprintf(stderr,
                 "gossiplab rt: --spans/--stats-interval-ms are not supported "
                 "with --transport udp (multi-process)\n");
    return 2;
  }
  if (has_flag(f, "spans")) config.flight = true;
  if (has_flag(f, "stats-interval-ms")) {
    config.stats_interval_ms = get_u64(f, "stats-interval-ms", 0);
    if (config.stats_interval_ms == 0) {
      std::fprintf(stderr,
                   "gossiplab rt: --stats-interval-ms must be >= 1 "
                   "(0 would busy-spin the snapshot thread)\n");
      return 2;
    }
  }
  std::ofstream stats_file;
  if (config.stats_interval_ms > 0) {
    if (has_flag(f, "stats-out")) {
      const std::string path = get_str(f, "stats-out", "stats.ndjson");
      stats_file.open(path);
      if (!stats_file) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return 2;
      }
      config.stats_out = &stats_file;
    } else {
      config.stats_out = &std::cerr;
    }
  } else if (has_flag(f, "stats-out")) {
    std::fprintf(stderr,
                 "gossiplab rt: --stats-out requires --stats-interval-ms\n");
    return 2;
  }

  RtRunResult res;
  MultiprocResult mp;  // owns phase_pool backing res.probes when multiproc
  if (multiproc) {
    MultiprocConfig mc;
    mc.rt = config;
    // Rebuild the argv tail reproducing this run's spec for the worker
    // re-execs; boolean flags round-trip as "--key 1". Driver-local and
    // output flags stay with the coordinator.
    mc.worker_args.push_back("rt");
    for (const auto& [key, value] : f) {
      if (key == "record" || key == "out" || key == "spans" ||
          key == "stats-interval-ms" || key == "stats-out" ||
          key == "transport" || key == "worker" || key == "coord-port" ||
          key == "trace-out" || key == "help")
        continue;
      mc.worker_args.push_back("--" + key);
      mc.worker_args.push_back(value);
    }
    mp = run_realtime_udp(mc);
    for (const std::string& err : mp.errors)
      std::fprintf(stderr, "rt multiproc: %s\n", err.c_str());
    res = std::move(mp.run);
  } else {
    res = run_realtime(config);
  }
  if (res.events_dropped != 0)
    std::fprintf(stderr, "warning: %zu records dropped (trace is a prefix)\n",
                 res.events_dropped);

  if (has_flag(f, "record")) {
    const std::string path = get_str(f, "record", "rt.trace");
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    write_rt_trace(os, config, res);
    std::fprintf(stderr, "wrote event log to %s\n", path.c_str());
  }

  if (has_flag(f, "spans")) {
    const std::string path = get_str(f, "spans", "rt.flight");
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    write_flight_log(os, rt_flight_header(config, res), res.flight);
    std::fprintf(stderr,
                 "wrote flight log to %s (%llu records, %llu dropped)\n",
                 path.c_str(), (unsigned long long)res.flight.size(),
                 (unsigned long long)res.flight_dropped);
  }

  const ViolationReport audit = audit_rt_run(config, res);
  if (!audit.ok())
    std::fprintf(stderr, "audit found %llu violation(s):\n%s",
                 (unsigned long long)audit.total(), audit.summary().c_str());

  TelemetryCollector telemetry(rt_telemetry_config(config, res));
  feed_telemetry(res, &telemetry);

  const RtOutcome& out = res.outcome;
  // The sync baseline's spread guarantee only applies at d = delta = 1,
  // which a wall-clock execution essentially never realizes — evaluate the
  // contract against the realized bounds, like the fuzz oracle does
  // against the configured ones.
  GossipSpec realized = config.spec;
  realized.d = out.realized_d;
  realized.delta = out.realized_delta;
  const bool gathering_required = gossip_requires_gathering(realized);
  const bool majority_required = gossip_requires_majority(realized);

  // cr-* runs: gathering/majority are exempt above; the run is instead
  // judged by the consensus verdict aggregated from per-process notes
  // (threaded: collected post-join; udp: carried in worker files).
  const bool is_consensus = is_consensus_algorithm(config.spec.algorithm);
  ConsensusVerdict verdict;
  if (is_consensus) verdict = judge_consensus_notes(res.notes, res.crashed);

  TelemetryExportInfo info;
  info.run = {{"tool", "gossiplab rt"},
              {"runtime", multiproc ? "realtime-multiproc" : "realtime-threads"},
              {"transport", transport_name.c_str()},
              {"algorithm", to_string(config.spec.algorithm)},
              {"inject", to_string(config.inject)}};
  info.summary = {
      {"n", (double)config.spec.n},
      {"f", (double)config.spec.f},
      {"d_target", (double)config.spec.d},
      {"delta_target", (double)config.spec.delta},
      {"seed", (double)config.spec.seed},
      {"tick_us", (double)config.tick_us},
      {"completed", out.completed ? 1.0 : 0.0},
      {"completion_time", (double)out.completion_time},
      {"end_time", (double)out.end_time},
      {"steps", (double)out.steps},
      {"messages", (double)out.messages},
      {"bytes", (double)out.bytes},
      {"deliveries", (double)out.deliveries},
      {"realized_d", (double)out.realized_d},
      {"realized_delta", (double)out.realized_delta},
      {"gathering_ok", out.gathering_ok ? 1.0 : 0.0},
      {"majority_ok", out.majority_ok ? 1.0 : 0.0},
      {"alive", (double)out.alive},
      {"crashes", (double)out.crashes},
      {"audit_violations", (double)audit.total()},
      {"wall_ms", out.wall_ms},
      {"recorder_enabled", config.flight ? 1.0 : 0.0},
      {"recorder_records", (double)res.flight.size()},
      {"recorder_pushed", (double)res.flight_pushed},
      {"recorder_dropped", (double)res.flight_dropped},
      {"recorder_overhead_ms", res.recorder_overhead_ms},
  };
  if (is_consensus) {
    info.summary.insert(
        info.summary.end(),
        {
            {"consensus_all_decided", verdict.all_decided ? 1.0 : 0.0},
            {"consensus_agreement", verdict.agreement ? 1.0 : 0.0},
            {"consensus_validity", verdict.validity ? 1.0 : 0.0},
            {"consensus_decided_value", (double)verdict.decided_value},
            {"consensus_decision_phase", (double)verdict.decision_phase},
            {"consensus_decided_count", (double)verdict.decided_count},
            {"consensus_survivors", (double)verdict.survivors},
            {"consensus_core_violations", (double)verdict.core_violations},
            {"consensus_reannouncements", (double)verdict.reannouncements},
        });
  }

  std::ostringstream doc;
  write_telemetry_json(doc, telemetry, info);
  std::string json_err;
  if (!json_valid(doc.str(), &json_err)) {
    std::fprintf(stderr, "internal error: report is not valid JSON: %s\n",
                 json_err.c_str());
    return 3;
  }
  if (has_flag(f, "out")) {
    const std::string path = get_str(f, "out", "rt.json");
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    os << doc.str();
    std::fprintf(stderr, "wrote telemetry report to %s\n", path.c_str());
  } else {
    std::fputs(doc.str().c_str(), stdout);
  }

  const bool ok = out.completed && audit.ok() &&
                  (!gathering_required || out.gathering_ok) &&
                  (!majority_required || out.majority_ok) &&
                  (!is_consensus || verdict.ok());
  if (is_consensus)
    std::fprintf(stderr, "consensus: %s\n", verdict.summary().c_str());
  if (!ok)
    std::fprintf(stderr,
                 "rt run failed: completed=%d audit_ok=%d gathering=%d/%d "
                 "majority=%d/%d consensus=%d/%d\n",
                 (int)out.completed, (int)audit.ok(), (int)out.gathering_ok,
                 (int)gathering_required, (int)out.majority_ok,
                 (int)majority_required, (int)(!is_consensus || verdict.ok()),
                 (int)is_consensus);
  return ok ? 0 : 1;
}

int cmd_spans(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab spans --in FLIGHT.log [--out TRACE.json]\n"
        "convert a flight log recorded by `gossiplab rt --spans` into Chrome\n"
        "trace-event JSON (asyncgossip-spans-v1; open in ui.perfetto.dev) and\n"
        "print the per-message delivery wall-latency percentiles next to the\n"
        "realized d+delta budget\n"
        "    --in PATH           flight log to read (required)\n"
        "    --out PATH          write the Chrome trace-event JSON to PATH\n");
    return 0;
  }
  check_flags("spans", f, {"in", "out"});
  if (!has_flag(f, "in")) {
    std::fprintf(stderr, "gossiplab spans: --in FLIGHT.log is required\n");
    return 2;
  }
  const std::string in_path = get_str(f, "in", "rt.flight");
  std::ifstream is(in_path);
  if (!is) {
    std::fprintf(stderr, "cannot open %s for reading\n", in_path.c_str());
    return 2;
  }
  FlightLogHeader header;
  std::vector<FlightRecord> records;
  std::string parse_err;
  if (!read_flight_log(is, &header, &records, &parse_err)) {
    std::fprintf(stderr, "%s: not a flight log: %s\n", in_path.c_str(),
                 parse_err.c_str());
    return 2;
  }

  if (has_flag(f, "out")) {
    std::ostringstream doc;
    write_chrome_trace(doc, header, records);
    std::string json_err;
    if (!json_valid(doc.str(), &json_err)) {
      std::fprintf(stderr, "internal error: trace is not valid JSON: %s\n",
                   json_err.c_str());
      return 3;
    }
    const std::string out_path = get_str(f, "out", "spans.json");
    std::ofstream os(out_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    os << doc.str();
    std::fprintf(stderr,
                 "wrote Chrome trace-event JSON to %s (load it in "
                 "ui.perfetto.dev or chrome://tracing)\n",
                 out_path.c_str());
  }

  const SpanSummary s = summarize_spans(records);
  std::printf("spans: %zu sends, %zu delivers, %zu paired",
              s.sends, s.delivers, s.paired);
  if (header.dropped != 0)
    std::printf(" (%llu ring records dropped — sample, not a full record)",
                (unsigned long long)header.dropped);
  std::printf("\n");
  const double budget_ms =
      (double)(header.realized_d + header.realized_delta) *
      (double)header.tick_us / 1000.0;
  std::printf(
      "delivery wall latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
      "max %.3f ms\n",
      s.p50_us / 1000.0, s.p95_us / 1000.0, s.p99_us / 1000.0,
      s.max_us / 1000.0);
  std::printf(
      "realized d+delta budget: %llu ticks @ %llu us = %.3f ms\n",
      (unsigned long long)(header.realized_d + header.realized_delta),
      (unsigned long long)header.tick_us, budget_ms);
  for (const ZoneTotal& z : s.zones)
    std::printf("zone %-13s %8llu calls  %10.3f ms total\n", z.name.c_str(),
                (unsigned long long)z.count, z.total_ms);
  return 0;
}

int cmd_fuzz(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab fuzz [flags]\n"
        "sample oblivious-adversary configurations across every algorithm,\n"
        "run each under the invariant auditor + gossip postconditions, and\n"
        "shrink the first failing case to a replayable repro artifact\n"
        "    --iters K           cases to sample (default 200)\n"
        "    --seed S            fuzz stream seed (default 1)\n"
        "    --budget-ms T       wall-clock budget, 0 = unlimited (default 0)\n"
        "    --out PREFIX        artifact prefix; a failure writes\n"
        "                        PREFIX.spec.json + PREFIX.trace (default\n"
        "                        fuzz-repro)\n"
        "    --inject NAME       test-only fault injection into an offline\n"
        "                        copy of the event stream:\n"
        "                        late-delivery|double-step|phantom-crash\n"
        "exit status: 0 no failure found, 1 failure found and shrunk\n");
    return 0;
  }
  check_flags("fuzz", f, {"iters", "seed", "budget-ms", "out", "inject"});
  GossipFuzzOptions opt;
  opt.fuzz.iterations = get_u64(f, "iters", 200);
  opt.fuzz.seed = get_u64(f, "seed", 1);
  opt.fuzz.time_budget_ms = get_u64(f, "budget-ms", 0);
  opt.artifact_prefix = get_str(f, "out", "fuzz-repro");
  const std::string inject = get_str(f, "inject", "");
  if (!inject.empty() && !event_mutator_from_string(inject, &opt.mutate)) {
    std::fprintf(stderr, "unknown --inject mutator: %s\n", inject.c_str());
    return 2;
  }
  std::ostringstream log;
  opt.log = &log;
  const GossipFuzzResult result = run_gossip_fuzz(opt);
  std::fputs(log.str().c_str(), stdout);
  if (!result.found_failure) return 0;
  std::printf("replay with: gossiplab replay --in %s\n",
              result.spec_artifact.empty() ? "<artifact>"
                                           : result.spec_artifact.c_str());
  return 1;
}

int cmd_replay(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab replay --in ARTIFACT.spec.json\n"
        "re-execute an asyncgossip-repro-v1 artifact (gossiplab fuzz output)\n"
        "and verify the engine trace hash against the pinned fingerprint\n"
        "exit status: 0 hash matches, 1 mismatch, 2 unreadable artifact\n");
    return 0;
  }
  check_flags("replay", f, {"in"});
  const std::string path = get_str(f, "in", "");
  if (path.empty()) {
    std::fprintf(stderr, "replay: --in ARTIFACT.spec.json is required\n");
    return 2;
  }
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "replay: cannot open %s\n", path.c_str());
    return 2;
  }
  ReproArtifact artifact;
  std::string error;
  if (!read_repro_json(is, &artifact, &error)) {
    std::fprintf(stderr, "replay: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  if (!artifact.failure.empty())
    std::printf("pinned failure: %s\n", artifact.failure.c_str());
  std::string detail;
  const bool match = replay_repro(artifact, &detail);
  std::printf("%s\n", detail.c_str());
  return match ? 0 : 1;
}

int cmd_statcheck(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab statcheck [flags]\n"
        "statistical check of the paper's Table 1 envelopes for EARS and\n"
        "TEARS: per-cell trial batches, one-sided quantile tests, constant\n"
        "fitted on the smallest-n calibration column\n"
        "    --trials K          seeds per cell (default 12)\n"
        "    --seed S            base seed (default 1)\n"
        "    --jobs J            worker threads (default 0 = all hardware)\n"
        "    --n N1,N2,...       population grid (default 12,16,24,32)\n"
        "    --fpct P            crash budget as %% of n (default 25)\n"
        "    --quantile Q        order statistic in (0,1] (default 0.9)\n"
        "    --slack C           calibration slack factor (default 3.0)\n"
        "    --out PATH          write asyncgossip-statcheck-v1 JSON to PATH\n"
        "                        (default: stdout)\n"
        "exit status: 0 all cells pass, 1 a cell failed, 3 internal error\n");
    return 0;
  }
  check_flags("statcheck", f, {"trials", "seed", "jobs", "n", "fpct",
                               "quantile", "slack", "out"});
  GossipStatCheckOptions opt;
  opt.trials = get_u64(f, "trials", 12);
  opt.seed = get_u64(f, "seed", 1);
  opt.jobs = get_u64(f, "jobs", 0);
  if (has_flag(f, "n")) {
    opt.ns.clear();
    for (const std::uint64_t n : parse_list(get_str(f, "n", "")))
      opt.ns.push_back(static_cast<std::size_t>(n));
  }
  opt.f_fraction = static_cast<double>(get_u64(f, "fpct", 25)) / 100.0;
  opt.stat.quantile = get_double(f, "quantile", 0.9);
  opt.stat.slack = get_double(f, "slack", 3.0);
  std::ostringstream log;
  opt.log = &log;
  const StatReport report = run_gossip_statcheck(opt);
  std::fputs(log.str().c_str(), stderr);

  auto run_info = statcheck_run_info(opt);
  run_info.insert(run_info.begin(), {"tool", "gossiplab statcheck"});
  std::ostringstream doc;
  write_statcheck_json(doc, report, run_info);
  std::string json_err;
  if (!json_valid(doc.str(), &json_err)) {
    std::fprintf(stderr, "internal error: statcheck report is not valid "
                 "JSON: %s\n", json_err.c_str());
    return 3;
  }
  if (has_flag(f, "out")) {
    const std::string path = get_str(f, "out", "statcheck.json");
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 2;
    }
    os << doc.str();
    std::fprintf(stderr, "wrote statcheck report to %s\n", path.c_str());
  } else {
    std::fputs(doc.str().c_str(), stdout);
  }
  return report.ok() ? 0 : 1;
}

// Shared replica-group flags consumed by group_from_flags (serve, and
// loadgen's inproc target).
#define GROUP_FLAG_LIST                                                       \
  "alg", "algorithm", "n", "f", "d", "delta", "seed", "batch", "crashes",     \
      "crash-horizon", "stall-p", "log"

constexpr const char* kGroupFlagHelp =
    "  replica-group flags (the service's consensus commit path):\n"
    "    --alg NAME          cr-ears|cr-sears|cr-tears (default cr-tears)\n"
    "    --algorithm NAME    alias for --alg\n"
    "    --n N --f F         replicas / tolerated crashes (default 8, (n-1)/2)\n"
    "    --d D --delta DD    per-slot delivery / scheduling bounds (default 2, 2)\n"
    "    --seed S            group seed: fault plan + per-slot engines (default 1)\n"
    "    --batch K           max commands per consensus slot (default 512)\n"
    "    --crashes K         fault plan: replicas to crash over the run; may\n"
    "                        exceed --f to exercise honest unavailability\n"
    "    --crash-horizon T   crash slots drawn in [1, T] (default 64)\n"
    "    --stall-p P         per-slot stall probability (d inflated 4x)\n"
    "    --log PATH          stream the committed log (svc-log-v1) to PATH\n";

svc::ReplicaGroupConfig group_from_flags(const char* cmd, const Flags& f) {
  svc::ReplicaGroupConfig g;
  g.n = get_u64(f, "n", 8);
  g.f = get_u64(f, "f", g.n >= 1 ? (g.n - 1) / 2 : 0);
  g.algorithm =
      parse_algorithm(get_str(f, "alg", get_str(f, "algorithm", "cr-tears")));
  if (!is_consensus_algorithm(g.algorithm)) {
    std::fprintf(stderr,
                 "gossiplab %s: the service commits through consensus; --alg "
                 "must be cr-ears|cr-sears|cr-tears\n",
                 cmd);
    std::exit(2);
  }
  if (g.n < 3 || g.f >= (g.n + 1) / 2) {
    std::fprintf(stderr,
                 "gossiplab %s: need n >= 3 and f < n/2 (got n=%zu f=%zu)\n",
                 cmd, g.n, g.f);
    std::exit(2);
  }
  g.d = get_u64(f, "d", 2);
  g.delta = get_u64(f, "delta", 2);
  g.seed = get_u64(f, "seed", 1);
  g.inject_crashes = get_u64(f, "crashes", 0);
  g.crash_horizon_slots = get_u64(f, "crash-horizon", 64);
  g.stall_probability = get_double(f, "stall-p", 0.0);
  if (g.stall_probability < 0.0 || g.stall_probability > 1.0) {
    std::fprintf(stderr, "gossiplab %s: --stall-p must be in [0,1]\n", cmd);
    std::exit(2);
  }
  return g;
}

/// Appends the service's slot/commit counters to a bench-v1 counter list.
void append_service_counters(const svc::KvServiceStats& stats,
                             std::vector<std::pair<std::string, double>>* c) {
  c->insert(c->end(),
            {
                {"committed", (double)stats.committed},
                {"slots", (double)stats.slots},
                {"slots_unavailable", (double)stats.slots_unavailable},
                {"slots_stalled", (double)stats.slots_stalled},
                {"consensus_messages", (double)stats.consensus_messages},
                {"consensus_bytes", (double)stats.consensus_bytes},
                {"consensus_ticks", (double)stats.consensus_ticks},
                {"max_batch", (double)stats.max_batch},
            });
}

int write_bench_report(const Flags& f, const char* suite, BenchCaseRow row) {
  const std::string path = get_str(f, "json", "");
  if (path.empty()) return 0;
  std::ostringstream doc;
  write_bench_json(doc, suite, {std::move(row)});
  std::string json_err;
  if (!json_valid(doc.str(), &json_err)) {
    std::fprintf(stderr, "internal error: %s report is not valid JSON: %s\n",
                 suite, json_err.c_str());
    return 3;
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 2;
  }
  os << doc.str();
  std::fprintf(stderr, "wrote %s report to %s\n", suite, path.c_str());
  return 0;
}

int cmd_serve(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab serve --port P [flags]\n"
        "run the replicated KV service behind a loopback UDP front-end for a\n"
        "fixed duration, then print the serving counters (docs/SERVING.md)\n"
        "    --port P            UDP port on 127.0.0.1 (required; 0 = ephemeral,\n"
        "                        the bound port is printed on stdout)\n"
        "    --duration S        seconds to serve (default 10)\n"
        "    --json PATH         write an asyncgossip-bench-v1 report "
        "(suite \"serve\")\n%s",
        kGroupFlagHelp);
    return 0;
  }
  check_flags("serve", f, {GROUP_FLAG_LIST, "port", "duration", "json"});
  if (!has_flag(f, "port")) {
    std::fprintf(stderr,
                 "gossiplab serve: --port is required (0 = ephemeral)\n");
    return 2;
  }
  const double duration = get_double(f, "duration", 10.0);
  if (duration <= 0.0) {
    std::fprintf(stderr, "gossiplab serve: --duration must be > 0\n");
    return 2;
  }
  svc::KvServiceConfig cfg;
  cfg.group = group_from_flags("serve", f);
  cfg.batch_limit = get_u64(f, "batch", 512);
  if (cfg.batch_limit == 0) {
    std::fprintf(stderr, "gossiplab serve: --batch must be >= 1\n");
    return 2;
  }
  std::ofstream log_file;
  if (has_flag(f, "log")) {
    log_file.open(get_str(f, "log", "svc.log"));
    if (!log_file) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   get_str(f, "log", "svc.log").c_str());
      return 2;
    }
    cfg.log_out = &log_file;
  }
  svc::KvService service(cfg);
  svc::UdpKvServer server(&service,
                          (std::uint16_t)get_u64(f, "port", 0));
  if (!server.ok()) {
    std::fprintf(stderr, "gossiplab serve: cannot bind 127.0.0.1:%llu\n",
                 (unsigned long long)get_u64(f, "port", 0));
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (%s n=%zu f=%zu seed=%llu)\n",
              (unsigned)server.port(), to_string(cfg.group.algorithm),
              cfg.group.n, cfg.group.f, (unsigned long long)cfg.group.seed);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  server.stop();
  service.stop();
  const svc::KvServiceStats stats = service.stats();
  std::printf("served %llu requests (%llu malformed datagrams dropped)\n",
              (unsigned long long)server.requests(),
              (unsigned long long)server.malformed());
  std::printf(
      "  committed   %llu over %llu slots (%llu unavailable, %llu stalled, "
      "max batch %llu)\n",
      (unsigned long long)stats.committed, (unsigned long long)stats.slots,
      (unsigned long long)stats.slots_unavailable,
      (unsigned long long)stats.slots_stalled,
      (unsigned long long)stats.max_batch);
  std::printf("  consensus   %llu msgs, %llu bytes, %llu ticks\n",
              (unsigned long long)stats.consensus_messages,
              (unsigned long long)stats.consensus_bytes,
              (unsigned long long)stats.consensus_ticks);
  BenchCaseRow row;
  row.name = std::string("serve/") + to_string(cfg.group.algorithm) +
             "/n:" + std::to_string(cfg.group.n) +
             "/seed:" + std::to_string(cfg.group.seed);
  row.counters = {{"requests", (double)server.requests()},
                  {"malformed", (double)server.malformed()},
                  {"unavailable", (double)stats.unavailable}};
  append_service_counters(stats, &row.counters);
  return write_bench_report(f, "serve", std::move(row));
}

int cmd_loadgen(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab loadgen --target inproc|udp [flags]\n"
        "drive an open-loop workload (request k due at k/rate seconds; never\n"
        "paced by responses) and report commit-latency percentiles and\n"
        "throughput; exit 1 when any request went unacked or unavailable\n"
        "    --target KIND       inproc (own service in-process; the >= 1M\n"
        "                        soak path) | udp (a running `gossiplab serve`)\n"
        "    --port P            UDP target port on 127.0.0.1\n"
        "    --rate R            requests/second; 0 = unpaced (default 0)\n"
        "    --duration S        with --rate: issue for S seconds\n"
        "                        (requests = rate * duration)\n"
        "    --requests K        total requests (alternative to\n"
        "                        --rate + --duration)\n"
        "    --keys K            key space size (default 1024)\n"
        "    --value-bytes B     value payload size, 1..4000 (default 16)\n"
        "    --clients C         logical clients (default 4)\n"
        "    --get-frac P --cas-frac P\n"
        "                        workload mix (defaults 0.4, 0.1; rest puts)\n"
        "    --obs PATH          stream observations (svc-obs-v1) to PATH for\n"
        "                        `gossiplab histcheck`\n"
        "    --drain-timeout S   UDP: grace for trailing responses (default 5)\n"
        "    --json PATH         write an asyncgossip-bench-v1 report "
        "(suite \"loadgen\")\n"
        "  inproc also takes the replica-group flags:\n%s",
        kGroupFlagHelp);
    return 0;
  }
  check_flags("loadgen", f,
              {GROUP_FLAG_LIST, "target", "port", "rate", "duration",
               "requests", "keys", "value-bytes", "clients", "get-frac",
               "cas-frac", "obs", "drain-timeout", "json"});
  const std::string target = get_str(f, "target", "");
  if (target != "inproc" && target != "udp") {
    std::fprintf(stderr,
                 "gossiplab loadgen: --target inproc|udp is required\n");
    return 2;
  }
  svc::LoadgenConfig lc;
  lc.rate = get_double(f, "rate", 0.0);
  if (lc.rate < 0.0) {
    std::fprintf(stderr, "gossiplab loadgen: --rate must be >= 0\n");
    return 2;
  }
  if (has_flag(f, "requests")) {
    lc.requests = get_u64(f, "requests", 0);
  } else {
    const double duration = get_double(f, "duration", 0.0);
    lc.requests = (std::uint64_t)(lc.rate * duration);
  }
  if (lc.requests == 0) {
    std::fprintf(stderr,
                 "gossiplab loadgen: need --requests K, or --rate R with "
                 "--duration S\n");
    return 2;
  }
  lc.keys = get_u64(f, "keys", 1024);
  lc.value_bytes = get_u64(f, "value-bytes", 16);
  // Tokens are capped at 4096 printable bytes and a request datagram must
  // fit the 8 KiB receive buffer with headroom for the other fields.
  if (lc.keys == 0 || lc.value_bytes == 0 || lc.value_bytes > 4000) {
    std::fprintf(stderr,
                 "gossiplab loadgen: --keys must be >= 1 and --value-bytes "
                 "in 1..4000\n");
    return 2;
  }
  lc.seed = get_u64(f, "seed", 1);
  lc.clients = get_u64(f, "clients", 4);
  lc.get_fraction = get_double(f, "get-frac", 0.4);
  lc.cas_fraction = get_double(f, "cas-frac", 0.1);
  if (lc.get_fraction < 0.0 || lc.cas_fraction < 0.0 ||
      lc.get_fraction + lc.cas_fraction > 1.0) {
    std::fprintf(stderr,
                 "gossiplab loadgen: --get-frac/--cas-frac must be >= 0 and "
                 "sum to <= 1\n");
    return 2;
  }
  lc.drain_timeout_s = get_double(f, "drain-timeout", 5.0);
  std::ofstream obs_file;
  if (has_flag(f, "obs")) {
    obs_file.open(get_str(f, "obs", "svc.obs"));
    if (!obs_file) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   get_str(f, "obs", "svc.obs").c_str());
      return 2;
    }
    lc.obs_out = &obs_file;
  }

  svc::LoadgenReport report;
  svc::KvServiceStats stats;
  bool have_stats = false;
  if (target == "udp") {
    const std::uint64_t port = get_u64(f, "port", 0);
    if (port == 0 || port > 65535) {
      std::fprintf(stderr,
                   "gossiplab loadgen: --target udp needs --port 1..65535\n");
      return 2;
    }
    lc.udp_port = (std::uint16_t)port;
    report = svc::run_loadgen(lc);
  } else {
    svc::KvServiceConfig cfg;
    cfg.group = group_from_flags("loadgen", f);
    cfg.batch_limit = get_u64(f, "batch", 512);
    if (cfg.batch_limit == 0) {
      std::fprintf(stderr, "gossiplab loadgen: --batch must be >= 1\n");
      return 2;
    }
    std::ofstream log_file;
    if (has_flag(f, "log")) {
      log_file.open(get_str(f, "log", "svc.log"));
      if (!log_file) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     get_str(f, "log", "svc.log").c_str());
        return 2;
      }
      cfg.log_out = &log_file;
    }
    svc::KvService service(cfg);
    lc.inproc = &service;
    report = svc::run_loadgen(lc);
    service.stop();
    stats = service.stats();
    have_stats = true;
  }

  std::printf("loadgen %s: %llu attempted, %llu acked, %llu unavailable, "
              "%llu unacked -> %s\n",
              target.c_str(), (unsigned long long)report.attempted,
              (unsigned long long)report.acked,
              (unsigned long long)report.unavailable,
              (unsigned long long)report.unacked,
              report.complete ? "complete" : "INCOMPLETE");
  std::printf(
      "  commit latency  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
      (double)report.p50_us / 1000.0, (double)report.p95_us / 1000.0,
      (double)report.p99_us / 1000.0, (double)report.max_us / 1000.0);
  std::printf("  throughput      %.1f acked/s over %.1f ms\n",
              report.achieved_rate, report.wall_ms);
  if (have_stats)
    std::printf(
        "  service         %llu slots (%llu unavailable, %llu stalled), "
        "max batch %llu\n",
        (unsigned long long)stats.slots,
        (unsigned long long)stats.slots_unavailable,
        (unsigned long long)stats.slots_stalled,
        (unsigned long long)stats.max_batch);

  BenchCaseRow row;
  row.name = "loadgen/" + target + "/seed:" + std::to_string(lc.seed);
  row.counters = {
      {"attempted", (double)report.attempted},
      {"acked", (double)report.acked},
      {"unavailable", (double)report.unavailable},
      {"unacked", (double)report.unacked},
      {"complete", report.complete ? 1.0 : 0.0},
      {"p50_us", (double)report.p50_us},
      {"p95_us", (double)report.p95_us},
      {"p99_us", (double)report.p99_us},
      {"max_us", (double)report.max_us},
      {"achieved_rate", report.achieved_rate},
      {"wall_ms", report.wall_ms},
  };
  if (have_stats) append_service_counters(stats, &row.counters);
  const int json_rc = write_bench_report(f, "loadgen", std::move(row));
  if (json_rc != 0) return json_rc;
  return report.complete ? 0 : 1;
}

int cmd_histcheck(const Flags& f) {
  if (has_flag(f, "help")) {
    std::printf(
        "usage: gossiplab histcheck --log LOG --obs OBS\n"
        "check a committed log (svc-log-v1) against a client observation\n"
        "stream (svc-obs-v1): dense sequencing, replay-consistent results\n"
        "(no stale reads / lost CAS), acked observations present in the log\n"
        "field-for-field, per-client session order, and no trace of\n"
        "unavailable-acked requests\n"
        "    --log PATH          committed log (serve/loadgen --log)\n"
        "    --obs PATH          observation stream (loadgen --obs)\n"
        "exit status: 0 history checks out, 1 violation found, 2 unreadable\n");
    return 0;
  }
  check_flags("histcheck", f, {"log", "obs"});
  if (!has_flag(f, "log") || !has_flag(f, "obs")) {
    std::fprintf(stderr,
                 "gossiplab histcheck: --log LOG and --obs OBS are required\n");
    return 2;
  }
  const std::string log_path = get_str(f, "log", "svc.log");
  const std::string obs_path = get_str(f, "obs", "svc.obs");
  std::ifstream log_is(log_path);
  if (!log_is) {
    std::fprintf(stderr, "cannot open %s for reading\n", log_path.c_str());
    return 2;
  }
  std::ifstream obs_is(obs_path);
  if (!obs_is) {
    std::fprintf(stderr, "cannot open %s for reading\n", obs_path.c_str());
    return 2;
  }
  std::vector<svc::CommittedEntry> log;
  std::vector<svc::Observation> observations;
  std::string error;
  if (!svc::read_log(log_is, &log, &error)) {
    std::fprintf(stderr, "%s: %s\n", log_path.c_str(), error.c_str());
    return 2;
  }
  if (!svc::read_observations(obs_is, &observations, &error)) {
    std::fprintf(stderr, "%s: %s\n", obs_path.c_str(), error.c_str());
    return 2;
  }
  const svc::HistoryReport report = svc::check_history(log, observations);
  std::printf("histcheck: %zu log entries, %zu observations (%zu acked "
              "cross-checked, %zu unavailable)\n",
              report.entries, report.observations, report.acked,
              report.unavailable);
  if (!report.ok) {
    std::printf("FAILED: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("ok: committed history is consistent\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: gossiplab <gossip|sweep|consensus|lowerbound|trace|"
               "report|rt|spans|fuzz|replay|statcheck|serve|loadgen|"
               "histcheck> [--flag value ...]\n"
               "run `gossiplab <subcommand> --help` for flags, or see the\n"
               "tools/gossiplab.cpp header for examples\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  // Install the cr-* consensus palette entries and the ConsensusPayload wire
  // codec up front: multi-process `rt --transport udp` workers re-exec this
  // binary, so registration here covers coordinator and workers alike.
  register_consensus_algorithms();
  svc::register_consensus_wire();
  try {
    const std::string cmd = argv[1];
    const Flags flags = parse_flags(argc, argv, 2);
    if (cmd == "gossip") return cmd_gossip(flags);
    if (cmd == "sweep") return cmd_sweep(flags);
    if (cmd == "consensus") return cmd_consensus(flags);
    if (cmd == "lowerbound") return cmd_lowerbound(flags);
    if (cmd == "trace") return cmd_trace(flags);
    if (cmd == "report") return cmd_report(flags);
    if (cmd == "rt") return cmd_rt(flags);
    if (cmd == "spans") return cmd_spans(flags);
    if (cmd == "fuzz") return cmd_fuzz(flags);
    if (cmd == "replay") return cmd_replay(flags);
    if (cmd == "statcheck") return cmd_statcheck(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "loadgen") return cmd_loadgen(flags);
    if (cmd == "histcheck") return cmd_histcheck(flags);
    if (cmd == "--help" || cmd == "help") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gossiplab: %s\n", e.what());
    return 3;
  }
  usage();
  return 2;
}
