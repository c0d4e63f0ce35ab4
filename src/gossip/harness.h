// One-call experiment harness: build processes + oblivious adversary +
// engine from a declarative spec, run to quiescence, return the outcome.
// Tests, benches and examples all funnel through this, so every experiment
// is reproducible from its GossipSpec alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gossip/completion.h"
#include "sim/audit.h"
// aglint:allow(AG-LAY-002) the harness is the runner seam itself: it
// builds and drives the Engine from a GossipSpec. Algorithm files (tears,
// epidemic, ...) must not include sim/engine.h; this one alone may.
#include "sim/engine.h"
#include "sim/oblivious.h"

namespace asyncgossip {

class TelemetryCollector;
struct TelemetryConfig;
struct GossipSpec;

enum class GossipAlgorithm {
  kTrivial,
  kEars,
  kSears,
  kTears,
  kSync,
  /// EARS with the informed-list progress control disabled (ablation):
  /// quiescence falls back to a fixed local-step budget.
  kEarsNoInformedList,
  /// Message-frugal cascading foil for the Theorem 1 Case 2 construction
  /// (see gossip/lazy.h); not a Table 1 contender.
  kLazy,
  /// Deterministic EARS variant: cyclic instead of random targets (the
  /// paper's open question about deterministic asynchronous gossip).
  kRoundRobin,
  /// Canetti-Rabin consensus over the gossip transports (paper Section 6 /
  /// Table 2). These run through the same spec/engine/rt seams as the plain
  /// gossip algorithms; process construction is delegated to the consensus
  /// layer via set_consensus_process_factory (the gossip layer cannot
  /// include consensus headers).
  kCrEars,
  kCrSears,
  kCrTears,
};

const char* to_string(GossipAlgorithm algorithm);

/// Inverse of to_string (the same flag-style names, e.g. "ears",
/// "ears-no-informed-list"). Returns false on an unknown name, leaving
/// *out untouched. Shared by gossiplab's flag parsing and the
/// repro-artifact reader (gossip/spec_json.h).
bool algorithm_from_string(const std::string& name, GossipAlgorithm* out);

/// True for the consensus-over-gossip palette entries (kCrEars/kCrSears/
/// kCrTears). These have different completion semantics: they solve binary
/// consensus, not rumor gathering, so the gathering/majority postconditions
/// do not apply and runtime drivers judge them via per-process final notes
/// instead (see consensus/cr_gossip.h).
bool is_consensus_algorithm(GossipAlgorithm algorithm);

/// Hook through which the consensus layer plugs its process construction
/// into make_gossip_processes without a gossip->consensus dependency edge.
/// The factory must build all n processes for the spec (inputs derived
/// deterministically from spec.seed so independent builders — e.g. one per
/// multiproc worker — agree on every process's input). Registration is
/// process-global and must happen before the first cr-* spec is built;
/// consensus::register_consensus_algorithms() does it.
using ConsensusProcessFactory =
    std::vector<std::unique_ptr<Process>> (*)(const GossipSpec& spec);
void set_consensus_process_factory(ConsensusProcessFactory factory);

/// Default for GossipSpec::engine_jobs: the AG_ENGINE_JOBS environment
/// variable parsed as a non-negative integer (0 = hardware concurrency), or
/// 1 (serial) when unset or unparsable. Read once per call so tests can
/// vary the environment.
std::size_t default_engine_jobs();

struct GossipSpec {
  GossipAlgorithm algorithm = GossipAlgorithm::kEars;
  std::size_t n = 0;
  std::size_t f = 0;  // crash budget; also the algorithms' tolerance knob
  Time d = 1;
  Time delta = 1;
  std::uint64_t seed = 1;

  // Adversary shape. Crash times are drawn in [0, crash_horizon).
  SchedulePattern schedule = SchedulePattern::kLockStep;
  DelayPattern delay = DelayPattern::kUniform;
  Time crash_horizon = 64;

  // Algorithm knobs (defaults match the paper; see module headers).
  double sears_epsilon = 0.5;
  double sears_fanout_constant = 1.0;
  double ears_shutdown_constant = 4.0;
  double tears_a_constant = 4.0;
  double tears_kappa_constant = 8.0;
  double sync_rounds_constant = 3.0;
  std::size_t lazy_fanout = 2;
  std::uint64_t fallback_step_budget = 0;  // kEarsNoInformedList only

  /// Step budget for the run; 0 = an automatic generous bound.
  Time max_steps = 0;

  /// Worker threads for sharded intra-run stepping (EngineConfig::jobs):
  /// 1 = serial, 0 = hardware concurrency, k = exactly k. The default
  /// honors the AG_ENGINE_JOBS environment variable (default_engine_jobs()),
  /// falling back to serial. Results are bit-identical for every value.
  std::size_t engine_jobs = default_engine_jobs();

  /// If true, an InvariantAuditor (sim/audit.h) observes the run and
  /// independently re-checks the full (d, delta, f) model contract;
  /// run_gossip_spec throws ModelViolation if it finds anything. Use
  /// run_audited_gossip_spec to inspect the report instead of throwing.
  bool audit = false;

  /// Optional run telemetry (sim/telemetry.h). When non-null, the collector
  /// is attached as an extra observer + probe sink for the run and
  /// finalize()d afterwards; it must outlive the call and have been built
  /// for this spec's (n, d, delta) — telemetry_config(spec) does that.
  /// Telemetry never perturbs the run (same trace hash and metrics).
  TelemetryCollector* telemetry = nullptr;

  /// Optional flight-recorder ring (common/flight_recorder.h). When
  /// non-null the engine records causal send/deliver spans and hot-path
  /// profiling zones into it; the ring must outlive the call. Like
  /// telemetry, recording never perturbs the run — trace hash, Metrics and
  /// telemetry output are bit-identical with the ring attached or not.
  FlightRing* flight = nullptr;
};

/// TelemetryConfig matching a spec's model parameters.
TelemetryConfig telemetry_config(const GossipSpec& spec);

/// Builds the process vector for a spec (exposed so consensus and the
/// lower-bound driver can reuse algorithm construction).
std::vector<std::unique_ptr<Process>> make_gossip_processes(
    const GossipSpec& spec);

/// Builds the engine (processes + oblivious adversary per spec).
Engine make_gossip_engine(const GossipSpec& spec);

/// Runs the spec to quiescence and reports the outcome. With spec.audit
/// set, the run is audited and a non-empty ViolationReport throws
/// ModelViolation carrying the report summary.
GossipOutcome run_gossip_spec(const GossipSpec& spec);

/// A gossip outcome together with the audit findings of the run.
struct AuditedGossipOutcome {
  GossipOutcome outcome;
  ViolationReport audit;
  /// The engine's full-trace FNV hash for the run (determinism fingerprint).
  std::uint64_t trace_hash = 0;
};

/// Runs the spec with an InvariantAuditor attached (regardless of
/// spec.audit) and returns the accumulated report for inspection — the
/// auditor never throws, so deliberately hostile runs can be examined.
AuditedGossipOutcome run_audited_gossip_spec(const GossipSpec& spec);

/// Default step budget used when spec.max_steps == 0.
Time default_step_budget(const GossipSpec& spec);

/// Bytes of informed-list state the spec's processes hold once every row is
/// present: n processes x n rows x ceil(n/64) 64-bit words for ears, sears
/// and round-robin, 0 for the algorithms that keep no informed list. In
/// flight, each send's snapshot is a copy of one process's list on top of
/// this. Computed in floating point: for large n it exceeds 2^64.
double informed_list_state_bytes(const GossipSpec& spec);

/// Whether the algorithm's contract requires full rumor gathering at
/// completion under this spec's model parameters: tears solves majority
/// gossip only, lazy promises completion only, and the synchronous
/// baseline's spread guarantee holds only in the d = delta = 1 regime its
/// fixed round budget assumes. Shared by the fuzz oracle and the real-time
/// runtime's postcondition checks (rt/driver.h), so "what must this run
/// achieve" has exactly one definition.
bool gossip_requires_gathering(const GossipSpec& spec);

/// Same, for the majority-gossip requirement (everyone knows > n/2
/// rumors): lazy is exempt, sync only outside d = delta = 1.
bool gossip_requires_majority(const GossipSpec& spec);

/// Canonical case label for a spec: "ears/n:256/f:64/d:4/delta:3". Shared
/// by the bench JSON report and `gossiplab sweep` so the same experiment
/// carries the same name everywhere.
std::string spec_label(const GossipSpec& spec);

/// One sweep entry's result: the outcome plus the engine's trace hash — the
/// fingerprint the determinism tests compare across worker counts.
struct GossipSweepResult {
  GossipOutcome outcome;
  std::uint64_t trace_hash = 0;
};

/// Runs every spec and returns the results in input order, bit-identical
/// for any `jobs` value (0 = hardware concurrency, 1 = run inline). Specs
/// honor their audit flag exactly like run_gossip_spec. Runs execute
/// concurrently, so with jobs > 1 any spec.telemetry collectors must be
/// distinct objects (one per spec). If a run throws (step-budget API error,
/// audit violation, ...), the remaining runs still finish and the exception
/// of the lowest-index failing spec is rethrown; when more than one spec
/// failed, the rethrown message additionally records the total failure
/// count and the labels of the first few other failing specs.
std::vector<GossipSweepResult> run_gossip_sweep(
    const std::vector<GossipSpec>& specs, std::size_t jobs = 0);

}  // namespace asyncgossip
