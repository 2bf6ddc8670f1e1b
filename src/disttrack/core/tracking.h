// Umbrella public API: one options struct, one algorithm enum, and three
// factory functions covering every protocol in Table 1. Downstream users
// include this header and program against the sim::*TrackerInterface
// abstractions; examples/ shows typical usage.

#ifndef DISTTRACK_CORE_TRACKING_H_
#define DISTTRACK_CORE_TRACKING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "disttrack/common/status.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace core {

/// Which Table-1 protocol family to instantiate.
enum class Algorithm {
  kDeterministic,  ///< trivial count / [29] frequency / [29] rank
  kRandomized,     ///< the paper's §2–§4 protocols
  kSampling,       ///< continuous distributed sampling [9]
};

/// Human-readable algorithm name (for reports and logs).
std::string AlgorithmName(Algorithm algorithm);

/// Unified construction options. Fields irrelevant to a given algorithm
/// are ignored (e.g., seed for deterministic trackers).
struct TrackerOptions {
  int num_sites = 8;
  double epsilon = 0.01;
  uint64_t seed = 1;

  /// Variance head-room for the randomized protocols; <= 0 selects the
  /// per-protocol default (2 for count, 4 for frequency/rank).
  double confidence_factor = 0.0;

  /// Sample capacity multiplier for Algorithm::kSampling.
  double sample_boost = 4.0;

  /// Dyadic levels for the deterministic rank tracker (values are masked
  /// into [0, 2^universe_bits)).
  int universe_bits = 12;

  /// > 1 wraps the tracker in a median booster with this many independent
  /// copies (§1.2's all-times construction). Must be odd when > 1.
  int median_copies = 1;

  /// Ablations (DESIGN.md §5); only honored by the randomized protocols.
  bool naive_boundary_estimator = false;
  bool virtual_site_split = true;

  /// When true (default) the randomized protocols realize their
  /// per-arrival Bernoulli(p) coins with geometric skip sampling (see
  /// common/skip_sampler.h) — identical in distribution, much cheaper per
  /// arrival. False selects the historical one-RNG-draw-per-arrival path;
  /// kept for A/B benchmarking (bench_throughput) and equivalence tests.
  bool use_skip_sampling = true;

  /// When true (default) the randomized rank tracker feeds batched
  /// arrivals to its compactor tree via CompactorSummary::InsertBatch —
  /// equivalent in distribution (same mean-zero ±2^level martingale, see
  /// summaries/compactor_summary.h), not bit-identical. False keeps the
  /// per-element feed for A/B benchmarking and exact-equivalence tests.
  bool use_batch_compaction = true;

  /// When true (default) the randomized rank tracker consolidates each
  /// site's sorted runs once in a shared run-merge ladder
  /// (summaries/run_ladder.h) and every tree level pulls borrowed views
  /// of the merged sequence, instead of staging and re-merging its own
  /// copy at all h+1 levels. Bit-identical estimates, communication, and
  /// rounds either way (pinned by tests/batch_equivalence_test.cc); kept
  /// for A/B benchmarking.
  bool use_shared_ladder = true;

  Status Validate() const;
};

/// Creates a count tracker. On success `*out` owns the tracker.
Status MakeCountTracker(Algorithm algorithm, const TrackerOptions& options,
                        std::unique_ptr<sim::CountTrackerInterface>* out);

/// Creates a frequency tracker. On success `*out` owns the tracker.
Status MakeFrequencyTracker(
    Algorithm algorithm, const TrackerOptions& options,
    std::unique_ptr<sim::FrequencyTrackerInterface>* out);

/// Creates a rank tracker. On success `*out` owns the tracker.
Status MakeRankTracker(Algorithm algorithm, const TrackerOptions& options,
                       std::unique_ptr<sim::RankTrackerInterface>* out);

}  // namespace core
}  // namespace disttrack

#endif  // DISTTRACK_CORE_TRACKING_H_
