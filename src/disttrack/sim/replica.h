// Coordinator-side estimator replicas, rebuilt from delivered wire frames
// alone.
//
// Each replica consumes the exact frame stream a tracker's WireTap emits
// and reproduces the coordinator half of the estimator bit for bit. The
// service coordinator (service/coordinator_core.h) serves its query API
// from these classes, and the lockstep suites pin them against a serial
// replay of the grant journal, fault-free and under the pump's fault
// storms (tests/fault_tolerance_test.cc). Delivery contract: per site
// frames arrive in FIFO order and exactly once — the service's streams
// are FIFO, and sequence-number dedup (transport.h) drops the frames a
// resumed site regenerates. The replicas trust their input: the
// coordinator drops frames an honest site could not send (wrong site id,
// RankReplica::Admits) before they get here.

#ifndef DISTTRACK_SIM_REPLICA_H_
#define DISTTRACK_SIM_REPLICA_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "disttrack/common/math_util.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {

/// Coordinator half of CoarseTracker, rebuilt from delivered coarse
/// reports alone. The kBroadcast frames the coordinator fans out are
/// *not* applied — deriving the broadcast from the report that triggered
/// it keeps the replica independent of cross-link delivery order (the
/// downlink copy races the uplink report under faults).
struct CoarseMirror {
  uint64_t n_prime = 0;
  uint64_t n_bar = 0;
  uint64_t round = 0;

  /// Applies one coarse report delta; true iff it triggers a broadcast
  /// (same condition as CoarseTracker::ReportAndMaybeBroadcast).
  bool ApplyReport(uint64_t delta) {
    n_prime += delta;
    if (n_prime >= std::max<uint64_t>(1, 2 * n_bar)) {
      n_bar = n_prime;
      ++round;
      return true;
    }
    return false;
  }

  /// Broadcast certificate for runs inside the current round: true iff
  /// sites whose local counts end at `totals[i]` cannot trigger a
  /// broadcast, under any interleaving of their arrivals. Exact, by
  /// CoarseTracker::BatchCannotBroadcast's argument: a site reports at
  /// the power-of-two local counts, so once every run is done n' is
  /// Σ ⌊totals[i]⌋₂, and n' only grows, so no report on the way reached
  /// max(1, 2 n̄) iff the final sum stays below it.
  bool CannotBroadcast(const std::vector<uint64_t>& totals) const {
    uint64_t projected = 0;
    for (uint64_t total : totals) {
      if (total > 0) projected += uint64_t{1} << (63 - __builtin_clzll(total));
    }
    return projected < std::max<uint64_t>(1, 2 * n_bar);
  }
};

// --- Count replica --------------------------------------------------------
// Mirrors the coordinator state of RandomizedCountTracker: 1/p and the
// (sum, count) aggregates over existing reports. Reports and p-halving
// corrections arrive as frames; inv_p evolves at derived broadcasts with
// the same doubling loop the tracker runs, so the estimator expression is
// evaluated on bit-identical operands.

class CountReplica {
 public:
  explicit CountReplica(const count::RandomizedCountOptions& options)
      : options_(options),
        reported_(static_cast<size_t>(options.num_sites), 0) {}

  void Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          uint64_t new_inv_p = InvPFor(coarse_.n_bar);
          while (inv_p_ < new_inv_p) inv_p_ *= 2;
        }
        break;
      case wire::MsgType::kCoinReport: {
        uint64_t& rep = reported_[static_cast<size_t>(msg.site)];
        if (rep > 0) reported_sum_ -= rep;
        else ++reported_count_;
        rep = msg.a;
        reported_sum_ += rep;
        break;
      }
      case wire::MsgType::kCorrection: {
        // Emitted only for sites holding a report (§2.1 thinning ritual).
        uint64_t& rep = reported_[static_cast<size_t>(msg.site)];
        reported_sum_ -= rep;
        --reported_count_;
        rep = msg.a;
        if (rep > 0) {
          reported_sum_ += rep;
          ++reported_count_;
        }
        break;
      }
      default:
        break;
    }
  }

  double Estimate(uint64_t /*query*/) const {
    double inv_p = static_cast<double>(inv_p_);
    if (options_.naive_boundary_estimator) {
      return static_cast<double>(reported_sum_) +
             static_cast<double>(options_.num_sites) * (inv_p - 1.0);
    }
    return static_cast<double>(reported_sum_) +
           static_cast<double>(reported_count_) * (inv_p - 1.0);
  }

  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  uint64_t InvPFor(uint64_t n_bar) const {
    double scaled = options_.epsilon * static_cast<double>(n_bar) /
                    (options_.confidence_factor *
                     std::sqrt(static_cast<double>(options_.num_sites)));
    if (scaled <= 1.0) return 1;
    return FloorPow2(scaled);
  }

  count::RandomizedCountOptions options_;
  CoarseMirror coarse_;
  uint64_t inv_p_ = 1;
  std::vector<uint64_t> reported_;
  uint64_t reported_sum_ = 0;
  uint64_t reported_count_ = 0;
};

// --- Frequency replica ----------------------------------------------------
// Mirrors the coordinator aggregation of RandomizedFrequencyTracker: the
// live per-(item, instance) counters of the current round plus the frozen
// per-item accumulator of completed rounds. Instance lists stay sorted by
// the site-minted instance id — the tracker's own canonical order — so
// the floating-point summation order matches regardless of delivery
// schedule; rounds fold at derived broadcasts with the closing round's p.

class FrequencyReplica {
 public:
  explicit FrequencyReplica(
      const frequency::RandomizedFrequencyOptions& options)
      : options_(options) {}

  void Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          FoldRound();  // with the closing round's inv_p_
          inv_p_ = InvPFor(coarse_.n_bar);
        }
        break;
      case wire::MsgType::kCounterReport:
        ForInstance(&live_[msg.a], msg.b)->cbar = msg.c;
        break;
      case wire::MsgType::kSampleForward: {
        InstanceAgg* agg = ForInstance(&live_[msg.a], msg.b);
        if (agg->cbar == 0) agg->d += 1;
        break;
      }
      case wire::MsgType::kSplitNotice:
        // Site-side bookkeeping only: the split mints a fresh instance id,
        // which future counter/sample frames carry.
        break;
      default:
        break;
    }
  }

  double Estimate(uint64_t item) const {
    double est = 0;
    auto frozen = frozen_.find(item);
    if (frozen != frozen_.end()) est += frozen->second;
    auto live = live_.find(item);
    if (live != live_.end()) est += LiveEstimate(live->second);
    return est;
  }

  /// Every item the replica has state for, with its current estimate
  /// (evaluated through the same Estimate() path a point query uses).
  /// Serves the coordinator's heavy-hitters query: callers filter by
  /// threshold phi * n-hat themselves.
  std::vector<std::pair<uint64_t, double>> ItemEstimates() const {
    std::vector<std::pair<uint64_t, double>> out;
    out.reserve(frozen_.size() + live_.size());
    for (const auto& [item, est] : frozen_) {
      (void)est;
      out.emplace_back(item, Estimate(item));
    }
    for (const auto& [item, agg] : live_) {
      (void)agg;
      if (frozen_.find(item) == frozen_.end()) {
        out.emplace_back(item, Estimate(item));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  struct InstanceAgg {
    uint64_t instance = 0;
    uint64_t cbar = 0;
    uint64_t d = 0;
  };
  struct ItemAgg {
    std::vector<InstanceAgg> instances;  // sorted by instance id
  };

  static InstanceAgg* ForInstance(ItemAgg* agg, uint64_t instance) {
    auto it = std::lower_bound(
        agg->instances.begin(), agg->instances.end(), instance,
        [](const InstanceAgg& a, uint64_t id) { return a.instance < id; });
    if (it != agg->instances.end() && it->instance == instance) return &*it;
    it = agg->instances.insert(it, InstanceAgg{instance, 0, 0});
    return &*it;
  }

  double LiveEstimate(const ItemAgg& agg) const {
    double inv_p = static_cast<double>(inv_p_);
    double est = 0;
    for (const InstanceAgg& inst : agg.instances) {
      if (inst.cbar > 0) {
        est += static_cast<double>(inst.cbar) - 2.0 + 2.0 * inv_p;
      } else if (!options_.naive_boundary_estimator) {
        est -= static_cast<double>(inst.d) * inv_p;
      }
    }
    return est;
  }

  void FoldRound() {
    // Per-item accumulation only — iteration order across items cannot
    // influence any single item's frozen value.
    for (const auto& [item, agg] : live_) {
      double est = LiveEstimate(agg);
      if (est != 0.0) frozen_[item] += est;
    }
    live_.clear();
  }

  uint64_t InvPFor(uint64_t n_bar) const {
    double scaled = options_.epsilon * static_cast<double>(n_bar) /
                    (options_.confidence_factor *
                     std::sqrt(static_cast<double>(options_.num_sites)));
    if (scaled <= 1.0) return 1;
    return FloorPow2(scaled);
  }

  frequency::RandomizedFrequencyOptions options_;
  CoarseMirror coarse_;
  uint64_t inv_p_ = 1;
  std::map<uint64_t, ItemAgg> live_;
  std::map<uint64_t, double> frozen_;
};

// --- Rank replica ---------------------------------------------------------
// Mirrors the coordinator storage of RandomizedRankTracker: per site, the
// instances of algorithm C in stream order, each holding its shipped
// summaries, its live residual window, and its round's 1/p. Per-site FIFO
// delivery gives the replica the tracker's own ordering guarantees: a
// chunk's frames arrive in leaf order, and the coarse report that opens a
// round precedes the round's first summary. Instances are opened lazily
// at their first frame — an instance the tracker created but never fed
// contributes exactly +0.0 to the estimate, so skipping it is FP-safe —
// and closed by the round's derived broadcast or by the chunk-completing
// top summary (first_leaf == 0, end_leaf == num_leaves), which also
// triggers the tracker's drop-covered-summaries prune.

class RankReplica {
 public:
  explicit RankReplica(const rank::RandomizedRankOptions& options)
      : options_(options),
        sites_(static_cast<size_t>(options.num_sites)) {}

  /// False if `msg` is a kRankSummary no honest site ships: its leaf
  /// range must be nonempty and inside the most leaves any round so far
  /// has had (a late frame from an earlier round is legitimate in
  /// freerun), it holds no more values than the largest chunk so far has
  /// arrivals and no more segments than a compactor has levels, and its
  /// segment ends partition `values` in order (Quantile reads
  /// values[0, end) of every segment).
  bool Admits(const wire::Message& msg) const {
    if (msg.type != wire::MsgType::kRankSummary) return true;
    if (msg.a >= msg.b || msg.b > max_leaves_) return false;
    if (msg.values.size() > max_chunk_ || msg.segments.size() > 64) {
      return false;
    }
    uint64_t end = 0;
    for (const auto& segment : msg.segments) {
      if (segment.second < end) return false;
      end = segment.second;
    }
    return end == msg.values.size();
  }

  void Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          RecomputeRoundParams(coarse_.n_bar);
          for (Site& site : sites_) site.open = false;
        }
        break;
      case wire::MsgType::kRankSummary: {
        Site& site = sites_[static_cast<size_t>(msg.site)];
        Instance& inst = Open(&site);
        StoredSummary stored;
        stored.first_leaf = static_cast<uint32_t>(msg.a);
        stored.end_leaf = static_cast<uint32_t>(msg.b);
        stored.values = msg.values;
        stored.segments = msg.segments;
        uint32_t end_leaf = stored.end_leaf;
        inst.summaries.push_back(std::move(stored));
        // Completed leaves are covered: drop their residual samples
        // (mirrors the tracker's leaf-completion prune; residuals arrive
        // in leaf order on the site's FIFO).
        while (inst.residual_begin < inst.residuals.size() &&
               inst.residuals[inst.residual_begin].leaf < end_leaf) {
          ++inst.residual_begin;
        }
        if (stored_covers_chunk(inst.summaries.back())) {
          // Chunk done: keep only the top summary (the tracker's
          // dyadic-cover prune) and close the instance — the next frame
          // from this site opens the successor.
          auto top = std::find_if(
              inst.summaries.begin(), inst.summaries.end(),
              [this](const StoredSummary& s) {
                return s.first_leaf == 0 && s.end_leaf == num_leaves_;
              });
          StoredSummary keep = std::move(*top);
          inst.summaries.clear();
          inst.summaries.push_back(std::move(keep));
          site.open = false;
        }
        break;
      }
      case wire::MsgType::kRankResidual: {
        Site& site = sites_[static_cast<size_t>(msg.site)];
        Open(&site).residuals.push_back(
            ResidualSample{static_cast<uint32_t>(msg.a), msg.b});
        break;
      }
      default:
        break;
    }
  }

  double Estimate(uint64_t value) const {
    // Exact mirror of RandomizedRankTracker::EstimateRank: site-major,
    // instances in stream order, greedy maximal dyadic cover, residual
    // window at the instance's own p.
    double est = 0;
    for (const Site& site : sites_) {
      for (const Instance& data : site.instances) {
        ForEachCover(data, [&](const StoredSummary& stored) {
          est += SummaryRankBelow(stored, value);
        });
        uint64_t below = 0;
        for (size_t i = data.residual_begin; i < data.residuals.size(); ++i) {
          if (data.residuals[i].value < value) ++below;
        }
        est += static_cast<double>(below) * data.inv_p;
      }
    }
    return est;
  }

  /// The coordinator's quantile search: the smallest value in
  /// [0, universe) whose Estimate reaches `target` (universe if none
  /// does), with that value's estimate. Bit-identical to bisecting over
  /// Estimate, but the work the probes share is done once: each
  /// instance's cover is resolved to its summaries' sorted segments and
  /// its live residuals are sorted, so a probe is binary searches only,
  /// each inside the window the earlier probes left it. The terms are
  /// summed in Estimate's order, so every probe's sum is the same double.
  std::pair<uint64_t, double> Quantile(double target,
                                       uint64_t universe) const {
    QueryPlan plan;
    size_t live = 0;
    for (const Site& site : sites_) {
      for (const Instance& data : site.instances) {
        live += data.residuals.size() - data.residual_begin;
      }
    }
    plan.residuals.reserve(live);  // runs point into it
    for (const Site& site : sites_) {
      for (const Instance& data : site.instances) {
        ForEachCover(data, [&](const StoredSummary& stored) {
          uint32_t begin = 0;
          for (const auto& [weight, end] : stored.segments) {
            plan.AddRun(stored.values.data() + begin,
                        stored.values.data() + end, weight);
            begin = end;
          }
          plan.EndTerm(1.0);
        });
        size_t first = plan.residuals.size();
        for (size_t i = data.residual_begin; i < data.residuals.size(); ++i) {
          plan.residuals.push_back(data.residuals[i].value);
        }
        uint64_t* run = plan.residuals.data();
        std::sort(run + first, run + plan.residuals.size());
        plan.AddRun(run + first, run + plan.residuals.size(), 1);
        plan.EndTerm(data.inv_p);
      }
    }
    uint64_t lo = 0, hi = universe;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      bool below = plan.Estimate(mid) < target;
      plan.Narrow(below);
      if (below) lo = mid + 1;
      else hi = mid;
    }
    return {lo, plan.Estimate(lo)};
  }

  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  struct StoredSummary {
    uint32_t first_leaf = 0;
    uint32_t end_leaf = 0;
    std::vector<uint64_t> values;
    std::vector<std::pair<uint64_t, uint32_t>> segments;
  };
  struct ResidualSample {
    uint32_t leaf = 0;
    uint64_t value = 0;
  };
  struct Instance {
    std::vector<StoredSummary> summaries;
    std::vector<ResidualSample> residuals;
    size_t residual_begin = 0;
    double inv_p = 1.0;
  };
  struct Site {
    std::vector<Instance> instances;
    bool open = false;
  };

  // Quantile's per-query plan: Estimate's terms in Estimate's order,
  // each a weighted count of values below the probe over sorted runs
  // (a cover summary's segments, or an instance's sorted residuals),
  // times a scale (1 for a summary, exact; the instance's 1/p for its
  // residuals). Each run keeps the window [lo, hi) its probe position
  // is still known to lie in, so a bisection's later probes search
  // ever-smaller windows.
  struct QueryPlan {
    struct Run {
      const uint64_t* begin;
      const uint64_t* lo;
      const uint64_t* hi;
      uint64_t weight;
      const uint64_t* probed = nullptr;  ///< position at the last probe
    };
    struct Term {
      size_t run_end;
      double scale;
    };
    std::vector<Run> runs;
    std::vector<Term> terms;
    std::vector<uint64_t> residuals;

    void AddRun(const uint64_t* first, const uint64_t* last, uint64_t w) {
      runs.push_back(Run{first, first, last, w});
    }
    void EndTerm(double scale) { terms.push_back(Term{runs.size(), scale}); }

    double Estimate(uint64_t value) {
      double est = 0;
      size_t r = 0;
      for (const Term& term : terms) {
        uint64_t below = 0;
        for (; r < term.run_end; ++r) {
          Run& run = runs[r];
          run.probed = std::lower_bound(run.lo, run.hi, value);
          below += run.weight * static_cast<uint64_t>(run.probed - run.begin);
        }
        est += static_cast<double>(below) * term.scale;
      }
      return est;
    }
    /// After a probe: the next ones lie above it (`above`) or at/below it.
    void Narrow(bool above) {
      for (Run& run : runs) (above ? run.lo : run.hi) = run.probed;
    }
  };

  /// Calls visit(summary) for each summary of the instance's greedy
  /// maximal dyadic cover, in cover order (RandomizedRankTracker's).
  template <typename Visit>
  static void ForEachCover(const Instance& data, Visit visit) {
    uint32_t cursor = 0;
    for (;;) {
      const StoredSummary* best = nullptr;
      for (const StoredSummary& stored : data.summaries) {
        if (stored.first_leaf == cursor &&
            (best == nullptr || stored.end_leaf > best->end_leaf)) {
          best = &stored;
        }
      }
      if (best == nullptr) return;
      visit(*best);
      cursor = best->end_leaf;
    }
  }

  bool stored_covers_chunk(const StoredSummary& stored) const {
    return stored.first_leaf == 0 && stored.end_leaf == num_leaves_;
  }

  Instance& Open(Site* site) {
    if (!site->open) {
      site->instances.emplace_back();
      site->instances.back().inv_p = inv_p_;
      site->open = true;
    }
    return site->instances.back();
  }

  void RecomputeRoundParams(uint64_t n_bar) {
    // Same expressions as RandomizedRankTracker::RecomputeRoundParams so
    // inv_p matches bit for bit.
    double root_k = std::sqrt(static_cast<double>(options_.num_sites));
    inv_p_ = std::max(1.0, options_.epsilon * static_cast<double>(n_bar) /
                               (options_.confidence_factor * root_k));
    chunk_size_ = std::max<uint64_t>(
        1, n_bar / static_cast<uint64_t>(options_.num_sites));
    uint64_t block = std::max<uint64_t>(1, static_cast<uint64_t>(inv_p_));
    block = std::min(block, chunk_size_);
    num_leaves_ = static_cast<uint32_t>(CeilDiv(chunk_size_, block));
    max_leaves_ = std::max(max_leaves_, num_leaves_);
    max_chunk_ = std::max(max_chunk_, chunk_size_);
  }

  static double SummaryRankBelow(const StoredSummary& summary, uint64_t x) {
    uint64_t below = 0;
    uint32_t begin = 0;
    for (const auto& [weight, end] : summary.segments) {
      auto first = summary.values.begin() + begin;
      auto last = summary.values.begin() + end;
      below += weight * static_cast<uint64_t>(
                            std::lower_bound(first, last, x) - first);
      begin = end;
    }
    return static_cast<double>(below);
  }

  rank::RandomizedRankOptions options_;
  CoarseMirror coarse_;
  double inv_p_ = 1.0;
  uint64_t chunk_size_ = 1;
  uint32_t num_leaves_ = 1;
  uint32_t max_leaves_ = 1;  // over every round so far (Admits)
  uint64_t max_chunk_ = 1;
  std::vector<Site> sites_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_REPLICA_H_
