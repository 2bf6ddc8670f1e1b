#include "disttrack/service/site_half.h"

#include <type_traits>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"

namespace disttrack {
namespace service {

namespace {

template <typename Tracker>
class TrackerHalf : public SiteHalf {
 public:
  template <typename TrackerOptions>
  TrackerHalf(const ServiceOptions& options, int site,
              const TrackerOptions& tracker_options)
      : options_(options), tracker_(tracker_options), site_(site) {
    tracker_.BeginCrashReplay(site_);
  }
  void set_wire_tap(sim::wire::WireTap* tap) override {
    tracker_.set_wire_tap(tap);
  }
  uint64_t ArriveRun(uint64_t first_index, uint64_t count,
                     const std::function<bool()>& stop) override {
    if constexpr (std::is_same_v<Tracker, count::RandomizedCountTracker>) {
      return tracker_.ReplayCrashRun(site_, count, stop);
    } else {
      // Keyed trackers: one scalar replay arrival per key. Any arrival
      // may emit a frame, so `stop` is polled after each.
      for (uint64_t i = 0; i < count; ++i) {
        tracker_.ReplayCrashArrive(
            site_, WorkloadKey(options_, site_, first_index + i));
        if (stop && stop()) return i + 1;
      }
      return count;
    }
  }
  void ApplyRitual(uint64_t n_bar) override {
    tracker_.ReplayCrashRitual(site_, n_bar);
  }
  bool SnapshotReady() const override {
    return tracker_.SiteSnapshotReady(site_);
  }
  void Serialize(std::vector<uint64_t>* out) const override {
    tracker_.SerializeSiteState(site_, out);
  }
  void Restore(const std::vector<uint64_t>& blob) override {
    tracker_.RestoreSiteState(site_, blob);
  }

 private:
  ServiceOptions options_;
  Tracker tracker_;
  int site_;
};

}  // namespace

std::unique_ptr<SiteHalf> SiteHalf::Create(const ServiceOptions& options,
                                           int site) {
  switch (options.tracker) {
    case TrackerKind::kCount:
      return std::make_unique<TrackerHalf<count::RandomizedCountTracker>>(
          options, site, options.CountOptions());
    case TrackerKind::kFrequency:
      return std::make_unique<
          TrackerHalf<frequency::RandomizedFrequencyTracker>>(
          options, site, options.FrequencyOptions());
    case TrackerKind::kRank:
      return std::make_unique<TrackerHalf<rank::RandomizedRankTracker>>(
          options, site, options.RankOptions());
  }
  return nullptr;
}

}  // namespace service
}  // namespace disttrack
