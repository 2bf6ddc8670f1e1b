#include "disttrack/service/site_half.h"

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"

namespace disttrack {
namespace service {

namespace {

// The keyed halves' run: one scalar replay arrival per key. Any arrival
// may emit a frame, so `stop` is polled after each.
template <typename Tracker>
uint64_t KeyedRun(Tracker* tracker, const ServiceOptions& options, int site,
                  uint64_t first_index, uint64_t count,
                  const std::function<bool()>& stop) {
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = WorkloadKey(options, site, first_index + i);
    tracker->ReplayCrashArrive(site, key, nullptr);
    if (stop && stop()) return i + 1;
  }
  return count;
}

class CountHalf : public SiteHalf {
 public:
  CountHalf(const ServiceOptions& options, int site)
      : tracker_(options.CountOptions()), site_(site) {
    tracker_.BeginCrashReplay(site_);
  }
  void set_wire_tap(sim::wire::WireTap* tap) override {
    tracker_.set_wire_tap(tap);
  }
  uint64_t ArriveRun(uint64_t /*first_index*/, uint64_t count,
                     const std::function<bool()>& stop) override {
    return tracker_.ReplayCrashRun(site_, count, stop);
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
  count::RandomizedCountTracker tracker_;
  int site_;
};

class FrequencyHalf : public SiteHalf {
 public:
  FrequencyHalf(const ServiceOptions& options, int site)
      : options_(options), tracker_(options.FrequencyOptions()), site_(site) {
    tracker_.BeginCrashReplay(site_);
  }
  void set_wire_tap(sim::wire::WireTap* tap) override {
    tracker_.set_wire_tap(tap);
  }
  uint64_t ArriveRun(uint64_t first_index, uint64_t count,
                     const std::function<bool()>& stop) override {
    return KeyedRun(&tracker_, options_, site_, first_index, count, stop);
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
  frequency::RandomizedFrequencyTracker tracker_;
  int site_;
};

class RankHalf : public SiteHalf {
 public:
  RankHalf(const ServiceOptions& options, int site)
      : options_(options), tracker_(options.RankOptions()), site_(site) {
    tracker_.set_detached_replay(true);
    tracker_.BeginCrashReplay(site_);
  }
  void set_wire_tap(sim::wire::WireTap* tap) override {
    tracker_.set_wire_tap(tap);
  }
  uint64_t ArriveRun(uint64_t first_index, uint64_t count,
                     const std::function<bool()>& stop) override {
    return KeyedRun(&tracker_, options_, site_, first_index, count, stop);
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
  rank::RandomizedRankTracker tracker_;
  int site_;
};

}  // namespace

std::unique_ptr<SiteHalf> SiteHalf::Create(const ServiceOptions& options,
                                           int site) {
  switch (options.tracker) {
    case TrackerKind::kCount:
      return std::make_unique<CountHalf>(options, site);
    case TrackerKind::kFrequency:
      return std::make_unique<FrequencyHalf>(options, site);
    case TrackerKind::kRank:
      return std::make_unique<RankHalf>(options, site);
  }
  return nullptr;
}

}  // namespace service
}  // namespace disttrack
