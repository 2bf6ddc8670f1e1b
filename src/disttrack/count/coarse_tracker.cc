#include "disttrack/count/coarse_tracker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace count {

CoarseTracker::CoarseTracker(int num_sites, sim::CommMeter* meter)
    : meter_(meter), local_(static_cast<size_t>(num_sites)) {}

void CoarseTracker::AddObserver(BroadcastObserver observer) {
  observers_.push_back(std::move(observer));
}

uint64_t CoarseTracker::local_count(int site) const {
  if (site < 0 || site >= num_sites()) return 0;
  return local_[static_cast<size_t>(site)].count;
}

// disttrack-lint: allow(site-check) -- inner engine: CoarseTracker is only
// reachable through an owning tracker whose entry point already validated
// the site id; re-checking per arrival would tax the hot path for nothing.
void CoarseTracker::Arrive(int site) {
  SiteState& s = local_[static_cast<size_t>(site)];
  ++s.count;
  if (s.count < s.next_report) return;
  ReportAndMaybeBroadcast(site);
}

// disttrack-lint: allow(site-check) -- inner engine: see Arrive() above.
void CoarseTracker::ArriveRun(int site, uint64_t count) {
  SiteState& s = local_[static_cast<size_t>(site)];
  while (count > 0) {
    uint64_t gap = s.next_report - s.count;  // invariant: count < next_report
    if (count < gap) {
      s.count += count;
      return;
    }
    s.count += gap;
    count -= gap;
    ReportAndMaybeBroadcast(site);
  }
}

void CoarseTracker::AdvanceLocalNoReport(int site, uint64_t count) {
  SiteState& s = local_[static_cast<size_t>(site)];
  if (count >= s.next_report - s.count) {
    std::fprintf(stderr,
                 "CoarseTracker: eventless shard advance of %llu crosses "
                 "site %d's report threshold\n",
                 static_cast<unsigned long long>(count), site);
    std::abort();
  }
  s.count += count;
}

uint64_t CoarseTracker::ArriveLocal(int site) {
  SiteState& s = local_[static_cast<size_t>(site)];
  ++s.count;
  if (s.count < s.next_report) return 0;
  uint64_t delta = s.count - s.last_reported;
  s.last_reported = s.count;
  s.next_report = s.count * 2;
  return delta;
}

void CoarseTracker::ApplyDeferredReport(int site, uint64_t delta) {
  // disttrack-lint: allow(meter-tap) -- shard-fold bookkeeping: taps are
  // only installed on scalar paths (a service site half, a serial
  // replay), never on the sharded replay path that produces deferred
  // reports, so this charge has no frame to pair with.
  meter_->RecordUpload(site, 1);
  n_prime_ += delta;
  if (n_prime_ >= std::max<uint64_t>(1, 2 * n_bar_)) {
    std::fprintf(stderr,
                 "CoarseTracker: deferred report of site %d trips the "
                 "broadcast condition — the epoch schedule is wrong\n",
                 site);
    std::abort();
  }
}

void CoarseTracker::SerializeSite(int site, std::vector<uint64_t>* out) const {
  const SiteState& s = local_[static_cast<size_t>(site)];
  out->push_back(s.count);
  out->push_back(s.next_report);
  out->push_back(s.last_reported);
}

size_t CoarseTracker::RestoreSite(int site, const uint64_t* data) {
  SiteState& s = local_[static_cast<size_t>(site)];
  s.count = data[0];
  s.next_report = data[1];
  s.last_reported = data[2];
  return 3;
}

void CoarseTracker::ReportAndMaybeBroadcast(int site) {
  SiteState& s = local_[static_cast<size_t>(site)];
  // Site -> coordinator: the local count has doubled.
  meter_->RecordUpload(site, 1);
  uint64_t delta = s.count - s.last_reported;
  n_prime_ += delta;
  s.last_reported = s.count;
  s.next_report = s.count * 2;
  if (tap_ != nullptr) {
    sim::wire::Message msg;
    msg.type = sim::wire::MsgType::kCoarseReport;
    msg.site = site;
    msg.epoch = round_;
    msg.a = delta;
    msg.paper_words = 1;
    tap_->OnMessage(std::move(msg));
  }

  // Coordinator: broadcast when n' has at least doubled since the last
  // broadcast (first broadcast at the very first report).
  if (n_prime_ >= std::max<uint64_t>(1, 2 * n_bar_)) {
    n_bar_ = n_prime_;
    ++round_;
    meter_->RecordBroadcast(1);
    if (tap_ != nullptr) {
      sim::wire::Message msg;
      msg.type = sim::wire::MsgType::kBroadcast;
      msg.site = -1;
      msg.epoch = round_;
      msg.a = round_;
      msg.b = n_bar_;
      msg.paper_words = 1;
      tap_->OnMessage(std::move(msg));
    }
    for (auto& obs : observers_) obs(round_, n_bar_);
  }
}

void EpochCertifier::Reset(const CoarseTracker& tracker) {
  sites_.resize(tracker.local_.size());
  for (size_t i = 0; i < sites_.size(); ++i) {
    const CoarseTracker::SiteState& s = tracker.local_[i];
    sites_[i] = Projection{s.count, s.next_report, s.last_reported};
  }
  n_prime_ = tracker.n_prime_;
  limit_ = 2 * tracker.n_bar_ > 1 ? 2 * tracker.n_bar_ : 1;
}

bool EpochCertifier::ExtendByHistogram(const uint32_t* histogram) {
  // Pass 1: project the chunk's final n' (per-site totals alone decide
  // it, see the header). Bail without touching anything on refusal.
  uint64_t projected = n_prime_;
  for (size_t i = 0; i < sites_.size(); ++i) {
    uint64_t h = histogram[i];
    if (h == 0) continue;
    const Projection& s = sites_[i];
    uint64_t final_count = s.count + h;
    if (final_count >= s.next_report) {
      uint64_t last_report =
          uint64_t{1} << (63 - __builtin_clzll(final_count));
      projected += last_report - s.last_reported;
      if (projected >= limit_) return false;
    }
  }
  if (projected >= limit_) return false;
  // Pass 2: commit the projections.
  for (size_t i = 0; i < sites_.size(); ++i) {
    uint64_t h = histogram[i];
    if (h == 0) continue;
    Projection& s = sites_[i];
    s.count += h;
    if (s.count >= s.next_report) {
      s.last_reported = uint64_t{1} << (63 - __builtin_clzll(s.count));
      s.next_report = s.last_reported * 2;
    }
  }
  n_prime_ = projected;
  return true;
}

size_t EpochCertifier::CommitUntilBroadcast(const sim::Arrival* arrivals,
                                            size_t count) {
  for (size_t i = 0; i < count; ++i) {
    Projection& s = sites_[static_cast<size_t>(arrivals[i].site)];
    uint64_t next = s.count + 1;
    if (next >= s.next_report) {
      uint64_t delta = next - s.last_reported;
      if (n_prime_ + delta >= limit_) return i;  // `i` not committed
      n_prime_ += delta;
      s.last_reported = next;
      s.next_report = next * 2;
    }
    s.count = next;
  }
  return count;
}

}  // namespace count
}  // namespace disttrack
