#include "disttrack/common/site_group.h"

namespace disttrack {

void SiteGrouper::BuildSpans(int num_sites, bool keyed) {
  spans_.clear();
  for (int s = 0; s < num_sites; ++s) {
    uint32_t h = hist_[static_cast<size_t>(s)];
    if (h == 0) continue;
    Span span;
    span.site = s;
    span.length = h;
    span.data = keyed ? site_keys_[static_cast<size_t>(s)].data() : nullptr;
    spans_.push_back(span);
  }
}

void SiteGrouper::CountSites(const uint16_t* sites, size_t count,
                             int num_sites) {
  hist_.assign(static_cast<size_t>(num_sites), 0);
  const unsigned k = static_cast<unsigned>(num_sites);
  for (size_t i = 0; i < count; ++i) {
    unsigned site = sites[i];
    if (site >= k) sim::CheckSiteInRange(static_cast<int>(site), num_sites);
    ++hist_[site];
  }
  BuildSpans(num_sites, /*keyed=*/false);
}

void SiteGrouper::ScatterBySite(const sim::Arrival* arrivals, size_t count,
                                int num_sites) {
  size_t k = static_cast<size_t>(num_sites);
  if (site_keys_.size() < k) site_keys_.resize(k);
  cursors_.resize(k);
  for (size_t s = 0; s < k; ++s) {
    // Seed each site's backing store with a small capacity; the rare
    // cur == end overflow below grows it geometrically, so steady-state
    // chunks scatter with no vector bookkeeping at all.
    auto& buf = site_keys_[s];
    if (buf.empty()) buf.resize(64);
    cursors_[s] = {buf.data(), buf.data() + buf.size()};
  }
  auto* cur = cursors_.data();
  for (size_t i = 0; i < count; ++i) {
    int site = arrivals[i].site;
    sim::CheckSiteInRange(site, num_sites);
    auto& c = cur[static_cast<size_t>(site)];
    if (c.first == c.second) {
      auto& buf = site_keys_[static_cast<size_t>(site)];
      size_t used = buf.size();
      buf.resize(buf.size() * 2);
      c = {buf.data() + used, buf.data() + buf.size()};
    }
    *c.first++ = arrivals[i].key;
  }
  hist_.assign(k, 0);
  for (size_t s = 0; s < k; ++s) {
    hist_[s] = static_cast<uint32_t>(
        cur[s].first - site_keys_[s].data());
  }
  BuildSpans(num_sites, /*keyed=*/true);
}

}  // namespace disttrack
