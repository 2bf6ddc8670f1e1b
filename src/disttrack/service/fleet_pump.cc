#include "disttrack/service/fleet_pump.h"

#include <algorithm>

namespace disttrack {
namespace service {

namespace {

/// Rounds without a settled fleet after which Run gives up: far above
/// any test fleet's need, so only a livelock reaches it.
constexpr uint64_t kMaxRounds = 50000000;

/// True if `at` falls inside a frame of `data`, a run of whole frames.
bool SplitsFrame(const uint8_t* data, size_t size, size_t at) {
  size_t off = 0;
  while (off < at) {
    size_t frame = sim::wire::PeekFrameSize(data + off, size - off);
    if (frame == 0) return true;
    off += frame;
  }
  return off != at;
}

/// The next cut of `site` in that direction that has not fired yet.
const StormPlan::Cut* NextCut(const StormPlan& plan, int site,
                                     bool downlink, uint64_t total) {
  const StormPlan::Cut* next = nullptr;
  for (const StormPlan::Cut& cut : plan.cuts) {
    if (cut.site != site || cut.downlink != downlink || cut.offset <= total) {
      continue;
    }
    if (next == nullptr || cut.offset < next->offset) next = &cut;
  }
  return next;
}

}  // namespace

StormPlan StormPlan::FromSeed(uint64_t seed, const ServiceOptions& options) {
  StormPlan plan;
  plan.seed = seed;
  plan.shuffle = true;
  plan.fragment = true;
  Rng rng(seed ^ 0x5707A11CE5ull);
  plan.max_restart_delay = rng.UniformU64(4);
  const uint64_t k = static_cast<uint64_t>(options.num_sites);

  // The first crash lands in the first half of its site's shard, so it
  // fires whatever else happens; a third of them strike again right
  // after the restart.
  int crashes = 1 + static_cast<int>(rng.UniformU64(2));
  for (int i = 0; i < crashes; ++i) {
    int site = static_cast<int>(rng.UniformU64(k));
    uint64_t shard = ShardSize(options, site);
    if (shard < 2) continue;
    uint64_t span = i == 0 ? shard / 2 : shard - 1;
    plan.crashes.push_back({site, 1 + rng.UniformU64(span)});
    if (rng.UniformU64(3) == 0) {
      plan.crashes.push_back({site, 1 + rng.UniformU64(64)});
    }
  }

  // Cut offsets spread over about one site's fault-free traffic (up to
  // about a kilobyte per grant each way); a cut past the end never fires.
  uint64_t grants = ShardSize(options, 0) / options.grant_max + 1;
  int cuts = static_cast<int>(rng.UniformU64(4));
  for (int i = 0; i < cuts; ++i) {
    Cut cut;
    cut.site = static_cast<int>(rng.UniformU64(k));
    cut.downlink = rng.UniformU64(2) == 1;
    cut.offset = 1 + rng.UniformU64(800 * grants);
    plan.cuts.push_back(cut);
  }
  return plan;
}

// --- Per-site plumbing ----------------------------------------------------

class FleetPump::MemoryStore : public SiteCore::SnapshotStore {
 public:
  bool Load(SiteSnapshot* out) override {
    if (!has_) return false;
    *out = snapshot_;
    return true;
  }
  bool Save(const SiteSnapshot& snapshot) override {
    snapshot_ = snapshot;
    has_ = true;
    return true;
  }
  void Discard() override { has_ = false; }

 private:
  bool has_ = false;
  SiteSnapshot snapshot_;
};

class FleetPump::PumpLink : public SiteCore::Link {
 public:
  PumpLink(FleetPump* pump, int site) : pump_(pump), site_(site) {}
  bool Send(const std::vector<uint8_t>& bytes) override {
    return pump_->SendUp(site_, bytes);
  }
  bool Await(FrameReader* reader) override {
    return pump_->AwaitDown(site_, reader);
  }

 private:
  FleetPump* pump_;
  int site_;
};

struct FleetPump::Slot {
  Slot(FleetPump* pump, int site) : link(pump, site) {}

  PumpLink link;
  MemoryStore store;
  std::unique_ptr<SiteCore> core;
  int conn = -1;        ///< the live incarnation's connection
  bool dead = false;    ///< the stream was cut: EOF once `down` drains
  bool shut_down = false;  ///< saw kShutdown; connection closed
  std::vector<uint8_t> down;  ///< bytes on their way to the site
  size_t down_off = 0;
  uint64_t up_total = 0, down_total = 0;  ///< bytes ever, per direction
  size_t crashes_used = 0;
  uint64_t restart_in = 0;
  uint64_t position = 0;  ///< last seen, to detect progress
};

FleetPump::FleetPump(const ServiceOptions& options, const StormPlan& plan)
    : options_(options),
      plan_(plan),
      rng_(plan.seed ^ 0xF1EE7ull),
      coordinator_(options) {
  for (int site = 0; site < options_.num_sites; ++site) {
    slots_.push_back(std::make_unique<Slot>(this, site));
    order_.push_back(site);
  }
}

FleetPump::~FleetPump() = default;

void FleetPump::Fail(const std::string& what) {
  if (error_.empty()) error_ = what;
}

int FleetPump::Connect() {
  int conn = next_conn_++;
  coordinator_.Open(conn);
  return conn;
}

size_t FleetPump::FragmentSize(size_t left) {
  if (!plan_.fragment || left <= 1) return left;
  return 1 + rng_.UniformU64(std::min<size_t>(left, 97));
}

// --- Streams --------------------------------------------------------------

void FleetPump::Cut(int site, bool mid_frame) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  if (slot.dead) return;
  slot.dead = true;
  coordinator_.Closed(slot.conn);
  report_.cuts += 1;
  if (mid_frame) report_.cuts_mid_frame += 1;
  moved_ = true;
}

void FleetPump::CutSite(int site, uint64_t delay) {
  Cut(site, false);
  Kill(site);
  slots_[static_cast<size_t>(site)]->restart_in = delay;
}

bool FleetPump::SendUp(int site, const std::vector<uint8_t>& bytes) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  if (slot.dead) return false;
  size_t keep = bytes.size();
  const StormPlan::Cut* cut =
      NextCut(plan_, site, /*downlink=*/false, slot.up_total);
  bool cutting = cut != nullptr && cut->offset <= slot.up_total + keep;
  if (cutting) keep = static_cast<size_t>(cut->offset - slot.up_total);
  for (size_t off = 0; off < keep;) {
    size_t piece = FragmentSize(keep - off);
    coordinator_.Receive(slot.conn, bytes.data() + off, piece);
    off += piece;
  }
  slot.up_total += bytes.size();
  moved_ = moved_ || !bytes.empty();
  if (cutting) {
    // Like a TCP write, this one succeeded: the site learns of the cut at
    // its next read or write, and may snapshot past the lost bytes first.
    Cut(site, SplitsFrame(bytes.data(), bytes.size(), keep));
    return true;
  }
  if (coordinator_.WantsClose(slot.conn)) {
    Fail("coordinator closed site " + std::to_string(site) +
         "'s connection on an honest frame");
    Cut(site, false);
    return false;
  }
  return true;
}

void FleetPump::TakeDown(int site) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  if (slot.dead) return;
  const uint8_t* data = nullptr;
  size_t size = coordinator_.Staged(slot.conn, &data);
  if (size == 0) return;
  size_t keep = size;
  const StormPlan::Cut* cut =
      NextCut(plan_, site, /*downlink=*/true, slot.down_total);
  bool cutting = cut != nullptr && cut->offset <= slot.down_total + size;
  if (cutting) keep = static_cast<size_t>(cut->offset - slot.down_total);
  bool mid_frame = cutting && SplitsFrame(data, size, keep);
  if (slot.down_off == slot.down.size()) {
    slot.down.clear();
    slot.down_off = 0;
  }
  slot.down.insert(slot.down.end(), data, data + keep);
  coordinator_.Sent(slot.conn, size);
  slot.down_total += size;
  moved_ = true;
  if (cutting) Cut(site, mid_frame);
}

bool FleetPump::AwaitDown(int site, FrameReader* reader) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  TakeDown(site);
  size_t left = slot.down.size() - slot.down_off;
  if (left == 0) {
    if (!slot.dead) {
      Fail("site " + std::to_string(site) +
           " waits on a decision the coordinator never staged");
    }
    return false;
  }
  size_t piece = FragmentSize(left);
  reader->Append(slot.down.data() + slot.down_off, piece);
  slot.down_off += piece;
  return true;
}

// --- Sites ----------------------------------------------------------------

void FleetPump::StartIncarnation(int site) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  SiteCore::Config config;
  config.options = options_;
  config.site = site;
  size_t seen = 0;
  for (const StormPlan::Crash& crash : plan_.crashes) {
    if (crash.site != site) continue;
    if (seen++ == slot.crashes_used) {
      config.halt_after = crash.after;
      break;
    }
  }
  slot.crashes_used += 1;
  slot.conn = Connect();
  slot.dead = false;
  slot.down.clear();
  slot.down_off = 0;
  slot.core = std::make_unique<SiteCore>(config, &slot.link, &slot.store);
  slot.core->Start();
  moved_ = true;
}

void FleetPump::Kill(int site) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  if (!slot.dead) {
    slot.dead = true;
    coordinator_.Closed(slot.conn);
  }
  slot.core.reset();
  slot.restart_in =
      plan_.max_restart_delay == 0
          ? 0
          : rng_.UniformU64(plan_.max_restart_delay + 1);
  moved_ = true;
}

void FleetPump::Service(int site) {
  Slot& slot = *slots_[static_cast<size_t>(site)];
  if (slot.shut_down) return;
  if (!slot.core) {
    if (slot.restart_in > 0) {
      --slot.restart_in;
      moved_ = true;
      return;
    }
    StartIncarnation(site);
  }
  SiteCore& core = *slot.core;
  // Only what the coordinator staged before this turn: a freerun site
  // that is granted again at once runs that grant on its next turn.
  TakeDown(site);
  while (!core.finished() && slot.down_off < slot.down.size()) {
    size_t piece = FragmentSize(slot.down.size() - slot.down_off);
    core.reader()->Append(slot.down.data() + slot.down_off, piece);
    slot.down_off += piece;
    core.Advance();
  }
  if (!core.finished()) core.Advance();
  if (core.position() != slot.position) {
    slot.position = core.position();
    moved_ = true;
  }

  if (core.halted()) {
    report_.crashes += 1;
    Kill(site);
  } else if (core.shutdown()) {
    coordinator_.Closed(slot.conn);
    slot.shut_down = true;
    moved_ = true;
  } else if (core.failed() || (slot.dead && slot.down_off == slot.down.size())) {
    // A cut stream ends in EOF; any other failure is a protocol bug.
    if (!slot.dead) {
      Fail("site " + std::to_string(site) + ": " + core.fail_reason());
    }
    Kill(site);
  }
}

bool FleetPump::Step() {
  moved_ = false;
  rounds_ += 1;
  if (plan_.shuffle) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.UniformU64(i)]);
    }
  }
  for (int site : order_) Service(site);
  return moved_;
}

bool FleetPump::Run(std::string* error) {
  bool shutting_down = false;
  for (uint64_t round = 0; round < kMaxRounds && error_.empty(); ++round) {
    if (!shutting_down && coordinator_.AllSitesDone()) {
      coordinator_.BeginShutdown();
      shutting_down = true;
    }
    if (shutting_down && coordinator_.ShutdownComplete()) return true;
    if (!Step()) {
      Fail("fleet stalled after " + std::to_string(rounds_) +
           " rounds");
    }
  }
  Fail("fleet never settled");
  *error = error_;
  return false;
}

}  // namespace service
}  // namespace disttrack
