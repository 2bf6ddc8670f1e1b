#include "disttrack/summaries/run_ladder.h"

#include <algorithm>

#include "disttrack/common/small_sort.h"

namespace disttrack {
namespace summaries {

void RunLadder::Reset(size_t num_cursors) {
  for (auto& run : runs_) Recycle(std::move(run.values));
  runs_.clear();
  cursors_.assign(num_cursors, end_);
  cursors_at_end_ = num_cursors;
  trim_pending_ = false;
}

bool RunLadder::CursorAt(uint64_t position) const {
  for (uint64_t c : cursors_) {
    if (c == position) return true;
  }
  return false;
}

std::vector<uint64_t> RunLadder::TakeBuffer() {
  if (pool_.empty()) return {};
  std::vector<uint64_t> buffer = std::move(pool_.back());
  pool_.pop_back();
  buffer.clear();
  return buffer;
}

void RunLadder::Recycle(std::vector<uint64_t>&& buffer) {
  if (buffer.capacity() == 0) return;
  pool_.push_back(std::move(buffer));
}

void RunLadder::AppendSortedRun(const uint64_t* values, size_t count) {
  if (count == 0) return;
  // Extending the last run keeps it one segment iff order holds and no
  // cursor still expects to start a pull at the current end.
  if (cursors_at_end_ == 0 && !runs_.empty() &&
      runs_.back().values.back() <= values[0]) {
    auto& tail = runs_.back().values;
    tail.insert(tail.end(), values, values + count);
  } else {
    Run run;
    run.start = end_;
    run.values = TakeBuffer();
    run.values.assign(values, values + count);
    runs_.push_back(std::move(run));
  }
  end_ += count;
  cursors_at_end_ = 0;
}

void RunLadder::AppendSortedVector(std::vector<uint64_t>* values) {
  size_t count = values->size();
  if (count == 0) return;
  if (cursors_at_end_ == 0 && !runs_.empty() &&
      runs_.back().values.back() <= values->front()) {
    auto& tail = runs_.back().values;
    tail.insert(tail.end(), values->begin(), values->end());
    values->clear();
  } else {
    Run run;
    run.start = end_;
    run.values = std::move(*values);
    runs_.push_back(std::move(run));
    *values = TakeBuffer();
  }
  end_ += count;
  cursors_at_end_ = 0;
}

void RunLadder::AppendValue(uint64_t value) {
  AppendSortedRun(&value, 1);
}

size_t RunLadder::Pull(size_t cursor, std::vector<RunView>* views) {
  views->clear();
  uint64_t at = cursors_[cursor];
  if (at == end_) return 0;
  // Runs are position-ordered and the cursor is run-aligned (merges never
  // cross a cursor), so the window is a whole-run suffix slice.
  size_t first = runs_.size();
  while (first > 0 && runs_[first - 1].start >= at) --first;
  // Consolidate the window before handing out views: merge every adjacent
  // pair whose boundary no cursor still needs, leaving one run per
  // inter-cursor gap. The work is memoized in the ladder — every other
  // level that later pulls an overlapping window reads the already-merged
  // runs — so the deep merging is shared instead of being redone per
  // level. Consumers then see at most (#cursors in window + 1) views.
  // Cheapest adjacent pair first, so small runs coalesce among themselves
  // before touching a big neighbour (near-optimal merge volume; the
  // quadratic pair scan is over a handful of runs).
  for (;;) {
    size_t best = runs_.size();
    size_t best_cost = ~size_t{0};
    for (size_t i = first; i + 1 < runs_.size(); ++i) {
      if (CursorAt(runs_[i + 1].start)) continue;
      size_t cost = runs_[i].values.size() + runs_[i + 1].values.size();
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best == runs_.size()) break;
    Run& a = runs_[best];
    Run& b = runs_[best + 1];
    std::vector<uint64_t> merged = TakeBuffer();
    merged.resize(a.values.size() + b.values.size());
    // Gap-merge inner loop: byte-identical output to std::merge (uint64
    // values are compared wholesale, so stability cannot matter).
    MergeSorted(a.values.data(), a.values.size(), b.values.data(),
                b.values.size(), merged.data());
    Recycle(std::move(a.values));
    a.values = std::move(merged);
    Recycle(std::move(b.values));
    runs_.erase(runs_.begin() + static_cast<long>(best) + 1);
  }
  size_t total = 0;
  for (size_t i = first; i < runs_.size(); ++i) {
    const auto& values = runs_[i].values;
    views->push_back(RunView{values.data(), values.size()});
    total += values.size();
  }
  cursors_[cursor] = end_;
  ++cursors_at_end_;  // pending > 0 held, so it was below end_
  trim_pending_ = true;
  return total;
}

void RunLadder::Trim() {
  if (runs_.empty()) return;
  uint64_t oldest = end_;
  for (uint64_t c : cursors_) oldest = std::min(oldest, c);
  size_t keep = 0;
  while (keep < runs_.size() &&
         runs_[keep].start + runs_[keep].values.size() <= oldest) {
    Recycle(std::move(runs_[keep].values));
    ++keep;
  }
  if (keep > 0) {
    runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(keep));
  }
}

void RunLadder::MergeTail() {
  // Binary counter: fold the newest run leftward while the older
  // neighbour is no bigger, so any element is merged O(log window) times
  // and that cost is paid once for all consumers. A boundary some cursor
  // still needs to pull from stays put (the cascade retries it once the
  // cursor moves on and the counter reaches it again).
  while (runs_.size() >= 2) {
    Run& a = runs_[runs_.size() - 2];
    Run& b = runs_.back();
    if (a.values.size() > b.values.size()) break;
    if (CursorAt(b.start)) break;
    std::vector<uint64_t> merged = TakeBuffer();
    merged.resize(a.values.size() + b.values.size());
    MergeSorted(a.values.data(), a.values.size(), b.values.data(),
                b.values.size(), merged.data());
    Recycle(std::move(a.values));
    a.values = std::move(merged);
    Recycle(std::move(b.values));
    runs_.pop_back();
  }
}

void RunLadder::Consolidate() {
  // The oldest-consumed watermark only moves when some cursor pulled.
  if (trim_pending_) {
    Trim();
    trim_pending_ = false;
  }
  MergeTail();
}

uint64_t RunLadder::held() const {
  uint64_t total = 0;
  for (const auto& run : runs_) total += run.values.size();
  return total;
}

uint64_t RunLadder::SpaceWords() const {
  return held() + runs_.size() + cursors_.size();
}

}  // namespace summaries
}  // namespace disttrack
