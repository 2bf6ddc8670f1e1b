// Shared plumbing for the perfbench harness: clocks, order statistics,
// the span recorder, the metric sink and the audit ledger.
//
// Everything here is measurement code. It never changes what the program
// under test computes; it only times calls into the library from outside.

#ifndef PERFBENCH_HARNESS_BENCH_UTIL_H_
#define PERFBENCH_HARNESS_BENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds.
inline double Now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CLOCK_MONOTONIC in nanoseconds (span timestamps).
inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Sleeps until the monotonic instant `t` (seconds); returns at once if
/// `t` has passed.
inline void SleepUntil(double t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// SplitMix64, the repo's standard stateless mixer.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline uint64_t Bits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double FromBits(uint64_t bits) {
  double d = 0;
  memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted copy).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The tail percentile the samples can support: p99 when at least ten
/// samples lie beyond it, else the highest quantile with ten beyond it.
inline double TailQuantile(const std::vector<double>& v) {
  if (v.size() <= 10) return Quantile(v, 1.0);
  double q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(v.size()));
  return Quantile(v, q);
}

/// One timed interval at a layer boundary. `parent` indexes the span
/// that caused it (kNoParent for roots).
struct Span {
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;
  const char* name;
  uint32_t parent;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// In-memory span store; written out once, after the measured work.
class SpanLog {
 public:
  uint32_t Open(const char* name, uint32_t parent, uint64_t start_ns) {
    spans_.push_back(Span{name, parent, start_ns, 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t id, uint64_t end_ns) { spans_[id].end_ns = end_ns; }
  void Add(const char* name, uint32_t parent, uint64_t start_ns,
           uint64_t end_ns) {
    spans_.push_back(Span{name, parent, start_ns, end_ns});
  }
  /// Writes one JSON object per span (times relative to the first span).
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      long long parent = s.parent == Span::kNoParent ? -1 : s.parent;
      fprintf(f,
              "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
              "\"start_ns\":%llu,\"end_ns\":%llu}\n",
              i, s.name, parent,
              static_cast<unsigned long long>(s.start_ns - base),
              static_cast<unsigned long long>(s.end_ns - base));
    }
    return fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// The run's verdict: operations attempted/failed and every audit
/// failure, each with its reason.
class Audit {
 public:
  /// Records a failed check; `corrupt` runs expect to land here.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    fprintf(stderr, "perfbench: AUDIT FAIL: %s\n", what.c_str());
  }
  void Attempt(bool ok) {
    attempted_ += 1;
    if (!ok) failed_ += 1;
  }
  bool ok() const { return failures_.empty() && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered metric sink; the last line of stdout is built from it.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_UTIL_H_
