// Shared pieces of the benchmark program: run arguments, timing and
// sample statistics, the metric sink that becomes the final JSON line,
// and the in-memory span recorder behind --trace 1.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// User + system CPU seconds of the whole process.
double process_cpu_seconds();
// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_seconds();
// Peak resident set of the process in MiB (ru_maxrss).
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // scratch space for spools and the trace file
};

// --- sample statistics ------------------------------------------------------

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
// Mean of the middle half of a sample (the interquartile mean). Like the
// median it ignores a few outliers, but when the host switches between
// speed states within a run it moves with the share of time spent in each
// state, where the median jumps from one state to the other.
inline double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}
// Interquartile range as a share of the median: the spread column.
inline double iqr_frac(const std::vector<double>& v) {
  const double m = median(v);
  return m == 0.0 ? 0.0 : (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

// --- metrics ----------------------------------------------------------------

// A metric's name and unit, as BENCHMARK.json declares them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

// Metric values by name; rendered in the order of a spec list.
class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  // Throws when `name` was never set.
  [[nodiscard]] double get(const std::string& name) const {
    return values_.at(name);
  }
  // {"name": {"value": v, "unit": u}, ...} over `specs`. Throws when a
  // declared metric was never set or is not finite.
  [[nodiscard]] std::string to_json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
};

// Outcome counts of the timed phase. Every operation counts as
// attempted; it counts as ok only when its decoded output matched the
// plaintext reference.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t wrong = 0;  // returned an output unequal to the reference
  [[nodiscard]] std::uint64_t failed() const { return attempted - ok; }
};

// --- tracing ----------------------------------------------------------------

// Spans recorded from the benchmark's own code around calls into the
// program's layers. Kept in memory; written out once at exit. Each
// operation (a conv layer, a v3 session, a run_client call) is one span,
// so its id identifies the operation; parent links a span to the one that
// caused it (0 = root). Attributes carry numbers a monolithic call
// returned (ClientStats fields, broker counters), never synthetic child
// spans.
class Tracer {
 public:
  using Attrs = std::vector<std::pair<std::string, double>>;

  // Callers check enabled() before begin(); an Open with id 0 is "no span".
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  struct Open {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    Clock::time_point start;
  };
  Open begin(std::string name, std::uint64_t parent = 0);
  void end(const Open& span, Attrs attrs = {});

  [[nodiscard]] std::size_t size() const;
  // JSON lines: one "env" header line, then one line per span.
  void write(const std::string& path, const std::string& env_json) const;

 private:
  struct Span {
    std::uint64_t id, parent;
    std::string name;
    double start_us, end_us;
    Attrs attrs;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span over one scope; records nothing when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::uint64_t parent = 0)
      : t_(t), open_(t.enabled() ? t.begin(std::move(name), parent)
                                 : Tracer::Open{}) {}
  ~ScopedSpan() {
    if (open_.id != 0) t_.end(open_, std::move(attrs_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return open_.id; }
  void attr(std::string key, double v) {
    attrs_.emplace_back(std::move(key), v);
  }

 private:
  Tracer& t_;
  Tracer::Open open_;
  Tracer::Attrs attrs_;
};

// Everything one run produces besides the span file.
struct RunOutput {
  Metrics end_to_end;
  Metrics per_layer;
  Tally tally;
  bool invariants_ok = true;  // workload-level checks beyond per-op decode
  std::vector<std::string> notes;  // human-readable detail lines
};

}  // namespace perfbench
