// harness.hpp — the benchmark's own timing, tracing and reporting layer.
//
// Everything here sits outside the library: spans are opened around calls
// into public library functions, so each layer is measured from the
// outside.  An untraced run only reads the steady clock at operation
// boundaries; a traced run additionally keeps one Span per call (name,
// start, end, parent span, operation id, counters taken at the same
// boundary) in memory and writes them out when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 if empty.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, q * static_cast<double>(values.size()) + 0.5 - 1e-9));
  return values[std::min(values.size(), rank) - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The median of each non-empty sample set: one time per operation from
/// its repetitions.
[[nodiscard]] inline std::vector<double> medians(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (!s.empty()) out.push_back(median(s));
  }
  return out;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// One recorded call into the library.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint32_t op = 0;       ///< operation (flap / convergence / round) id
  std::vector<std::pair<const char*, double>> counters;
};

/// In-memory span recorder.  Disabled tracers record nothing: every call
/// is one branch on `on_`.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Enables or disables recording between operations (a traced run
  /// alternates untraced and traced operations to measure the overhead).
  void set_recording(bool on) noexcept { on_ = on; }
  void set_op(std::uint32_t op) noexcept { op_ = op; }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.on_) index_ = tracer_.open(name);
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span early; counters may still be attached afterwards, so
    /// counter reads taken at the boundary stay outside the span's time.
    void close() {
      if (index_ >= 0 && !closed_) tracer_.close(index_);
      closed_ = true;
    }

    /// Attaches a counter to this span (no-op when not recording).
    void counter(const char* name, double value) {
      if (index_ >= 0) {
        tracer_.spans_[static_cast<std::size_t>(index_)].counters.emplace_back(
            name, value);
      }
    }

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
    bool closed_ = false;
  };

  /// Per span name: count, total ms, and self ms (duration minus the part
  /// covered by direct child spans).
  struct Summary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::map<std::string, Summary> summarize() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Summary& sum = out[s.name];
      ++sum.count;
      sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      sum.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// Writes one JSON object per span; returns false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"op\":%u,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"counters\":{",
                   i, s.name, s.op, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (std::size_t c = 0; c < s.counters.size(); ++c) {
        std::fprintf(f, "%s\"%s\":%.17g", c == 0 ? "" : ",",
                     s.counters[c].first, s.counters[c].second);
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  ///< how many measurements the value summarizes
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the result (metric aliases,
  /// check failures, span summaries).
  std::vector<std::string> notes;

  /// Records a failed output check (once per failing operation).
  void fail(const std::string& why) {
    correct = false;
    if (notes.size() < 200) notes.push_back("CHECK FAILED: " + why);
  }
};

/// Appends one line per span name (count, total and self time) to the notes.
inline void add_span_summary(const Tracer& tracer, RunResult& result) {
  for (const auto& [name, s] : tracer.summarize()) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "span %-34s n=%-7zu total=%11.1f ms  self=%11.1f ms",
                  name.c_str(), s.count, s.total_ms, s.self_ms);
    result.notes.emplace_back(line);
  }
}

/// "label: v1 v2 ..." — the raw samples behind a median, for the notes.
inline std::string sample_line(const char* label, const std::vector<double>& values) {
  std::string line = label;
  line += ":";
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, " %.1f", v);
    line += buf;
  }
  return line;
}

/// Workload settings derived from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          ///< small sizes: the self-test's mode
  std::string trace_path;      ///< where a traced run writes its spans
};

}  // namespace perfbench
