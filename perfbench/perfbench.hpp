#pragma once

// Shared plumbing of the amix benchmark: run configuration, the
// benchmark-side span recorder behind the traced run, the layer table,
// sample statistics and the result record every workload fills.
//
// Spans are recorded by this benchmark around calls into amix's public
// functions; nothing inside the library is instrumented for it. A span is
// (name, start, duration, parent, op id). Self time is a span's duration
// minus the durations of its children; every traced call site is serial
// on its thread, so children never overlap and the two definitions of
// self time (duration-based and interval-based) agree.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // sizes the fixed op count, never a deadline
  bool trace = false;      // add the traced pass and report layer metrics
  bool tiny = false;       // self-test size: small graphs, a few ops
  bool inject_failure = false;  // self-test: force failing ops
  std::string out_dir = ".bench_out";
};

/// Fixed op count for a run: `per_second` ops per requested second, with
/// a floor so p90 always has at least ten samples beyond it. Depends only
/// on the arguments, so every run with the same --seconds executes the
/// identical op sequence whatever the machine's speed.
std::size_t op_count(const Config& cfg, double per_second,
                     std::size_t floor_ops = 100);

// ---- spans --------------------------------------------------------------

struct SpanRec {
  std::string name;
  std::int64_t start_ns = -1;  // since the tracer's epoch; -1 = imported
  std::int64_t dur_ns = 0;
  std::int32_t parent = -1;
  std::int64_t op = -1;        // op id; -1 = set-up
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  std::int32_t open(std::string name);
  void close(std::int32_t idx);
  /// A span measured elsewhere (a library span, a replayed call), placed
  /// under `parent`.
  std::int32_t add(std::string name, std::int64_t dur_ns,
                   std::int32_t parent);
  void set_op(std::int64_t op) { op_ = op; }
  std::int32_t current() const { return cur_; }

  /// Spans of another tracer (a client thread's), appended with parents
  /// re-indexed.
  void merge(const Tracer& other);

  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Inclusive time of every span with this name, summed, in ms.
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Mean inclusive ms per span with this name (0 when none).
  double mean_ms(const std::string& name) const;

  void write_json(std::ostream& os) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRec> spans_;
  std::int32_t cur_ = -1;
  std::int64_t op_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced pass runs the
/// same code with a null tracer).
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) idx_ = t_->open(name);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t idx_ = -1;
};

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0;  // inclusive
  double self_ms = 0;
  double share = 0;     // self_ms / sum of every row's self_ms
};
/// Layer rows over the spans of the timed ops, or of set-up (op -1).
std::vector<LayerRow> layer_table(const Tracer& t, bool setup);
void write_layer_table(std::ostream& os, const std::vector<LayerRow>& rows);

// ---- statistics ---------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set of this process, from /proc/self/status (0 if unreadable).
std::uint64_t peak_rss_bytes();
/// Steal jiffies summed over all CPUs, from /proc/stat (0 if unreadable).
std::uint64_t steal_jiffies();

// ---- results ------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::vector<std::pair<std::string, Metric>> end_to_end;
  std::vector<std::pair<std::string, Metric>> per_layer;
  Tracer spans;                  // traced pass only

  void fail(std::string why);
  void e2e(std::string name, double v, std::string unit) {
    end_to_end.emplace_back(std::move(name), Metric{v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    per_layer.emplace_back(std::move(name), Metric{v, std::move(unit)});
  }
};

/// One closed loop's op latencies in issue order; each sample completes
/// `ops_per_sample` ops.
struct Loop {
  std::vector<double> ms;
  double ops_per_sample = 1;
};

/// The samples behind the end-to-end metrics every workload reports.
/// `write_ms` holds "time until an answer on a changed topology".
struct PassTimes {
  std::vector<Loop> loops;         // throughput
  std::vector<double> latency_ms;  // query ops, in time order
  std::vector<double> write_ms;    // in time order
  std::uint64_t ops = 0;           // what rounds_per_op averages over
  std::uint64_t rounds = 0;        // charged rounds summed over the ops
};

/// `stat` of `v` per window of consecutive samples, median over the
/// windows. A window holds at least 100 samples (so a p90 has ten beyond
/// it), and there are at most 8: a burst of host interference (steal,
/// a noisy neighbour) then spoils one window instead of the whole run's
/// tail, while a slowdown of the program itself shows in every window.
double windowed(const std::vector<double>& v,
                double (*stat)(const std::vector<double>&));
double p50(const std::vector<double>& v);
double p90(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// Closed-loop throughput: a loop completes `ops_per_sample` ops per mean
/// op latency (windowed as above); the loops' rates add.
double ops_per_s(const std::vector<Loop>& loops);

void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const PassTimes& p);

// ---- workloads ----------------------------------------------------------

Result run_pipeline_cold(const Config& cfg);
Result run_session_batch(const Config& cfg);
Result run_amixd_churn(const Config& cfg);

}  // namespace perfbench
