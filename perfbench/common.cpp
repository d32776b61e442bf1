#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>

#include "perfbench.hpp"

namespace perfbench {

std::size_t op_count(const Config& cfg, double per_second,
                     std::size_t floor_ops) {
  if (cfg.tiny) return 4;
  const auto n =
      static_cast<std::size_t>(std::llround(per_second * cfg.seconds));
  return std::max(n, floor_ops);
}

std::int32_t Tracer::open(std::string name) {
  SpanRec s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  s.parent = cur_;
  s.op = op_;
  spans_.push_back(std::move(s));
  cur_ = static_cast<std::int32_t>(spans_.size() - 1);
  return cur_;
}

void Tracer::close(std::int32_t idx) {
  SpanRec& s = spans_[static_cast<std::size_t>(idx)];
  s.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count() -
             s.start_ns;
  cur_ = s.parent;
}

std::int32_t Tracer::add(std::string name, std::int64_t dur_ns,
                         std::int32_t parent) {
  SpanRec s;
  s.name = std::move(name);
  s.dur_ns = dur_ns;
  s.parent = parent;
  s.op = op_;
  spans_.push_back(std::move(s));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::merge(const Tracer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  const std::int64_t shift =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.epoch_ -
                                                           epoch_)
          .count();
  for (SpanRec s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    if (s.start_ns >= 0) s.start_ns += shift;
    spans_.push_back(std::move(s));
  }
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const SpanRec& s : spans_) {
    if (s.name == name) ns += s.dur_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const SpanRec& s) { return s.name == name; }));
}

double Tracer::mean_ms(const std::string& name) const {
  const std::size_t c = count(name);
  return c == 0 ? 0.0 : total_ms(name) / static_cast<double>(c);
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (i != 0) os << ",\n";
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  os << "]}\n";
}

std::vector<LayerRow> layer_table(const Tracer& t, bool setup) {
  const std::vector<SpanRec>& spans = t.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_ns;
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ns;
  }
  std::map<std::string, LayerRow> by_name;
  double all_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if ((spans[i].op < 0) != setup) continue;
    LayerRow& row = by_name[spans[i].name];
    row.name = spans[i].name;
    ++row.count;
    row.total_ms += static_cast<double>(spans[i].dur_ns) / 1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    all_self += static_cast<double>(self[i]) / 1e6;
  }
  std::vector<LayerRow> rows;
  for (auto& [name, row] : by_name) {
    row.share = all_self > 0 ? row.self_ms / all_self : 0.0;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.self_ms > b.self_ms;
            });
  return rows;
}

void write_layer_table(std::ostream& os, const std::vector<LayerRow>& rows) {
  os << std::left << std::setw(28) << "span" << std::right << std::setw(8)
     << "count" << std::setw(13) << "total_ms" << std::setw(13) << "self_ms"
     << std::setw(9) << "share" << "\n";
  for (const LayerRow& r : rows) {
    os << std::left << std::setw(28) << r.name << std::right << std::setw(8)
       << r.count << std::fixed << std::setprecision(2) << std::setw(13)
       << r.total_ms << std::setw(13) << r.self_ms << std::setprecision(1)
       << std::setw(8) << r.share * 100.0 << "%\n";
    os.unsetf(std::ios::fixed);
  }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t peak_rss_bytes() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching interpreter's peak.
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      in >> kib;
      return kib * 1024;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0;
}

std::uint64_t steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return 0;
  }
  return steal;
}

void Result::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

double windowed(const std::vector<double>& v,
                double (*stat)(const std::vector<double>&)) {
  const std::size_t windows =
      std::clamp<std::size_t>(v.size() / 100, 1, 8);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(stat(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / windows),
        v.begin() +
            static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows))));
  }
  return median(per_window);
}

double p50(const std::vector<double>& v) { return percentile(v, 0.50); }
double p90(const std::vector<double>& v) { return percentile(v, 0.90); }
double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ops_per_s(const std::vector<Loop>& loops) {
  double rate = 0;
  for (const Loop& loop : loops) {
    const double ms = windowed(loop.ms, mean);
    if (ms > 0) rate += loop.ops_per_sample * 1e3 / ms;
  }
  return rate;
}

void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const PassTimes& p) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(p.ops, 1));
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("ops_per_s", ops_per_s(p.loops), "1/s");
  r.e2e("latency_p50_ms", windowed(p.latency_ms, p50), "ms");
  r.e2e("latency_p90_ms", windowed(p.latency_ms, p90), "ms");
  r.e2e("write_p50_ms", windowed(p.write_ms, p50), "ms");
  r.e2e("write_p90_ms", windowed(p.write_ms, p90), "ms");
  r.e2e("rounds_per_op", static_cast<double>(p.rounds) / ops, "rounds");
  r.e2e("peak_rss_mb",
        static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");
}

}  // namespace perfbench
