// The amix benchmark binary: one workload per process.
//
//   perfbench --workload pipeline-cold|session-batch|amixd-churn
//             --seed <n> --seconds <s> --trace 0|1
//             [--tiny] [--inject-failure] [--out <dir>]
//
// --seconds sizes a fixed op count (ops = rate * seconds), so every run
// with the same arguments executes the identical op sequence; only the
// machine varies. --trace 0 reports the end-to-end metrics; --trace 1
// adds a traced pass over the same sequence and reports the per-layer
// metrics. The last stdout line is the result object
// {"correct","attempted","failed","metrics"}; the run context, failures
// and (traced) layer table and spans are written under --out.

#include <sys/stat.h>

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace 0|1 [--tiny] [--inject-failure] [--out <dir>]\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void write_metrics(std::ostream& os,
                   const std::vector<std::pair<std::string, Metric>>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << ms[i].first << "\":{\"value\":" << number(ms[i].second.value)
       << ",\"unit\":\"" << ms[i].second.unit << "\"}";
  }
  os << "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "perfbench: refusing to run a non-optimised build "
               "(build type " PERFBENCH_BUILD_TYPE ")\n";
  return 3;
#endif
  Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--inject-failure") {
      cfg.inject_failure = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      cfg.workload = argv[++i];
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
      have_trace = true;
    } else if (a == "--out") {
      cfg.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }

  Result (*run)(const Config&) = nullptr;
  if (cfg.workload == "pipeline-cold") run = run_pipeline_cold;
  if (cfg.workload == "session-batch") run = run_session_batch;
  if (cfg.workload == "amixd-churn") run = run_amixd_churn;
  if (run == nullptr) return usage("unknown workload");

  const std::uint64_t steal0 = steal_jiffies();
  const auto t0 = Clock::now();
  Result r = run(cfg);
  const double wall_s = seconds_between(t0, Clock::now());
  const std::uint64_t steal = steal_jiffies() - steal0;
  for (const std::string& f : r.failures) std::cerr << "FAILED: " << f << "\n";

  // The run context and everything else the result line has no room for.
  ::mkdir(cfg.out_dir.c_str(), 0755);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0");
  {
    std::ofstream os(stem + ".json");
    os << "{\"context\":{\"workload\":\"" << cfg.workload
       << "\",\"seed\":" << cfg.seed << ",\"seconds\":" << number(cfg.seconds)
       << ",\"trace\":" << (cfg.trace ? 1 : 0)
       << ",\"tiny\":" << (cfg.tiny ? 1 : 0)
       << ",\"build_type\":\"" PERFBENCH_BUILD_TYPE
          "\",\"cxx_flags\":\"" PERFBENCH_CXX_FLAGS "\",\"compiler\":\""
       << json_escape(__VERSION__)
       << "\",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"steal_jiffies\":" << steal << ",\"wall_s\":" << number(wall_s)
       << "},\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      os << (i != 0 ? "," : "") << "\"" << json_escape(r.failures[i]) << "\"";
    }
    os << "],\"end_to_end\":";
    write_metrics(os, r.end_to_end);
    os << ",\"per_layer\":";
    write_metrics(os, r.per_layer);
    os << "}\n";
  }
  if (cfg.trace) {
    std::ofstream table(stem + "-layers.txt");
    for (const bool setup : {false, true}) {
      const std::vector<LayerRow> rows = layer_table(r.spans, setup);
      for (std::ostream* os :
           {static_cast<std::ostream*>(&table), &std::cerr}) {
        *os << (setup ? "\nset-up\n" : "timed ops\n");
        write_layer_table(*os, rows);
      }
    }
    for (const auto& [name, m] : r.per_layer) {
      if (name == "obs.trace_overhead_ratio") {
        table << "\n" << name << " " << number(m.value) << "\n";
      }
    }
    std::ofstream spans(stem + "-spans.json");
    r.spans.write_json(spans);
  }

  std::ostringstream line;
  line << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"metrics\":";
  write_metrics(line, cfg.trace ? r.per_layer : r.end_to_end);
  line << "}";
  std::cout << line.str() << std::endl;
  return 0;
}
