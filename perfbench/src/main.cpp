// ebbench: one benchmark run of one workload (driven by perfbench/run.py).
//
//   ebbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced and then traced for half the time each
// (their p50 ratio is trace.overhead), then a short traced pass of every
// other workload, so each traced run reports every layer metric; a layer
// metric comes from the first pass that produces it, the named workload's
// own pass first. Human-readable lines come first; the last line is the
// JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

// Peak resident set of this process, MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "ebbench: %s\nusage: ebbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1) {
    return usage("arguments come in --key value pairs");
  }
  for (const auto& [key, value] : args) {
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace" && key != "--trace-out") {
      return usage(("unknown argument " + key).c_str());
    }
  }
  const std::string workload = args["--workload"];
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  perfbench::PassOptions opt;
  bool traced = false;
  try {
    opt.seed = std::stoull(args.count("--seed") ? args["--seed"] : "1");
    opt.seconds = std::stod(args.count("--seconds") ? args["--seconds"] : "10");
    traced = std::stoi(args.count("--trace") ? args["--trace"] : "0") != 0;
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(opt.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }

  try {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    const auto tally = [&](const perfbench::PassResult& r) {
      attempted += r.attempted;
      failed += r.failed;
      correct = correct && r.correct;
    };
    if (!traced) {
      opt.setups = 11;
      const perfbench::PassResult r = perfbench::run_pass(workload, opt, nullptr);
      tally(r);
      metrics = r.metrics;
      metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
    } else {
      const std::string out_dir = args["--trace-out"];
      perfbench::PassOptions half = opt;
      half.seconds = opt.seconds / 2.0;
      const perfbench::PassResult plain =
          perfbench::run_pass(workload, half, nullptr);
      tally(plain);
      perfbench::PassOptions brief = opt;
      brief.seconds = std::max(1.0, opt.seconds / 10.0);
      // The named workload's own pass first, then every other workload.
      std::vector<std::string> order{workload};
      for (const auto& name : names) {
        if (name != workload) {
          order.push_back(name);
        }
      }
      for (const auto& name : order) {
        const bool own = name == workload;
        perfbench::Tracer tracer;
        const perfbench::PassResult r =
            perfbench::run_pass(name, own ? half : brief, &tracer);
        tally(r);
        for (const Metric& m : r.metrics) {
          const bool seen =
              std::any_of(metrics.begin(), metrics.end(),
                          [&](const Metric& have) { return have.name == m.name; });
          if (!seen) {
            metrics.push_back(m);
          }
        }
        if (own) {
          const perfbench::Summary& tail = plain.latency;
          char pct[32];
          std::snprintf(pct, sizeof(pct), "p%g", tail.tail_pct);
          metrics.push_back({"client.p99_ms", tail.tail, "ms", tail.count, pct});
          metrics.push_back({"trace.overhead",
                             r.latency.median / plain.latency.median, "ratio",
                             1});
        }
        if (tracer.dropped() > 0) {
          std::printf("# %s: %zu spans past the tracer's capacity dropped\n",
                      name.c_str(), tracer.dropped());
        }
        if (!out_dir.empty() &&
            !tracer.write_jsonl(out_dir + "/" + name + ".spans.jsonl")) {
          std::fprintf(stderr, "ebbench: cannot write spans to %s\n",
                       out_dir.c_str());
        }
      }
    }

    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, traced ? 1 : 0);
    std::printf("# attempted %zu failed %zu error_rate %.6g correct %s\n",
                attempted, failed,
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                correct ? "true" : "false");
    for (const Metric& m : metrics) {
      std::printf("# %-36s %16.6f %-9s n=%zu %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ebbench: %s\n", e.what());
    return 1;
  }
}
