// serve_bench — the serve-path benchmark (see perfbench/README.md).
//
//   serve_bench --workload <hot_point|cold_mixed|churn> --seed <n>
//               --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints every metric by name with its unit, then one `RESULT {...}` JSON
// line: the end-to-end metrics with --trace 0, the per-layer metrics of the
// traced replay with --trace 1. Exit status: 0 = valid and correct,
// 1 = a wrong answer, 2 = invalid run (set-up failure, generator
// lag beyond its bound, host CPU steal above 5% even in the quietest
// windows, traced layer medians out of order, or a quantile without enough
// samples beyond it).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "layers.h"
#include "serve.h"

namespace {

using perfbench::Metric;
using perfbench::MetricSheet;

void PrintSheet(const char* title, const MetricSheet& sheet) {
  std::printf("== %s ==\n", title);
  for (const Metric& m : sheet.metrics()) {
    if (m.is_quantile) {
      std::printf("%-34s %14.4f %-6s (n=%zu, beyond>=%zu)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples, m.beyond);
    } else {
      std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (!perfbench::FindWorkload(workload, &options.spec) ||
      options.workdir.empty() || !(options.seconds > 0)) {
    return Usage();
  }
  std::printf("serve_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Outcome out;
  perfbench::RunEndToEnd(options, &out);
  if (out.invalid.empty() && options.trace) perfbench::RunLayers(options, &out);
  if (!out.invalid.empty()) {
    std::printf("!! invalid run: %s\n", out.invalid.c_str());
    return 2;
  }
  PrintSheet("end-to-end (untraced)", out.e2e);
  PrintSheet(options.trace ? "per-layer" : "generator, cache and admission",
             out.layer);

  const MetricSheet& reported = options.trace ? out.layer : out.e2e;
  std::vector<std::string> bad = out.e2e.Invalid();
  if (options.trace) {
    for (const std::string& name : out.layer.Invalid()) bad.push_back(name);
  }
  if (!bad.empty()) {
    for (const std::string& name : bad) {
      std::printf("!! %s: zero, or fewer than %zu samples beyond its rank\n",
                  name.c_str(), MetricSheet::kMinBeyond);
    }
    return 2;
  }

  // ERR replies and dropped requests count as failed operations; an answer
  // that disagrees with its reference makes the run incorrect.
  const bool correct = out.wrong == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : reported.metrics()) {
    if (!std::isfinite(m.value)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}
