// perfbench: streamlab's end-to-end and per-layer benchmark.
//
//   perfbench --workload <study|campaign|fleet> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it alternates traced and untraced repetitions, runs the
// layer probes and reports the per-layer table. Either way every output
// check runs, and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "alloc_count.hpp"
#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <study|campaign|fleet> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return argv0;
  buf[n] = '\0';
  return buf;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Picks the reported metrics in canonical order; false if one is missing.
bool select_metrics(const std::vector<Metric>& measured,
                    const std::vector<std::pair<std::string, std::string>>& wanted,
                    std::vector<Metric>& out) {
  for (const auto& [name, unit] : wanted) {
    const Metric* found = nullptr;
    for (const Metric& m : measured)
      if (m.name == name) found = &m;
    if (found == nullptr || found->unit != unit) {
      std::fprintf(stderr, "internal error: metric %s missing or mislabelled\n", name.c_str());
      return false;
    }
    out.push_back(*found);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--campaign-worker") == 0)
    return campaign_worker_main(argc, argv);

  Options options;
  options.exe_path = self_exe(argv[0]);
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) return usage();

  Report (*run)(const Options&, SpanRecorder&) = nullptr;
  if (options.workload == "study") run = run_study;
  if (options.workload == "campaign") run = run_campaign;
  if (options.workload == "fleet") run = run_fleet;
  if (run == nullptr) return usage();

  options.out_dir = ".bench_out";
  std::filesystem::create_directories(options.out_dir);
  SpanRecorder spans(options.trace, allocations);

  Report report;
  try {
    report = run(options, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (options.trace) fill_unmeasured_layers(report, options.workload);

  std::vector<Metric> reported;
  if (!select_metrics(options.trace ? report.layers : report.end_to_end,
                      options.trace ? per_layer_metrics() : end_to_end_metrics(), reported))
    return 3;

  std::printf("workload %s  seed %llu  %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const std::string& line : report.notes) std::printf("  %s\n", line.c_str());
  for (const Metric& m : reported)
    std::printf("  %-32s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  if (options.trace) {
    for (const std::string& line : span_table(spans)) std::printf("  %s\n", line.c_str());
    const std::string base = options.out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed);
    if (!spans.write_ndjson(base + ".spans.ndjson"))
      std::fprintf(stderr, "perfbench: could not write %s.spans.ndjson\n", base.c_str());
    std::ofstream table(base + ".layers.tsv", std::ios::trunc);
    for (const Metric& m : report.layers)
      table << m.name << '\t' << json_number(m.value) << '\t' << m.unit << '\t' << m.note << '\n';
  }
  std::printf("  result_digest %s\n", hex64(report.result_digest).c_str());
  for (const std::string& failure : report.check_failures)
    std::printf("  CHECK FAILED: %s\n", failure.c_str());

  const bool correct = report.check_failures.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(report.attempted, 1)) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json += (i ? ", " : "") + std::string("\"") + json_escape(m.name) + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
