// synthesize_traffic: Section IV end-to-end — run a measurement study, fit
// the empirical traffic model, generate a synthetic flow for a chosen clip,
// validate it against the fitted distributions, and export an ns-2 trace.
//
// Usage: synthesize_traffic [clip-id] [output.nstr]
// The trace defaults to streamlab_flow.nstr in the current directory.
#include <cstdio>
#include <string>

#include "core/study.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/ns_trace.hpp"
#include "util/strings.hpp"

using namespace streamlab;

int main(int argc, char** argv) {
  const std::string clip_id = argc > 1 ? argv[1] : "set1/R-l";
  const std::string out_path = argc > 2 ? argv[2] : "streamlab_flow.nstr";
  const auto clip = find_clip(clip_id);
  if (!clip) {
    std::fprintf(stderr, "unknown clip id '%s'\n", clip_id.c_str());
    return 1;
  }

  // A two-set study is enough to fit distributions spanning the rate range.
  std::printf("running calibration study (data sets %d and 6)...\n", clip->data_set);
  StudyConfig config;
  config.seed = 2002;
  const StudyResults study = run_study_subset(
      config, clip->data_set == 6 ? std::vector<int>{1, 6}
                                  : std::vector<int>{clip->data_set, 6});

  std::printf("fitting the Section IV flow model...\n");
  const FlowModel model = FlowModel::fit(study);

  SyntheticFlowGenerator generator(model, /*seed=*/99);
  const SyntheticFlow flow = generator.generate(*clip);

  std::printf("\nsynthetic %s flow (%s):\n", to_string(clip->player).c_str(),
              clip_id.c_str());
  std::printf("  path RTT drawn from Fig 1 distribution: %.1f ms\n", flow.rtt_ms);
  std::printf("  packets:            %zu\n", flow.packets.size());
  std::printf("  duration:           %.1f s (clip %s)\n", flow.duration_s(),
              to_string(clip->length).c_str());
  std::printf("  mean rate:          %.1f Kbps (encoded %.1f)\n", flow.mean_rate_kbps(),
              clip->encoded_rate.to_kbps());
  std::printf("  fragment fraction:  %.1f%%\n", 100.0 * flow.fragment_fraction());

  const auto v = validate_against_model(flow, model);
  std::printf("\nvalidation against the fitted distributions:\n");
  std::printf("  KS distance (normalized sizes):     %.3f\n", v.size_ks);
  std::printf("  KS distance (normalized intervals): %.3f\n", v.interval_ks);
  std::printf("  rate relative error:                %.1f%%\n",
              100.0 * v.rate_relative_error);

  if (!write_ns_trace_file(out_path, flow)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote ns-2 trace: %s (%zu packet events)\n", out_path.c_str(),
              flow.packets.size());
  return 0;
}
