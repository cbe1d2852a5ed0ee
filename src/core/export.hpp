// CSV export of study results — the hand-off format for external plotting
// tools (the paper's figures were drawn in a spreadsheet; these files
// reproduce the series each figure plots, one file per figure).
//
// Each exporter comes in two forms: a streaming overload writing rows to a
// std::ostream (the primary implementation — export_* functions stream
// straight into their output files without building the table in memory)
// and a std::string convenience wrapper over it.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "core/turbulence.hpp"

namespace streamlab {

/// One row per clip: the master results table.
/// Columns: clip_id,player,tier,encoding_kbps,playback_kbps,frame_rate_fps,
/// fragment_pct,buffering_ratio,streaming_s,packets,lost,quality_pct
void study_results_csv(const StudyResults& study, std::ostream& out);
std::string study_results_csv(const StudyResults& study);

/// Figure series as CSV. `figure` selects which series:
///   "fig01" RTT samples; "fig02" hop counts; "fig03" playback-vs-encoding;
///   "fig05" fragmentation; "fig07" normalised sizes; "fig09" normalised
///   interarrivals; "fig11" buffering ratios; "fig14" frame rate vs encoding.
/// Unknown names write nothing / return an empty string.
void figure_csv(const StudyResults& study, const std::string& figure, std::ostream& out);
std::string figure_csv(const StudyResults& study, const std::string& figure);

/// Writes every known export into `directory` (created files:
/// study_results.csv and fig<NN>.csv). Returns the number of files written.
int export_study(const StudyResults& study, const std::string& directory);

/// Turbulence scenario results, one row per player session per run:
/// `scenario`, then one column per entry of kRecoveryColumns in export.cpp
/// (clip and player, session outcome, recovery and stall, frame and packet
/// accounting, loss repair, multipath).
void turbulence_csv(const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
                    std::ostream& out);
std::string turbulence_csv(const std::vector<std::pair<std::string, TurbulenceRunResult>>&
                               runs);

/// Episode ledger across runs. Columns: scenario,kind,label,start_s,
/// duration_s,applied,cleared,packets_dropped
void turbulence_episodes_csv(
    const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
    std::ostream& out);
std::string turbulence_episodes_csv(
    const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs);

/// Writes turbulence.csv and turbulence_episodes.csv into `directory`.
/// Returns the number of files written.
int export_turbulence(const std::vector<std::pair<std::string, TurbulenceRunResult>>& runs,
                      const std::string& directory);

}  // namespace streamlab
