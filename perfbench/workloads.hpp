// The benchmark's three batch workloads over the symfail pipeline.
//
//   paper_campaign  `symfail campaign`: 25 phones x 425 days, analysis and
//                   every rendered table (the paper's headline run); run
//                   by hand, BENCHMARK.json does not name it.
//   wide_fleet      `symfail campaign --phones 2000 --days 1`: the same
//                   per-event work over a deep event queue and short
//                   per-phone histories.
//   sweep           experiment::Runner over an `idle` and a `planes` cell
//                   (8 phones x 60 days, 16 trials each): the pool, the
//                   monitor tap, provenance, SRGM fits and fault planes.
//
// README.md in this directory maps each per-layer metric to the end-to-end
// metric and workload it should move.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "experiment/grid.hpp"
#include "experiment/runner.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed{2007};
    /// Minimum measured time: untraced runs repeat the workload until it
    /// is reached (always at least once).
    double seconds{1.0};
    bool trace{false};
    /// Scaled-down shapes for the self-test; goldens exist for both.
    bool smoke{false};
    /// Sweep pool size; main() sets it to min(nproc, 4).
    int jobs{1};
    /// Directory for rendered outputs and the span file.
    std::string outDir{"."};
};

/// Raw measurements of one run; run.py turns them into metrics.
struct RunReport {
    std::vector<double> wallSeconds;  ///< One per untraced repetition.
    std::vector<double> peakRssBytes;  ///< VmHWM of each repetition alone.
    double phoneHoursPerRep{0.0};     ///< Sum of expectedObservedHours.
    std::uint64_t attempted{0};       ///< Campaigns or trials run.
    std::uint64_t failed{0};          ///< Those that threw or failed a check.
    std::vector<std::string> errors;
    /// Rendered output of every pass (each must match the golden digest).
    std::vector<std::string> outputs;
    /// Per-layer metrics (traced runs only), in BENCHMARK.json order.
    std::vector<std::pair<std::string, double>> layers;
};

/// Workload inputs, built before the first timed call (the set-up phase).
struct Prepared {
    /// Campaign workloads: the study configuration of the one campaign.
    symfail::core::StudyConfig study;
    /// Sweep: the `idle` and `planes` cells and the runner settings.
    std::vector<symfail::experiment::Cell> cells;
    symfail::experiment::RunnerOptions runner;
    /// Paired on/off campaigns per attachment in a traced sweep.
    int overheadPairs{0};
    /// Untraced passes timed at least, whatever `Options::seconds` says.
    int minPasses{1};
};

[[nodiscard]] bool knownWorkload(const std::string& name);

/// Builds the configuration for `options.workload`.
[[nodiscard]] Prepared prepare(const Options& options);

/// Runs a prepared workload.
[[nodiscard]] RunReport run(const Options& options, const Prepared& prepared,
                            Tracer& tracer);

}  // namespace perfbench
