#include "experiment/export.hpp"

#include <cstdio>
#include <filesystem>

#include "analysis/tables.hpp"
#include "obs/file.hpp"
#include "obs/trace.hpp"  // appendJsonEscaped

namespace symfail::experiment {
namespace {

/// Shortest round-trippable rendering; stable across platforms for the
/// doubles this pipeline produces (finite, no signed zeros of interest).
std::string jsonNum(double value) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    return std::string{buf};
}

void appendKey(std::string& out, std::string_view key) {
    out += '"';
    obs::appendJsonEscaped(out, key);
    out += "\":";
}

void appendCellParams(std::string& out, const Cell& cell) {
    out += "{";
    appendKey(out, "phones");
    out += std::to_string(cell.phones);
    out += ',';
    appendKey(out, "days");
    out += std::to_string(cell.days);
    out += ',';
    appendKey(out, "loss_pct");
    out += jsonNum(cell.lossPct);
    out += ',';
    appendKey(out, "dup_pct");
    out += jsonNum(cell.dupPct);
    out += ',';
    appendKey(out, "reorder_pct");
    out += jsonNum(cell.reorderPct);
    out += ',';
    appendKey(out, "outage_day");
    out += std::to_string(cell.outageDay);
    out += ',';
    appendKey(out, "outage_days");
    out += std::to_string(cell.outageDays);
    out += ',';
    appendKey(out, "heartbeat_seconds");
    out += jsonNum(cell.heartbeatSeconds);
    out += ',';
    appendKey(out, "self_shutdown_threshold_seconds");
    out += jsonNum(cell.selfShutdownThresholdSeconds);
    out += '}';
}

}  // namespace

std::string sweepToJson(const Summary& summary) {
    std::string out = "{\"sweep\":{";
    appendKey(out, "master_seed");
    out += std::to_string(summary.masterSeed);
    out += ',';
    appendKey(out, "trials_per_cell");
    out += std::to_string(summary.trialsPerCell);
    out += ',';
    appendKey(out, "failed_trials");
    out += std::to_string(summary.failedTrials());
    out += ',';
    appendKey(out, "cells");
    out += '[';
    const auto trials = static_cast<std::size_t>(summary.trialsPerCell);
    for (std::size_t c = 0; c < summary.cells.size(); ++c) {
        const CellSummary& cell = summary.cells[c];
        if (c != 0) out += ',';
        out += "{";
        appendKey(out, "label");
        out += '"';
        obs::appendJsonEscaped(out, cell.cell.label());
        out += "\",";
        appendKey(out, "params");
        appendCellParams(out, cell.cell);
        out += ',';
        appendKey(out, "failed_trials");
        out += std::to_string(cell.failedCount);
        out += ',';
        appendKey(out, "trials");
        out += '[';
        for (std::size_t t = 0; t < trials; ++t) {
            const TrialResult& trial = summary.trials[c * trials + t];
            if (t != 0) out += ',';
            out += "{";
            appendKey(out, "trial");
            out += std::to_string(t);
            out += ',';
            appendKey(out, "seed");
            out += std::to_string(trial.seed);
            out += ',';
            if (trial.ok) {
                appendKey(out, "metrics");
                out += '{';
                for (std::size_t m = 0; m < trial.metrics.size(); ++m) {
                    if (m != 0) out += ',';
                    appendKey(out, trial.metrics[m].first);
                    out += jsonNum(trial.metrics[m].second);
                }
                out += '}';
            } else {
                appendKey(out, "error");
                out += '"';
                obs::appendJsonEscaped(out, trial.error);
                out += '"';
            }
            out += '}';
        }
        out += "],";
        appendKey(out, "metrics");
        out += '{';
        for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
            const auto& [name, stats] = cell.metrics[m];
            if (m != 0) out += ',';
            appendKey(out, name);
            out += '{';
            appendKey(out, "n");
            out += std::to_string(stats.n);
            out += ',';
            appendKey(out, "mean");
            out += jsonNum(stats.mean);
            out += ',';
            appendKey(out, "stddev");
            out += jsonNum(stats.stddev);
            out += ',';
            appendKey(out, "min");
            out += jsonNum(stats.min);
            out += ',';
            appendKey(out, "max");
            out += jsonNum(stats.max);
            out += ',';
            appendKey(out, "ci95");
            out += '[' + jsonNum(stats.ciLow) + ',' + jsonNum(stats.ciHigh) + "],";
            appendKey(out, "bootstrap95");
            out += '[' + jsonNum(stats.bootstrapLow) + ',' +
                   jsonNum(stats.bootstrapHigh) + ']';
            out += '}';
        }
        out += "}}";
    }
    out += "]}}\n";
    return out;
}

void exportSweepJson(const Summary& summary, const std::string& path) {
    obs::writeFile(path, sweepToJson(summary));
}

std::vector<std::string> exportSweepCsv(const Summary& summary,
                                        const std::string& directory) {
    const std::filesystem::path dir{directory};
    std::filesystem::create_directories(dir);
    std::vector<std::string> written;

    {
        analysis::TextTable table{{"cell", "metric", "n", "mean", "stddev", "min",
                                   "max", "ci95_lo", "ci95_hi", "bootstrap95_lo",
                                   "bootstrap95_hi"}};
        for (const auto& cell : summary.cells) {
            const std::string label = cell.cell.label();
            for (const auto& [name, stats] : cell.metrics) {
                table.addRow({label, name, std::to_string(stats.n),
                              jsonNum(stats.mean), jsonNum(stats.stddev),
                              jsonNum(stats.min), jsonNum(stats.max),
                              jsonNum(stats.ciLow), jsonNum(stats.ciHigh),
                              jsonNum(stats.bootstrapLow),
                              jsonNum(stats.bootstrapHigh)});
            }
        }
        written.push_back(obs::writeFile(dir / "sweep_summary.csv", table.renderCsv()));
    }
    {
        analysis::TextTable table{{"cell", "trial", "seed", "status", "metric",
                                   "value"}};
        const auto trials = static_cast<std::size_t>(summary.trialsPerCell);
        for (std::size_t c = 0; c < summary.cells.size(); ++c) {
            const std::string label = summary.cells[c].cell.label();
            for (std::size_t t = 0; t < trials; ++t) {
                const TrialResult& trial = summary.trials[c * trials + t];
                if (!trial.ok) {
                    table.addRow({label, std::to_string(t), std::to_string(trial.seed),
                                  "error", trial.error, ""});
                    continue;
                }
                for (const auto& [name, value] : trial.metrics) {
                    table.addRow({label, std::to_string(t), std::to_string(trial.seed),
                                  "ok", name, jsonNum(value)});
                }
            }
        }
        written.push_back(obs::writeFile(dir / "sweep_trials.csv", table.renderCsv()));
    }
    return written;
}

std::string renderSweepReport(const Summary& summary) {
    std::string out = "== Sweep summary ==\n";
    out += "master seed " + std::to_string(summary.masterSeed) + ", " +
           std::to_string(summary.trialsPerCell) + " trial(s) per cell, " +
           std::to_string(summary.cells.size()) + " cell(s)";
    const std::size_t failed = summary.failedTrials();
    if (failed > 0) out += ", " + std::to_string(failed) + " FAILED trial(s)";
    out += "\n\n";
    for (const auto& cell : summary.cells) {
        out += "-- " + cell.cell.label() + " --\n";
        analysis::TextTable table{
            {"metric", "mean", "stddev", "ci95_lo", "ci95_hi", "boot_lo", "boot_hi"}};
        for (const auto& [name, stats] : cell.metrics) {
            table.addRow({name, analysis::TextTable::num(stats.mean, 3),
                          analysis::TextTable::num(stats.stddev, 3),
                          analysis::TextTable::num(stats.ciLow, 3),
                          analysis::TextTable::num(stats.ciHigh, 3),
                          analysis::TextTable::num(stats.bootstrapLow, 3),
                          analysis::TextTable::num(stats.bootstrapHigh, 3)});
        }
        out += table.render();
        for (const auto& error : cell.errors) {
            out += "  !! " + error + "\n";
        }
        out += "\n";
    }
    return out;
}

}  // namespace symfail::experiment
