#include "cli.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/version_stats.hpp"
#include "core/export.hpp"
#include "core/logio.hpp"
#include "core/perf.hpp"
#include "core/render.hpp"
#include "core/study.hpp"
#include "experiment/export.hpp"
#include "experiment/grid.hpp"
#include "experiment/runner.hpp"
#include "monitor/monitor.hpp"
#include "osfault/validity.hpp"
#include "obs/file.hpp"
#include "obs/metrics.hpp"
#include "srgm/analyze.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "transport/metrics.hpp"

namespace symfail::cli {
namespace {

void printUsage() {
    std::printf(
        "usage: symfail <command> [options]\n"
        "\n"
        "commands:\n"
        "  campaign [--phones N] [--days D] [--seed S] [--logs DIR] [--csv DIR]\n"
        "           [--json FILE] [--no-transport] [--loss PCT] [--no-retries]\n"
        "           [--flash-fault R] [--mem-pressure R] [--clock-skew PPM]\n"
        "           [--radio-fault R] [--trace FILE] [--metrics FILE]\n"
        "           run a fleet campaign (defaults: the paper's 25 phones,\n"
        "           425 days) and print every regenerated artifact;\n"
        "           --trace writes a Perfetto-loadable trace, --metrics a\n"
        "           metrics snapshot (.json/.csv by extension, else\n"
        "           Prometheus text)\n"
        "  transport [--phones N] [--days D] [--seed S] [--loss PCT] [--dup PCT]\n"
        "           [--reorder PCT] [--no-retries] [--outage-day D --outage-days N]\n"
        "           run a campaign and analyze what the lossy collection\n"
        "           path delivered (the analysis runs on the *collected*\n"
        "           logs, partial if segments were permanently lost)\n"
        "  analyze <logdir> [--csv DIR]\n"
        "           run the analysis pipeline over *.log files on disk\n"
        "  crash   <logdir> [--json FILE] [--csv DIR] [--metrics FILE]\n"
        "           cluster the structured crash dumps found in *.log files\n"
        "           into crash families (signature hash with similarity\n"
        "           fallback) and print the family table; the output is a\n"
        "           pure function of the logs, byte-identical across runs\n"
        "  forum    [--reports N] [--seed S]\n"
        "           run the web-forum study (Table 1)\n"
        "  obs      [--phones N] [--days D] [--seed S] [--trace FILE]\n"
        "           [--metrics FILE]\n"
        "           run an instrumented campaign (default 60 days) and print\n"
        "           the host-time profile and the metric snapshot\n"
        "  monitor  [--phones N] [--days D] [--seed S] [--no-transport] [--loss PCT]\n"
        "           [--outage-day D --outage-days N] [--replay] [--tick-hours H]\n"
        "           [--silence-hours H] [--snapshots FILE.jsonl] [--alerts FILE]\n"
        "           [--metrics FILE]\n"
        "           run a campaign (default 120 days) with the online\n"
        "           fleet-health monitor attached to the ingest path and\n"
        "           print the live dashboard; --replay streams the collected\n"
        "           dataset through the monitor instead and checks the\n"
        "           online burst/coalescence counts against the batch\n"
        "           analysis (exit 1 on mismatch)\n"
        "  trace    [--phones N] [--days D] [--seed S] [--no-transport] [--loss PCT]\n"
        "           [--dup PCT] [--reorder PCT] [--no-retries]\n"
        "           [--outage-day D --outage-days N] [--record PHONE#ID] [--lost]\n"
        "           [--flow-all] [--trace FILE] [--json FILE] [--metrics FILE]\n"
        "           run a campaign (default 120 days) with end-to-end failure\n"
        "           provenance and print the pipeline accounting table\n"
        "           (created = delivered + torn + lost-wire + lost-outage +\n"
        "           pending); --record explains why one record did or did\n"
        "           not arrive, --lost lists every undelivered record,\n"
        "           --trace adds Perfetto flow chains; exit 1 if the\n"
        "           conservation invariant fails\n"
        "  sweep    [--trials N] [--jobs J] [--grid FILE.json] [--seed S]\n"
        "           [--phones N] [--days D] [--bootstrap R] [--json FILE]\n"
        "           [--csv DIR] [--metrics FILE] [--flash-fault R]\n"
        "           [--mem-pressure R] [--clock-skew PPM] [--radio-fault R]\n"
        "           run N replicated trials of every grid cell on J workers\n"
        "           and report mean / stddev / 95%% CI per metric; output is\n"
        "           byte-identical for any --jobs value at a fixed seed;\n"
        "           grid axes flash_fault_per_khour / mem_pressure_per_khour /\n"
        "           clock_skew_ppm / radio_fault_per_khour sweep the planes\n"
        "  osfault  [--phones N] [--days D] [--seed S] [--loss PCT]\n"
        "           [--flash-fault R] [--mem-pressure R] [--clock-skew PPM]\n"
        "           [--radio-fault R] [--check] [--min-precision P]\n"
        "           [--min-recall R] [--min-capture C]\n"
        "           run a campaign (default 120 days) with the OS-interface\n"
        "           fault planes enabled (rates in faults per 1000 h; skew in\n"
        "           ppm) and score measurement validity: how precisely the\n"
        "           pipeline still recovers the ground-truth failure tables;\n"
        "           --check exits 1 when recovery drops below the bounds\n"
        "  srgm     [<logdir>] [--phones N] [--days D] [--seed S] [--loss PCT]\n"
        "           [--holdout F] [--fleet-only] [--json FILE] [--csv DIR]\n"
        "           [--metrics FILE] [--check] [--max-count-err E]\n"
        "           [--min-preq-gain G] [--max-ks D]\n"
        "           fit the NHPP reliability-growth model family\n"
        "           (Goel-Okumoto, Musa-Okumoto, delayed S-shaped,\n"
        "           Weibull-type) to the campaign's failure times at fleet,\n"
        "           per-phone and per-version level, select by AIC/BIC with\n"
        "           a KS goodness-of-fit check, and benchmark a held-out\n"
        "           forecast (fit on the first --holdout fraction, score\n"
        "           the tail) against a constant-rate baseline; with a\n"
        "           <logdir> the fits run over *.log files on disk instead\n"
        "           of a fresh campaign (default: the paper's 25 phones,\n"
        "           425 days); --check exits 1 when the holdout forecast\n"
        "           misses the bounds\n"
        "  perf     [--fleet-sizes N,M,...] [--phones N] [--days D] [--seed S]\n"
        "           [--sample-hours H] [--stride K] [--json FILE] [--csv DIR]\n"
        "           [--metrics FILE] [--check] [--max-bytes-per-phone B]\n"
        "           [--min-phone-hours-per-sec T]\n"
        "           run short scaling campaigns at a ladder of fleet sizes\n"
        "           (default 25 and 10000 phones, 2 days each) and report\n"
        "           phone-hours/sec, bytes/phone, peak RSS and per-subsystem\n"
        "           byte breakdowns; the JSON's accounting sections are\n"
        "           byte-identical across runs at a fixed seed; --check\n"
        "           exits 1 when a cell misses the bounds\n"
        "  tables   print the paper's reference taxonomies\n"
        "  help     show this message\n");
}

/// Pulls `--name value` from args; returns nullopt when absent.
std::optional<std::string> option(const std::vector<std::string>& args,
                                  const std::string& name) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == name) return args[i + 1];
    }
    return std::nullopt;
}

long long numericOption(const std::vector<std::string>& args, const std::string& name,
                        long long fallback) {
    const auto value = option(args, name);
    if (!value) return fallback;
    try {
        // std::stoll accepts partial parses ("25x" -> 25); demand that the
        // whole token was consumed so typos fail loudly instead of running
        // a different campaign than the one asked for.
        std::size_t consumed = 0;
        const long long parsed = std::stoll(*value, &consumed);
        if (consumed != value->size()) {
            throw std::invalid_argument{"trailing characters"};
        }
        return parsed;
    } catch (const std::exception&) {
        throw std::runtime_error("invalid value for " + name + ": " + *value);
    }
}

/// numericOption() restricted to [lo, hi]: an out-of-range value fails the
/// run instead of silently doing something other than what was asked.
long long boundedOption(const std::vector<std::string>& args, const std::string& name,
                        long long fallback, long long lo, long long hi) {
    const long long value = numericOption(args, name, fallback);
    if (value < lo || value > hi) {
        throw std::runtime_error(name + " must be in [" + std::to_string(lo) + ", " +
                                 std::to_string(hi) + "], got " +
                                 std::to_string(value));
    }
    return value;
}

bool hasFlag(const std::vector<std::string>& args, const std::string& name) {
    for (const auto& arg : args) {
        if (arg == name) return true;
    }
    return false;
}

double percentOption(const std::vector<std::string>& args, const std::string& name,
                     double fallbackPercent) {
    const auto value = option(args, name);
    if (!value) return fallbackPercent;
    double percent = 0.0;
    try {
        std::size_t consumed = 0;
        percent = std::stod(*value, &consumed);
        if (consumed != value->size()) {
            throw std::invalid_argument{"trailing characters"};
        }
    } catch (const std::exception&) {
        throw std::runtime_error("invalid value for " + name + ": " + *value);
    }
    if (percent < 0.0 || percent > 100.0) {
        throw std::runtime_error(name + " must be a percentage in [0, 100], got " +
                                 *value);
    }
    return percent;
}

/// Shared `--phones/--days/--seed` parsing for every campaign-shaped
/// subcommand (campaign/obs/transport/sweep), so the flags parse — and
/// reject malformed values — identically everywhere.  `--phones` falls
/// back to the preset `config.phoneCount`, `--days` to `defaultDays`
/// (subcommands default to different campaign lengths), `--seed` to the
/// preset `config.seed`.  Returns the campaign length in days for banner
/// printing.
long long parseFleetOptions(const std::vector<std::string>& args,
                            fleet::FleetConfig& config, long long defaultDays) {
    config.phoneCount =
        static_cast<int>(boundedOption(args, "--phones", config.phoneCount, 1, 100'000));
    const auto days = boundedOption(args, "--days", defaultDays, 1, 100'000);
    config.campaign = sim::Duration::days(days);
    if (config.enrollmentWindow > config.campaign) {
        config.enrollmentWindow = config.campaign / 2;
    }
    config.seed = static_cast<std::uint64_t>(
        numericOption(args, "--seed", static_cast<long long>(config.seed)));
    return days;
}

/// Fails fast when an output *file* path cannot be created: rejects
/// directories and missing parent directories, and probes writability by
/// opening the file (removed again if the probe created it).  Called
/// before a campaign runs, so a typo'd path costs seconds, not the run.
void requireWritableFile(const std::string& path, const std::string& flag) {
    namespace fs = std::filesystem;
    if (path.empty()) {
        throw std::runtime_error(flag + " requires a non-empty path");
    }
    const fs::path target{path};
    std::error_code ec;
    if (fs::is_directory(target, ec)) {
        throw std::runtime_error(flag + " path is a directory: " + path);
    }
    const fs::path parent =
        target.parent_path().empty() ? fs::path{"."} : target.parent_path();
    if (!fs::is_directory(parent, ec)) {
        throw std::runtime_error(flag + " parent directory does not exist: " +
                                 parent.string());
    }
    const bool existed = fs::exists(target, ec);
    const bool writable =
        static_cast<bool>(std::ofstream{target, std::ios::binary | std::ios::app});
    if (!existed) fs::remove(target, ec);
    if (!writable) {
        throw std::runtime_error("cannot write " + flag + " file: " + path);
    }
}

/// Fails fast when an output *directory* cannot be used: creates it (as
/// the exporters would) and rejects paths occupied by a non-directory.
void requireWritableDir(const std::string& path, const std::string& flag) {
    namespace fs = std::filesystem;
    if (path.empty()) {
        throw std::runtime_error(flag + " requires a non-empty path");
    }
    std::error_code ec;
    const fs::path target{path};
    if (fs::exists(target, ec) && !fs::is_directory(target, ec)) {
        throw std::runtime_error(flag + " path exists and is not a directory: " +
                                 path);
    }
    fs::create_directories(target, ec);
    if (ec || !fs::is_directory(target)) {
        throw std::runtime_error("cannot create " + flag + " directory: " + path);
    }
}

/// Validates every output path a subcommand may write, before it runs.
void validateOutputPaths(const std::vector<std::string>& args) {
    for (const char* flag :
         {"--trace", "--metrics", "--json", "--snapshots", "--alerts"}) {
        if (const auto path = option(args, flag)) requireWritableFile(*path, flag);
    }
    for (const char* flag : {"--csv", "--logs"}) {
        if (const auto path = option(args, flag)) requireWritableDir(*path, flag);
    }
}

/// Writes a metrics snapshot to `path`.  Format follows the extension:
/// .json and .csv as named, anything else Prometheus text exposition.
void writeMetricsFile(const obs::MetricsRegistry& registry, const std::string& path) {
    const auto endsWith = [&](std::string_view suffix) {
        return path.size() >= suffix.size() &&
               path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    std::string body;
    if (endsWith(".json")) {
        body = registry.renderJson();
    } else if (endsWith(".csv")) {
        body = registry.renderCsv();
    } else {
        body = registry.renderPrometheus();
    }
    obs::writeFile(path, body);
    std::printf("wrote %zu metrics to %s\n", registry.size(), path.c_str());
}

void writeTextFile(const std::string& path, const std::string& body,
                   const char* what) {
    obs::writeFile(path, body);
    std::printf("wrote %s to %s\n", what, path.c_str());
}

/// Observability attachments requested via --trace/--metrics; owns the
/// sinks for the duration of the run and writes the files afterwards.
struct ObsAttachment {
    std::unique_ptr<obs::ChromeTraceWriter> traceWriter;
    obs::MetricsRegistry registry;
    std::optional<std::string> tracePath;
    std::optional<std::string> metricsPath;

    /// Reads --trace/--metrics and wires the sinks into the fleet config.
    void attach(const std::vector<std::string>& args, fleet::FleetConfig& config) {
        tracePath = option(args, "--trace");
        metricsPath = option(args, "--metrics");
        if (tracePath) {
            traceWriter = std::make_unique<obs::ChromeTraceWriter>();
            config.obs.trace = traceWriter.get();
        }
        if (metricsPath) config.obs.metrics = &registry;
    }

    /// Writes the requested files.  Metrics format follows the extension:
    /// .json and .csv as named, anything else Prometheus text exposition.
    void finish() const {
        if (tracePath) {
            traceWriter->writeFile(*tracePath);
            std::printf("wrote trace (%zu events) to %s\n",
                        traceWriter->eventCount(), tracePath->c_str());
        }
        if (metricsPath) writeMetricsFile(registry, *metricsPath);
    }
};

/// `--name value` as a bounded real number (used by the osfault knobs,
/// whose rates are not percentages).
double realOption(const std::vector<std::string>& args, const std::string& name,
                  double fallback, double lo, double hi) {
    const auto value = option(args, name);
    if (!value) return fallback;
    double parsed = 0.0;
    try {
        std::size_t consumed = 0;
        parsed = std::stod(*value, &consumed);
        if (consumed != value->size()) {
            throw std::invalid_argument{"trailing characters"};
        }
    } catch (const std::exception&) {
        throw std::runtime_error("invalid value for " + name + ": " + *value);
    }
    if (parsed < lo || parsed > hi) {
        throw std::runtime_error(name + " must be in [" + std::to_string(lo) +
                                 ", " + std::to_string(hi) + "], got " + *value);
    }
    return parsed;
}

/// Applies the OS-interface fault-plane knobs.  Rates are faults per 1000
/// simulated hours (the paper's failure-rate unit); skew is in ppm.  All
/// default to zero, which attaches no planes at all.
void applyOsfaultOptions(const std::vector<std::string>& args,
                         fleet::FleetConfig& config) {
    auto& osfault = config.osfault;
    osfault.flash.faultsPerKHour =
        realOption(args, "--flash-fault", osfault.flash.faultsPerKHour, 0.0, 100'000.0);
    osfault.memory.episodesPerKHour = realOption(
        args, "--mem-pressure", osfault.memory.episodesPerKHour, 0.0, 100'000.0);
    osfault.clock.skewPpm =
        realOption(args, "--clock-skew", osfault.clock.skewPpm, -10'000.0, 10'000.0);
    osfault.radio.faultsPerKHour =
        realOption(args, "--radio-fault", osfault.radio.faultsPerKHour, 0.0, 100'000.0);
}

/// Applies the shared transport knobs (--loss/--dup/--reorder as percent,
/// --no-retries, --outage-day/--outage-days) to a fleet config.
void applyTransportOptions(const std::vector<std::string>& args,
                           fleet::FleetConfig& config) {
    auto& transportOptions = config.transport;
    const double loss = percentOption(
        args, "--loss", 100.0 * transportOptions.dataChannel.lossProb);
    const double dup =
        percentOption(args, "--dup", 100.0 * transportOptions.dataChannel.dupProb);
    const double reorder = percentOption(
        args, "--reorder", 100.0 * transportOptions.dataChannel.reorderProb);
    transportOptions.dataChannel.lossProb = loss / 100.0;
    transportOptions.dataChannel.dupProb = dup / 100.0;
    transportOptions.dataChannel.reorderProb = reorder / 100.0;
    transportOptions.ackChannel.lossProb = loss / 100.0;
    if (hasFlag(args, "--no-retries")) {
        transportOptions.policy.retriesEnabled = false;
    }
    const auto outageDay = option(args, "--outage-day");
    if (!outageDay && option(args, "--outage-days")) {
        throw std::runtime_error(
            "--outage-days needs --outage-day (the outage's start day)");
    }
    if (outageDay) {
        const auto start =
            sim::TimePoint::origin() +
            sim::Duration::days(boundedOption(args, "--outage-day", 0, 0, 100'000));
        const auto length =
            sim::Duration::days(boundedOption(args, "--outage-days", 3, 1, 100'000));
        transport::OutageWindow window{start, start + length};
        transportOptions.dataChannel.outages.push_back(window);
        transportOptions.ackChannel.outages.push_back(window);
    }
}

void printFieldResults(const core::FieldStudyResults& results, bool withEvaluation) {
    std::printf("%s\n", core::renderHeadline(results).c_str());
    std::printf("%s\n", core::renderFig2(results).c_str());
    std::printf("%s\n", core::renderTable2(results).c_str());
    std::printf("%s\n", core::renderFig3(results).c_str());
    std::printf("%s\n", core::renderFig5(results).c_str());
    std::printf("%s\n", core::renderTable3(results).c_str());
    std::printf("%s\n", core::renderFig6(results).c_str());
    std::printf("%s\n", core::renderTable4(results).c_str());
    std::printf("%s\n", core::renderCrashFamilies(results).c_str());
    std::printf("%s\n", core::renderPerPhone(results).c_str());
    if (withEvaluation) {
        std::printf("%s\n", core::renderEvaluation(results).c_str());
    }
}

int runCampaign(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    core::StudyConfig config;
    const auto days = parseFleetOptions(args, config.fleetConfig, 425);
    if (hasFlag(args, "--no-transport")) config.fleetConfig.transport.enabled = false;
    applyTransportOptions(args, config.fleetConfig);
    applyOsfaultOptions(args, config.fleetConfig);
    ObsAttachment obsFiles;
    obsFiles.attach(args, config.fleetConfig);

    std::printf("campaign: %d phones, %lld days, seed %llu\n\n",
                config.fleetConfig.phoneCount, static_cast<long long>(days),
                static_cast<unsigned long long>(config.fleetConfig.seed));
    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();
    printFieldResults(results, /*withEvaluation=*/true);
    std::printf("%s\n", core::renderTransport(results).c_str());

    if (const auto dir = option(args, "--logs")) {
        const auto files = core::saveLogs(results.fleet.logs, *dir);
        std::printf("wrote %zu log files to %s\n", files.size(), dir->c_str());
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportFieldCsv(results, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--json")) {
        core::exportFieldJson(results, *path);
        std::printf("wrote JSON results to %s\n", path->c_str());
    }
    obsFiles.finish();
    return 0;
}

int runObs(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    core::StudyConfig config;
    const auto days = parseFleetOptions(args, config.fleetConfig, 60);
    applyTransportOptions(args, config.fleetConfig);

    // Always profile and collect metrics; trace only when asked (traces of
    // long campaigns are large).
    obs::CampaignProfiler profiler;
    obs::ProvenanceTracker provenance;
    ObsAttachment obsFiles;
    obsFiles.attach(args, config.fleetConfig);
    // Collect into the attachment's registry whether or not --metrics was
    // given, so the printed snapshot and the written file are the same
    // document (a separate local registry here used to leave the
    // --metrics file empty).
    obs::MetricsRegistry& registry = obsFiles.registry;
    config.fleetConfig.obs.profiler = &profiler;
    config.fleetConfig.obs.metrics = &registry;
    config.fleetConfig.obs.provenance = &provenance;

    std::printf("instrumented campaign: %d phones, %lld days, seed %llu\n\n",
                config.fleetConfig.phoneCount, static_cast<long long>(days),
                static_cast<unsigned long long>(config.fleetConfig.seed));
    const auto campaign = fleet::runCampaign(config.fleetConfig);
    (void)campaign;

    std::printf("%s\n", profiler.renderReport().c_str());
    std::printf("%s\n", provenance.renderReport().c_str());
    std::printf("== Metrics ==\n%s\n", registry.renderText().c_str());
    obsFiles.finish();
    return 0;
}

int runTrace(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    core::StudyConfig config;
    const auto days = parseFleetOptions(args, config.fleetConfig, 120);
    if (hasFlag(args, "--no-transport")) config.fleetConfig.transport.enabled = false;
    applyTransportOptions(args, config.fleetConfig);

    obs::ProvenanceTracker provenance;
    if (hasFlag(args, "--flow-all")) provenance.setFlowAllRecords(true);
    config.fleetConfig.obs.provenance = &provenance;
    ObsAttachment obsFiles;
    obsFiles.attach(args, config.fleetConfig);
    // The monitor supplies the lineage's final stage: a record counts as
    // "alerted" once the streaming monitor has consumed its bytes.
    monitor::FleetMonitor fleetMonitor;
    config.fleetConfig.obs.monitor = &fleetMonitor;

    std::printf("provenance trace: %d phones, %lld days, seed %llu\n\n",
                config.fleetConfig.phoneCount, static_cast<long long>(days),
                static_cast<unsigned long long>(config.fleetConfig.seed));
    const auto campaign = fleet::runCampaign(config.fleetConfig);
    (void)campaign;

    std::printf("%s\n", provenance.renderReport().c_str());

    if (const auto record = option(args, "--record")) {
        const auto hash = record->find('#');
        if (hash == std::string::npos || hash == 0 || hash + 1 == record->size()) {
            throw std::runtime_error("--record expects PHONE#ID, got " + *record);
        }
        const std::string phone = record->substr(0, hash);
        std::uint64_t id = 0;
        try {
            std::size_t consumed = 0;
            id = std::stoull(record->substr(hash + 1), &consumed);
            if (consumed != record->size() - hash - 1) {
                throw std::invalid_argument{"trailing characters"};
            }
        } catch (const std::exception&) {
            throw std::runtime_error("--record expects PHONE#ID, got " + *record);
        }
        if (provenance.find(phone, id) == nullptr) {
            throw std::runtime_error("unknown record: " + *record);
        }
        std::printf("%s\n", provenance.explain(phone, id).c_str());
    }

    if (hasFlag(args, "--lost")) {
        std::size_t listed = 0;
        std::printf("undelivered records:\n");
        for (const auto& phone : provenance.phoneNames()) {
            for (const auto& rec : *provenance.records(phone)) {
                if (rec.outcome == obs::RecordOutcome::Delivered) continue;
                std::printf("  %-18s %-10s %-11s sent x%u\n",
                            obs::provenanceId(phone, rec.id).c_str(),
                            rec.tag.c_str(),
                            std::string{obs::toString(rec.outcome)}.c_str(),
                            rec.sendCount);
                ++listed;
            }
        }
        if (listed == 0) std::printf("  (none — every record was delivered)\n");
        std::printf("\n");
    }

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, provenance.renderJson(), "provenance JSON");
    }
    // --metrics is handled by the attachment: the campaign publishes the
    // provenance histograms into its registry alongside everything else.
    obsFiles.finish();
    // The whole point: records are conserved across the pipeline or the
    // run fails loudly.
    return provenance.summary().conserved() ? 0 : 1;
}

int runTransport(const std::vector<std::string>& args) {
    core::StudyConfig config;
    const auto days = parseFleetOptions(args, config.fleetConfig, 120);
    config.fleetConfig.transport.enabled = true;
    applyTransportOptions(args, config.fleetConfig);

    const auto& channel = config.fleetConfig.transport.dataChannel;
    std::printf(
        "transport study: %d phones, %lld days, seed %llu\n"
        "channel: loss %.1f%%, dup %.1f%%, reorder %.1f%%, retries %s\n\n",
        config.fleetConfig.phoneCount, static_cast<long long>(days),
        static_cast<unsigned long long>(config.fleetConfig.seed),
        100.0 * channel.lossProb, 100.0 * channel.dupProb, 100.0 * channel.reorderProb,
        config.fleetConfig.transport.policy.retriesEnabled ? "on" : "OFF");

    const auto campaign = fleet::runCampaign(config.fleetConfig);
    std::printf("%s\n", transport::renderTransportReport(campaign.transport).c_str());

    // The analysis deliberately runs on what the *server* holds — partial
    // per-phone logs when segments were permanently lost — not on the
    // ideal end-of-campaign copies.
    const core::FailureStudy study{config};
    const auto results = study.analyzeLogs(campaign.collectedLogs);
    std::printf("analysis over collected logs (%zu phones):\n\n",
                campaign.collectedLogs.size());
    std::printf("%s\n", core::renderHeadline(results).c_str());
    std::printf("%s\n", core::renderTable2(results).c_str());
    if (!results.dataset.coverageLoss().empty()) {
        std::printf("per-phone coverage loss:\n");
        for (const auto& [phone, coverage] : results.dataset.coverageLoss()) {
            std::printf("  %-12s %.1f%%\n", phone.c_str(), 100.0 * coverage);
        }
    } else {
        std::printf("no coverage loss: every phone's log was fully delivered\n");
    }
    return 0;
}

int runSweep(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    // The --phones/--days/--seed flags set the *default cell*; a grid
    // file's axes override them per cell.  --seed is the sweep's master
    // seed — every trial seed derives from it.
    fleet::FleetConfig defaults;
    defaults.phoneCount = 5;
    const auto days = parseFleetOptions(args, defaults, 60);
    experiment::Cell defaultCell;
    defaultCell.phones = defaults.phoneCount;
    defaultCell.days = days;
    // Osfault flags set the default cell too; grid axes override per cell.
    applyOsfaultOptions(args, defaults);
    defaultCell.flashFaultPerKHour = defaults.osfault.flash.faultsPerKHour;
    defaultCell.memPressurePerKHour = defaults.osfault.memory.episodesPerKHour;
    defaultCell.clockSkewPpm = defaults.osfault.clock.skewPpm;
    defaultCell.radioFaultPerKHour = defaults.osfault.radio.faultsPerKHour;

    experiment::RunnerOptions options;
    options.masterSeed = defaults.seed;
    options.trials = static_cast<int>(boundedOption(args, "--trials", 5, 1, 100'000));
    options.jobs = static_cast<int>(boundedOption(args, "--jobs", 1, 1, 1024));
    options.bootstrapResamples =
        static_cast<int>(boundedOption(args, "--bootstrap", 1000, 0, 1'000'000));
    obs::MetricsRegistry registry;
    const auto metricsPath = option(args, "--metrics");
    if (metricsPath) options.metrics = &registry;

    const auto gridPath = option(args, "--grid");
    const auto grid = gridPath ? experiment::Grid::load(*gridPath, defaultCell)
                               : experiment::Grid::single(defaultCell);

    std::printf("sweep: %zu cell(s) x %d trial(s), %d job(s), master seed %llu\n\n",
                grid.size(), options.trials, options.jobs,
                static_cast<unsigned long long>(options.masterSeed));
    const experiment::Runner runner{std::move(options)};
    const auto summary = runner.run(grid);
    std::printf("%s", experiment::renderSweepReport(summary).c_str());

    if (const auto path = option(args, "--json")) {
        experiment::exportSweepJson(summary, *path);
        std::printf("wrote sweep JSON to %s\n", path->c_str());
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = experiment::exportSweepCsv(summary, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (metricsPath) writeMetricsFile(registry, *metricsPath);
    // Failed trials are reported per cell without poisoning siblings, but
    // the exit status must still say something went wrong.
    return summary.failedTrials() == 0 ? 0 : 1;
}

int runOsfault(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    core::StudyConfig config;
    const auto days = parseFleetOptions(args, config.fleetConfig, 120);
    applyTransportOptions(args, config.fleetConfig);
    applyOsfaultOptions(args, config.fleetConfig);
    const auto& planes = config.fleetConfig.osfault;

    std::printf(
        "osfault: %d phones, %lld days, seed %llu\n"
        "planes: flash %.3g/kh, mem-pressure %.3g/kh, clock-skew %.3g ppm, "
        "radio %.3g/kh\n\n",
        config.fleetConfig.phoneCount, static_cast<long long>(days),
        static_cast<unsigned long long>(config.fleetConfig.seed),
        planes.flash.faultsPerKHour, planes.memory.episodesPerKHour,
        planes.clock.skewPpm, planes.radio.faultsPerKHour);

    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();
    std::printf("%s\n", core::renderHeadline(results).c_str());

    const osfault::ValidityReport report{results.evaluation,
                                         results.fleet.osfault};
    std::printf("%s", osfault::render(report).c_str());
    std::printf("osfault logger: record-anomalies=%llu daemon-deaths=%llu\n",
                static_cast<unsigned long long>(results.fleet.loggerRecordAnomalies),
                static_cast<unsigned long long>(results.fleet.loggerDaemonDeaths));

    if (hasFlag(args, "--check")) {
        // Bounds default to 0 (always pass); the CI smoke job pins real
        // calibrated values per plane.
        osfault::ValidityBounds bounds;
        const double precision = realOption(args, "--min-precision", 0.0, 0.0, 1.0);
        const double recall = realOption(args, "--min-recall", 0.0, 0.0, 1.0);
        bounds.minFreezePrecision = precision;
        bounds.minSelfShutdownPrecision = precision;
        bounds.minFreezeRecall = recall;
        bounds.minSelfShutdownRecall = recall;
        bounds.minPanicCaptureRate = realOption(args, "--min-capture", 0.0, 0.0, 1.0);
        const std::string violation = osfault::firstViolation(report, bounds);
        if (!violation.empty()) {
            std::printf("osfault check: FAIL (%s)\n", violation.c_str());
            return 1;
        }
        std::printf("osfault check: OK\n");
    }
    return 0;
}

std::uint64_t multiBurstCount(const sim::FreqCounter& bursts) {
    std::uint64_t multi = 0;
    for (const auto& [length, count] : bursts.entries()) {
        if (length >= 2) multi += count;
    }
    return multi;
}

int runMonitor(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    core::StudyConfig config;
    const auto days = parseFleetOptions(args, config.fleetConfig, 120);
    if (hasFlag(args, "--no-transport")) config.fleetConfig.transport.enabled = false;
    applyTransportOptions(args, config.fleetConfig);

    monitor::MonitorConfig monitorConfig;
    const auto tickHours = boundedOption(args, "--tick-hours", 6, 1, 10'000);
    monitorConfig.tick = sim::Duration::hours(tickHours);
    monitorConfig.silenceHours = static_cast<double>(boundedOption(
        args, "--silence-hours", static_cast<long long>(monitorConfig.silenceHours), 1,
        100'000));
    monitor::FleetMonitor fleetMonitor{monitorConfig};

    const bool replayMode = hasFlag(args, "--replay");
    if (!replayMode) config.fleetConfig.obs.monitor = &fleetMonitor;

    std::printf("monitor: %d phones, %lld days, seed %llu, tick %lld h, %s\n\n",
                config.fleetConfig.phoneCount, static_cast<long long>(days),
                static_cast<unsigned long long>(config.fleetConfig.seed),
                static_cast<long long>(tickHours),
                replayMode ? "replaying the collected dataset"
                           : "live on the ingest path");
    const auto campaign = fleet::runCampaign(config.fleetConfig);

    int exitCode = 0;
    if (replayMode) {
        fleetMonitor.replay(campaign.collectedLogs);

        // The online counts must equal the batch pipeline's on the same
        // dataset — this is the monitor's exactness contract.
        const core::FailureStudy study{config};
        const auto results = study.analyzeLogs(campaign.collectedLogs);
        const auto online = fleetMonitor.health().coalescence();
        const auto& batch = results.fig5Coalescence;
        const auto& onlineBursts = fleetMonitor.health().burstLengths();
        const auto& batchBursts = results.fig3BurstLengths;
        const bool coalescenceMatches =
            online.panicsResolved == batch.panics.size() &&
            online.relatedCount == batch.relatedCount &&
            online.hlWithPanic == batch.hlWithPanic &&
            online.hlTotal == batch.hlTotal;
        const bool burstsMatch =
            onlineBursts.entries() == batchBursts.entries() &&
            fleetMonitor.health().multiBursts() == multiBurstCount(batchBursts);
        std::printf("online vs batch on the collected dataset:\n");
        std::printf("  coalescence   online %zu/%zu related (HL %zu/%zu)  batch %zu/%zu (HL %zu/%zu)  %s\n",
                    online.relatedCount, online.panicsResolved, online.hlWithPanic,
                    online.hlTotal, batch.relatedCount, batch.panics.size(),
                    batch.hlWithPanic, batch.hlTotal,
                    coalescenceMatches ? "MATCH" : "MISMATCH");
        std::printf("  bursts        online %llu total / %llu multi  batch %llu total / %llu multi  %s\n\n",
                    static_cast<unsigned long long>(onlineBursts.total()),
                    static_cast<unsigned long long>(fleetMonitor.health().multiBursts()),
                    static_cast<unsigned long long>(batchBursts.total()),
                    static_cast<unsigned long long>(multiBurstCount(batchBursts)),
                    burstsMatch ? "MATCH" : "MISMATCH");
        if (!coalescenceMatches || !burstsMatch) exitCode = 1;
    }

    std::printf("%s\n", fleetMonitor.renderDashboard().c_str());

    if (const auto path = option(args, "--snapshots")) {
        writeTextFile(*path, fleetMonitor.snapshotsJsonl(), "monitor snapshots");
    }
    if (const auto path = option(args, "--alerts")) {
        writeTextFile(*path, fleetMonitor.renderAlertLog(), "alert log");
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        fleetMonitor.publishMetrics(registry);
        writeMetricsFile(registry, *path);
    }
    return exitCode;
}

int runAnalyze(const std::vector<std::string>& args) {
    if (args.empty() || args[0].rfind("--", 0) == 0) {
        std::fprintf(stderr, "analyze: missing <logdir>\n");
        return 2;
    }
    validateOutputPaths(args);
    const auto logs = core::loadLogs(args[0]);
    if (logs.empty()) {
        std::fprintf(stderr, "analyze: no *.log files in %s\n", args[0].c_str());
        return 1;
    }
    std::printf("loaded %zu phone logs from %s\n\n", logs.size(), args[0].c_str());
    const core::FailureStudy study{core::StudyConfig{}};
    const auto results = study.analyzeLogs(logs);
    printFieldResults(results, /*withEvaluation=*/false);

    const auto versions =
        analysis::versionBreakdown(results.dataset, results.classification);
    std::printf("OS versions: ");
    for (const auto& row : versions) {
        std::printf("%s(%zu phones) ", row.version.c_str(), row.phones);
    }
    std::printf("\n");

    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportFieldCsv(results, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    return 0;
}

int runCrash(const std::vector<std::string>& args) {
    if (args.empty() || args[0].rfind("--", 0) == 0) {
        std::fprintf(stderr, "crash: missing <logdir>\n");
        return 2;
    }
    validateOutputPaths(args);
    const auto logs = core::loadLogs(args[0]);
    if (logs.empty()) {
        std::fprintf(stderr, "crash: no *.log files in %s\n", args[0].c_str());
        return 1;
    }
    std::printf("loaded %zu phone logs from %s\n\n", logs.size(), args[0].c_str());
    const core::FailureStudy study{core::StudyConfig{}};
    const auto results = study.analyzeLogs(logs);
    const auto& report = results.crashFamilies;

    std::printf("%s\n", core::renderCrashFamilies(results).c_str());
    // One greppable line per family plus a summary, for scripted checks
    // (the CI smoke job asserts the family count and the panic mapping).
    for (const auto& row : report.rows) {
        std::printf("crash family: %s panic=%s dumps=%llu share=%.1f%% phones=%zu sigs=%zu top_app=%s\n",
                    row.familyId.c_str(), symbos::toString(row.panic).c_str(),
                    static_cast<unsigned long long>(row.dumps), row.sharePct,
                    row.phones, row.distinctSignatures, row.topApp.c_str());
    }
    std::printf("crash summary: dumps=%llu families=%zu",
                static_cast<unsigned long long>(report.totalDumps),
                report.rows.size());
    if (!report.rows.empty()) {
        std::printf(" top=%s top_panic=%s", report.rows.front().familyId.c_str(),
                    symbos::toString(report.rows.front().panic).c_str());
    }
    std::printf("\n");

    if (const auto path = option(args, "--json")) {
        core::exportCrashJson(results, *path);
        std::printf("wrote crash-family JSON to %s\n", path->c_str());
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportCrashCsv(results, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        registry.counter("crash", "dumps_total", "structured crash dumps clustered")
            .inc(report.totalDumps);
        registry.counter("crash", "families_total", "crash families discovered")
            .inc(report.rows.size());
        if (!report.rows.empty()) {
            registry
                .gauge("crash", "top_family_dumps",
                       "dumps in the largest crash family")
                .set(static_cast<double>(report.rows.front().dumps));
            registry
                .gauge("crash", "top_family_share_percent",
                       "share of all dumps held by the largest family")
                .set(report.rows.front().sharePct);
        }
        writeMetricsFile(registry, *path);
    }
    return 0;
}

int runSrgm(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    const bool fromLogs = !args.empty() && args[0].rfind("--", 0) != 0;

    srgm::SrgmOptions options;
    options.holdoutSplit = realOption(args, "--holdout", 0.7, 0.05, 0.95);
    if (hasFlag(args, "--fleet-only")) {
        options.perPhone = false;
        options.perVersion = false;
    }
    // Check bounds parse up front so a malformed knob fails before the
    // campaign burns minutes.  They default to permissive values; the CI
    // smoke job pins calibrated ones for the paper-scale campaign.
    const double maxCountErr = realOption(args, "--max-count-err", 1.0, 0.0, 100.0);
    const double minPreqGain = realOption(args, "--min-preq-gain", 0.0, -1e9, 1e9);
    const double maxKs = realOption(args, "--max-ks", 1.0, 0.0, 1.0);

    core::StudyConfig config;
    std::optional<core::FieldStudyResults> results;
    if (fromLogs) {
        const auto logs = core::loadLogs(args[0]);
        if (logs.empty()) {
            std::fprintf(stderr, "srgm: no *.log files in %s\n", args[0].c_str());
            return 1;
        }
        std::printf("loaded %zu phone logs from %s\n\n", logs.size(),
                    args[0].c_str());
        const core::FailureStudy study{config};
        results = study.analyzeLogs(logs);
    } else {
        const auto days = parseFleetOptions(args, config.fleetConfig, 425);
        applyTransportOptions(args, config.fleetConfig);
        std::printf("srgm: %d phones, %lld days, seed %llu, holdout %.2f\n\n",
                    config.fleetConfig.phoneCount, static_cast<long long>(days),
                    static_cast<unsigned long long>(config.fleetConfig.seed),
                    options.holdoutSplit);
        const core::FailureStudy study{config};
        results = study.runFieldStudy();
    }

    const srgm::SrgmReport report =
        srgm::analyzeSrgm(results->dataset, results->classification, options);
    std::printf("%s", srgm::renderSrgmText(report).c_str());

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, srgm::srgmToJson(report), "srgm JSON");
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = srgm::exportSrgmCsv(report, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        srgm::publishSrgmMetrics(report, registry);
        writeMetricsFile(registry, *path);
    }

    if (hasFlag(args, "--check")) {
        const srgm::GroupReport& fleet = report.fleet;
        std::string violation;
        char buf[160];
        if (fleet.bestIndex >= fleet.fits.size()) {
            violation = "no model converged on the fleet sequence";
        } else if (fleet.fits[fleet.bestIndex].ksDistance > maxKs) {
            std::snprintf(buf, sizeof buf, "fleet KS distance %.4f > max %.4f",
                          fleet.fits[fleet.bestIndex].ksDistance, maxKs);
            violation = buf;
        } else if (!fleet.holdout.valid) {
            violation = "holdout forecast has insufficient data";
        } else if (fleet.holdout.countRelError > maxCountErr) {
            std::snprintf(buf, sizeof buf,
                          "holdout count relative error %.4f > max %.4f",
                          fleet.holdout.countRelError, maxCountErr);
            violation = buf;
        } else if (fleet.holdout.preqGainVsHpp < minPreqGain) {
            std::snprintf(buf, sizeof buf,
                          "prequential gain vs HPP %.4f < min %.4f",
                          fleet.holdout.preqGainVsHpp, minPreqGain);
            violation = buf;
        }
        if (!violation.empty()) {
            std::printf("srgm check: FAIL (%s)\n", violation.c_str());
            return 1;
        }
        std::printf("srgm check: OK\n");
    }
    return 0;
}

/// Parses `--fleet-sizes N,M,...` as a strict comma list of phone counts.
std::vector<int> fleetSizesOption(const std::vector<std::string>& args,
                                  std::vector<int> fallback) {
    const auto value = option(args, "--fleet-sizes");
    if (!value) return fallback;
    std::vector<int> sizes;
    std::size_t start = 0;
    while (start <= value->size()) {
        const std::size_t comma = value->find(',', start);
        const std::string token =
            value->substr(start, comma == std::string::npos ? std::string::npos
                                                            : comma - start);
        long long parsed = 0;
        try {
            std::size_t consumed = 0;
            parsed = std::stoll(token, &consumed);
            if (consumed != token.size()) {
                throw std::invalid_argument{"trailing characters"};
            }
        } catch (const std::exception&) {
            throw std::runtime_error("invalid value for --fleet-sizes: " + *value);
        }
        if (parsed < 1 || parsed > 100000) {
            throw std::runtime_error(
                "--fleet-sizes entries must be in [1, 100000], got " + token);
        }
        sizes.push_back(static_cast<int>(parsed));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return sizes;
}

int runPerf(const std::vector<std::string>& args) {
    validateOutputPaths(args);
    core::PerfOptions options;
    // --phones/--days/--seed parse (and reject malformed values) exactly
    // like every other campaign subcommand; --phones collapses the ladder
    // to one rung unless --fleet-sizes overrides it.
    const bool phonesGiven = option(args, "--phones").has_value();
    options.days = parseFleetOptions(args, options.base, options.days);
    options.seed = options.base.seed;
    options.fleetSizes = fleetSizesOption(
        args, phonesGiven ? std::vector<int>{options.base.phoneCount}
                          : options.fleetSizes);
    options.sampleHours = boundedOption(args, "--sample-hours", 6, 1, 10'000);
    options.samplingStride =
        static_cast<std::uint64_t>(boundedOption(args, "--stride", 64, 1, 1'000'000));
    // Bounds parse up front so a malformed knob fails before the ladder
    // burns minutes; 0 disables a bound (the CI smoke job pins calibrated
    // values).
    const double maxBytesPerPhone =
        realOption(args, "--max-bytes-per-phone", 0.0, 0.0, 1e15);
    const double minPhoneHoursPerSec =
        realOption(args, "--min-phone-hours-per-sec", 0.0, 0.0, 1e15);

    std::string sizesLabel;
    for (const int phones : options.fleetSizes) {
        if (!sizesLabel.empty()) sizesLabel += ",";
        sizesLabel += std::to_string(phones);
    }
    std::printf("perf: fleet sizes %s, %lld days each, seed %llu\n\n",
                sizesLabel.c_str(), options.days,
                static_cast<unsigned long long>(options.seed));
    const core::PerfReport report = core::runPerfScaling(options);
    std::printf("%s\n", core::renderPerfText(report).c_str());

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, core::perfToJson(report), "perf JSON");
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportPerfCsv(report, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        core::publishPerfMetrics(report, registry);
        writeMetricsFile(registry, *path);
    }

    if (hasFlag(args, "--check")) {
        std::string violation;
        char buf[160];
        for (const core::PerfCell& cell : report.cells) {
            if (maxBytesPerPhone > 0.0 && cell.bytesPerPhone > maxBytesPerPhone) {
                std::snprintf(buf, sizeof buf,
                              "%d phones: %.0f bytes/phone > max %.0f",
                              cell.phones, cell.bytesPerPhone, maxBytesPerPhone);
                violation = buf;
                break;
            }
            if (minPhoneHoursPerSec > 0.0 &&
                cell.phoneHoursPerSec < minPhoneHoursPerSec) {
                std::snprintf(buf, sizeof buf,
                              "%d phones: %.0f phone-hours/sec < min %.0f",
                              cell.phones, cell.phoneHoursPerSec,
                              minPhoneHoursPerSec);
                violation = buf;
                break;
            }
        }
        if (!violation.empty()) {
            std::printf("perf check: FAIL (%s)\n", violation.c_str());
            return 1;
        }
        std::printf("perf check: OK\n");
    }
    return 0;
}

int runForum(const std::vector<std::string>& args) {
    core::StudyConfig config;
    config.forumConfig.failureReports = static_cast<int>(boundedOption(
        args, "--reports", config.forumConfig.failureReports, 1, 1'000'000));
    config.forumSeed = static_cast<std::uint64_t>(
        numericOption(args, "--seed", static_cast<long long>(config.forumSeed)));
    const core::FailureStudy study{config};
    const auto result = study.runForumStudy();
    std::printf("%s\n%s", core::renderTable1(result).c_str(),
                core::renderForumSummary(result).c_str());
    return 0;
}

int runTables() {
    std::printf("Panic taxonomy (Table 2 of the paper):\n\n");
    for (const auto& row : symbos::paperPanicTable()) {
        std::printf("  %-20s %6.2f%%  %.70s\n", symbos::toString(row.id).c_str(),
                    row.paperPercent,
                    std::string{symbos::panicMeaning(row.id)}.c_str());
    }
    std::printf("\nFailure/recovery taxonomy (Table 1 of the paper):\n\n");
    for (const auto& cell : forum::paperTable1()) {
        if (cell.percent <= 0.0) continue;
        std::printf("  %-18s via %-16s %6.2f%%\n",
                    std::string{forum::toString(cell.type)}.c_str(),
                    std::string{forum::toString(cell.recovery)}.c_str(), cell.percent);
    }
    return 0;
}

}  // namespace

int runCli(const std::vector<std::string>& args) {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        printUsage();
        return args.empty() ? 2 : 0;
    }
    const std::string command = args[0];
    const std::vector<std::string> rest{args.begin() + 1, args.end()};
    try {
        if (command == "campaign") return runCampaign(rest);
        if (command == "obs") return runObs(rest);
        if (command == "transport") return runTransport(rest);
        if (command == "trace") return runTrace(rest);
        if (command == "sweep") return runSweep(rest);
        if (command == "osfault") return runOsfault(rest);
        if (command == "monitor") return runMonitor(rest);
        if (command == "analyze") return runAnalyze(rest);
        if (command == "crash") return runCrash(rest);
        if (command == "srgm") return runSrgm(rest);
        if (command == "perf") return runPerf(rest);
        if (command == "forum") return runForum(rest);
        if (command == "tables") return runTables();
    } catch (const std::exception& error) {
        std::fprintf(stderr, "%s: %s\n", command.c_str(), error.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    printUsage();
    return 2;
}

}  // namespace symfail::cli
