#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <string_view>

#include "core/render.hpp"
#include "experiment/export.hpp"
#include "experiment/seed.hpp"
#include "fleet/fleet.hpp"
#include "fleet/observer.hpp"
#include "monitor/monitor.hpp"
#include "obs/accountant.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "srgm/analyze.hpp"

namespace perfbench {

using namespace symfail;

namespace {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(double numerator, double denominator) {
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Forwards every hook to an optional inner observer and stamps the host
/// clock at the campaign's lifecycle points: the last onPhoneEnrolled
/// ends the build phase, onCampaignEnd ends the simulation.
class TimingObserver final : public fleet::CampaignObserver {
public:
    explicit TimingObserver(fleet::CampaignObserver* inner) : inner_{inner} {}

    void onCampaignBegin(sim::Simulator& simulator,
                         const fleet::FleetConfig& config) override {
        if (inner_ != nullptr) inner_->onCampaignBegin(simulator, config);
    }
    void onPhoneEnrolled(const std::string& phoneName, sim::TimePoint enrollAt,
                         fleet::OutageProbe outageProbe) override {
        if (inner_ != nullptr) {
            inner_->onPhoneEnrolled(phoneName, enrollAt, std::move(outageProbe));
        }
        lastEnrolledNs = nowNs();
    }
    void onCampaignEnd(sim::TimePoint at) override {
        campaignEndNs = nowNs();
        if (inner_ != nullptr) inner_->onCampaignEnd(at);
    }
    void onProvenanceAttached(obs::ProvenanceTracker* tracker) override {
        if (inner_ != nullptr) inner_->onProvenanceAttached(tracker);
    }
    [[nodiscard]] std::uint64_t approxMemoryBytes() const override {
        return inner_ != nullptr ? inner_->approxMemoryBytes() : 0;
    }
    void onWholeFile(const std::string& phoneName, std::string_view content,
                     bool stored) override {
        if (inner_ != nullptr) inner_->onWholeFile(phoneName, content, stored);
    }
    void onFrameAccepted(const transport::IngestResult& frame) override {
        if (inner_ != nullptr) inner_->onFrameAccepted(frame);
    }

    std::int64_t lastEnrolledNs{0};
    std::int64_t campaignEndNs{0};

private:
    fleet::CampaignObserver* inner_;
};

/// The attachments of a traced campaign: the profiler times every
/// dispatch (stride 1), the accountant sweeps byte probes, the registry
/// receives the fleet's counters, and the timing observer (wrapping the
/// campaign's own observer, if any) marks build/run/collect.
struct Instruments {
    explicit Instruments(fleet::CampaignObserver* inner) : observer{inner} {}

    void attach(fleet::ObsOptions& obs) {
        obs.profiler = &profiler;
        obs.accountant = &accountant;
        obs.metrics = &registry;
        obs.monitor = &observer;
    }

    obs::CampaignProfiler profiler;
    obs::ResourceAccountant accountant;
    obs::MetricsRegistry registry;
    TimingObserver observer;
};

/// Per-layer totals over the traced campaigns of one run.
struct LayerSums {
    double phones{0};
    double events{0};
    double queueDepthPeak{0};
    double buildSeconds{0};
    double runSeconds{0};
    double collectSeconds{0};
    double dispatchSeconds{0};
    double aoSeconds{0};
    double aoEvents{0};
    double timerSeconds{0};
    double timerEvents{0};
    double phoneSeconds{0};
    double transportSeconds{0};
    double phoneBytes{0};
    double loggerBytes{0};
    double transportBytes{0};
    double serverBytes{0};
    double heartbeats{0};
    double runappSnapshots{0};
    double faultsInjected{0};
    double osfaultActivations{0};
    double framesSent{0};
    double retransmits{0};
    double wireBytes{0};
    double recordsDelivered{0};
    double datasetSeconds{0};
    double pipelineSeconds{0};
    double evaluateSeconds{0};
    double clusterSeconds{0};
    double renderSeconds{0};
    double srgmSeconds{0};

    void addCampaign(const fleet::FleetResult& fleet, const Instruments& inst,
                     std::int64_t campaignStartNs, std::int64_t campaignEndNs) {
        phones += static_cast<double>(fleet.phoneNames.size());
        events += static_cast<double>(fleet.simulatorEvents);
        queueDepthPeak = std::max(queueDepthPeak, static_cast<double>(fleet.queueDepthPeak));
        buildSeconds += secondsBetween(campaignStartNs, inst.observer.lastEnrolledNs);
        runSeconds +=
            secondsBetween(inst.observer.lastEnrolledNs, inst.observer.campaignEndNs);
        collectSeconds += secondsBetween(inst.observer.campaignEndNs, campaignEndNs);
        dispatchSeconds += inst.profiler.hostSecondsTotal();
        for (const auto& category : inst.profiler.byCategory()) {
            const std::string_view name = category.category;
            const auto count = static_cast<double>(category.events);
            if (name == "symbos.ao") {
                aoSeconds += category.hostSeconds;
                aoEvents += count;
            } else if (name == "symbos.timer") {
                timerSeconds += category.hostSeconds;
                timerEvents += count;
            }
            if (name.starts_with("phone.")) phoneSeconds += category.hostSeconds;
            if (name.starts_with("transport.")) transportSeconds += category.hostSeconds;
        }
        for (const auto& account : inst.accountant.accounts()) {
            const auto peak = static_cast<double>(account.peakBytes);
            if (account.subsystem == "phone") phoneBytes += peak;
            if (account.subsystem == "logger") loggerBytes += peak;
            if (account.subsystem == "transport") transportBytes += peak;
            if (account.subsystem == "server") serverBytes += peak;
        }
        for (const auto& sample : inst.registry.snapshot()) {
            if (sample.name == "logger.heartbeats") heartbeats += sample.value;
            if (sample.name == "logger.runapp_snapshots") runappSnapshots += sample.value;
        }
        faultsInjected += static_cast<double>(fleet.panicsInjected + fleet.hangsInjected +
                                              fleet.spontaneousRebootsInjected +
                                              fleet.outputFailuresInjected);
        const auto& planes = fleet.osfault;
        osfaultActivations +=
            static_cast<double>(planes.flash.activations + planes.memory.episodes +
                                planes.clock.jumps + planes.radio.activations);
        framesSent += static_cast<double>(fleet.transport.framesSent);
        retransmits += static_cast<double>(fleet.transport.retransmits);
        wireBytes += static_cast<double>(fleet.transport.bytesOnWire);
        recordsDelivered += static_cast<double>(fleet.transport.recordsDelivered);
    }

    /// The campaign-derived per-layer metrics.  run.py reports any metric
    /// a workload does not produce as not applicable.
    void appendTo(std::vector<std::pair<std::string, double>>& out) const {
        out.insert(out.end(), {
            {"simkernel.events", events},
            {"simkernel.queue_depth_peak", queueDepthPeak},
            {"simkernel.queue_s", runSeconds - dispatchSeconds},
            {"symbos.ao.ns_per_dispatch", 1e9 * ratio(aoSeconds, aoEvents)},
            {"symbos.ao.share", ratio(aoSeconds, dispatchSeconds)},
            {"symbos.timer.ns_per_dispatch", 1e9 * ratio(timerSeconds, timerEvents)},
            {"phone.dispatch_s", phoneSeconds},
            {"phone.bytes_per_phone", ratio(phoneBytes, phones)},
            {"logger.heartbeats", heartbeats},
            {"logger.runapp_snapshots", runappSnapshots},
            {"logger.bytes_per_phone", ratio(loggerBytes, phones)},
            {"faults.injected", faultsInjected},
            {"osfault.activations", osfaultActivations},
            {"transport.frames_sent", framesSent},
            {"transport.retransmit_ratio", ratio(retransmits, framesSent)},
            {"transport.wire_bytes_per_record", ratio(wireBytes, recordsDelivered)},
            {"transport.dispatch_s", transportSeconds},
            {"transport.bytes_per_phone", ratio(transportBytes, phones)},
            {"fleet.build_s", buildSeconds},
            {"fleet.run_s", runSeconds},
            {"fleet.collect_s", collectSeconds},
            {"server.bytes_per_phone", ratio(serverBytes, phones)},
            {"analysis.dataset_build_s", datasetSeconds},
            {"analysis.pipeline_s", pipelineSeconds},
            {"analysis.evaluate_s", evaluateSeconds},
            {"crash.cluster_s", clusterSeconds},
        });
    }
};

/// A sweep trial's own correctness flag: its provenance ledger balanced.
std::string checkTrialMetrics(const experiment::TrialMetrics& metrics) {
    const auto conserved =
        std::find_if(metrics.begin(), metrics.end(),
                     [](const auto& m) { return m.first == "provenance_conserved"; });
    if (conserved == metrics.end() || conserved->second != 1.0) {
        return "provenance not conserved";
    }
    return {};
}

/// Counts one operation and its failure, if any.
void tally(RunReport& report, const std::string& error) {
    ++report.attempted;
    if (error.empty()) return;
    ++report.failed;
    report.errors.push_back(error);
}

/// Structural checks that hold for every seed; the golden digests in
/// run.py check the exact output where one is committed.
std::string checkCampaign(const fleet::FleetConfig& config,
                          const core::FieldStudyResults& results) {
    const auto& fleet = results.fleet;
    const auto phones = static_cast<std::size_t>(config.phoneCount);
    if (fleet.logs.size() != phones) {
        return "campaign returned " + std::to_string(fleet.logs.size()) + " logs for " +
               std::to_string(phones) + " phones";
    }
    if (fleet.simulatorEvents == 0) return "campaign fired no simulator events";
    // Flash-plane faults can destroy records on the phone after they were
    // uploaded, so the bound holds only without fault planes.
    if (fleet.transport.enabled && !config.osfault.shouldAttach() &&
        fleet.transport.recordsDelivered > fleet.transport.recordsInjected) {
        return "transport delivered more records than the phones wrote";
    }
    return {};
}

/// `FailureStudy::runFieldStudy` as a sequence of public calls, one span
/// each, for instrumented passes only: untraced passes call
/// `runFieldStudy` itself.  The campaign's build/run/collect phases and
/// its layer counters are added to `sums`.
core::FieldStudyResults runStudy(const core::StudyConfig& config, Tracer& tracer,
                                 const Instruments& instruments, LayerSums& sums) {
    core::FieldStudyResults results;
    {
        ScopedSpan span{tracer, "fleet.runCampaign"};
        results.fleet = fleet::runCampaign(config.fleetConfig);
        const std::int64_t startNs = span.startNs();
        span.finish();
        const std::int64_t endNs = nowNs();
        const auto& observer = instruments.observer;
        tracer.add("fleet.build", startNs, observer.lastEnrolledNs, span.index());
        tracer.add("fleet.run", observer.lastEnrolledNs, observer.campaignEndNs,
                   span.index());
        tracer.add("fleet.collect", observer.campaignEndNs, endNs, span.index());
        sums.addCampaign(results.fleet, instruments, startNs, endNs);
    }
    {
        ScopedSpan span{tracer, "analysis.LogDataset.build"};
        results.dataset = analysis::LogDataset::build(results.fleet.logs);
        sums.datasetSeconds += span.finish();
    }
    {
        ScopedSpan span{tracer, "analysis.pipeline"};
        const analysis::ShutdownDiscriminator discriminator{
            config.selfShutdownThresholdSeconds};
        results.classification = discriminator.classify(results.dataset);
        results.mtbf = analysis::estimateMtbf(results.dataset, results.classification);
        results.table2 = analysis::panicTable(results.dataset);
        results.fig3BurstLengths = analysis::burstLengths(results.dataset);
        results.fig5Coalescence = analysis::coalesce(
            results.dataset, results.classification, config.coalescenceWindowSeconds);
        results.table3 = analysis::activityCorrelation(results.fig5Coalescence);
        results.fig6AppCounts = analysis::runningAppCounts(results.dataset);
        results.table4 = analysis::appCorrelation(results.fig5Coalescence);
        sums.pipelineSeconds += span.finish();
    }
    {
        ScopedSpan span{tracer, "analysis.buildCrashFamilyReport"};
        results.crashFamilies = analysis::buildCrashFamilyReport(results.dataset);
        sums.clusterSeconds += span.finish();
    }
    {
        ScopedSpan span{tracer, "analysis.evaluate"};
        results.evaluation = analysis::evaluate(results.dataset, results.classification,
                                                results.fleet.truthMap());
        sums.evaluateSeconds += span.finish();
    }
    return results;
}

/// `symfail campaign`'s own call, one span.
core::FieldStudyResults runFieldStudy(const core::StudyConfig& config, Tracer& tracer) {
    ScopedSpan span{tracer, "core.FailureStudy.runFieldStudy"};
    return core::FailureStudy{config}.runFieldStudy();
}

/// What `symfail campaign` prints for these results.
std::string renderCampaign(const core::StudyConfig& config,
                           const core::FieldStudyResults& results) {
    const auto& fleet = config.fleetConfig;
    char header[128];
    std::snprintf(header, sizeof header, "campaign: %d phones, %lld days, seed %llu\n\n",
                  fleet.phoneCount, static_cast<long long>(fleet.campaign.asHoursF() / 24.0),
                  static_cast<unsigned long long>(fleet.seed));
    std::string out = header;
    for (const std::string& section :
         {core::renderHeadline(results), core::renderFig2(results),
          core::renderTable2(results), core::renderFig3(results),
          core::renderFig5(results), core::renderTable3(results),
          core::renderFig6(results), core::renderTable4(results),
          core::renderCrashFamilies(results), core::renderPerPhone(results),
          core::renderEvaluation(results), core::renderTransport(results)}) {
        out += section;
        out += '\n';
    }
    return out;
}

/// One paper_campaign / wide_fleet pass: campaign, analysis, rendering.
/// Without `instruments` it makes the calls `symfail campaign` makes.
/// Returns its wall seconds.
double campaignPass(const Prepared& prepared, Tracer& tracer, Instruments* instruments,
                    LayerSums& sums, RunReport& report) {
    ScopedSpan pass{tracer, "workload.campaign"};
    std::string error;
    try {
        core::StudyConfig config = prepared.study;
        if (instruments != nullptr) instruments->attach(config.fleetConfig.obs);
        const auto results = instruments != nullptr
                                 ? runStudy(config, tracer, *instruments, sums)
                                 : runFieldStudy(config, tracer);
        ScopedSpan render{tracer, "core.render"};
        report.outputs.push_back(renderCampaign(config, results));
        sums.renderSeconds += render.finish();
        error = checkCampaign(config.fleetConfig, results);
    } catch (const std::exception& e) {
        error = e.what();
    }
    tally(report, error);
    return pass.finish();
}

/// Host-time bookkeeping of a traced sweep pass.
struct SweepTiming {
    std::mutex mutex;
    std::vector<std::vector<double>> trialSeconds;  ///< Per cell.
    double busySeconds{0};
    double runSeconds{0};
    double aggregateSeconds{0};
    std::int64_t lastTrialEndNs{0};

    void noteTrial(std::size_t cell, std::int64_t startNs, std::int64_t endNs) {
        const std::lock_guard lock{mutex};
        trialSeconds[cell].push_back(secondsBetween(startNs, endNs));
        busySeconds += secondsBetween(startNs, endNs);
        lastTrialEndNs = std::max(lastTrialEndNs, endNs);
    }
};

/// One sweep pass: a Runner per cell (trial seeds are paired across the
/// two cells), each summary rendered to JSON.  With `timing`, every trial
/// is wrapped in a span.  Returns its wall seconds.
double sweepPass(const Prepared& prepared, Tracer& tracer, SweepTiming* timing,
                 RunReport& report) {
    ScopedSpan pass{tracer, "workload.sweep"};
    std::string json;
    for (std::size_t c = 0; c < prepared.cells.size(); ++c) {
        ScopedSpan runSpan{tracer, "experiment.Runner.run"};
        experiment::RunnerOptions options = prepared.runner;
        if (timing != nullptr) {
            const int parent = runSpan.index();
            timing->lastTrialEndNs = runSpan.startNs();
            options.trialFn = [&tracer, timing, c, parent](const experiment::Cell& cell,
                                                           std::uint64_t seed) {
                const std::int64_t startNs = nowNs();
                auto metrics = experiment::fieldTrialMetrics(cell, seed);
                const std::int64_t endNs = nowNs();
                tracer.add("experiment.trial", startNs, endNs, parent);
                timing->noteTrial(c, startNs, endNs);
                return metrics;
            };
        }
        try {
            const auto summary =
                experiment::Runner{options}.run(experiment::Grid::single(prepared.cells[c]));
            const double runSeconds = runSpan.finish();
            if (timing != nullptr) {
                timing->runSeconds += runSeconds;
                timing->aggregateSeconds += secondsBetween(timing->lastTrialEndNs, nowNs());
            }
            ScopedSpan exportSpan{tracer, "experiment.sweepToJson"};
            json += experiment::sweepToJson(summary);
            for (const auto& trial : summary.trials) {
                const std::string error =
                    trial.ok ? checkTrialMetrics(trial.metrics) : trial.error;
                tally(report, error.empty() ? error
                                            : prepared.cells[c].label() + " trial " +
                                                  std::to_string(trial.trialIndex) + ": " +
                                                  error);
            }
        } catch (const std::exception& e) {
            tally(report, e.what());
        }
    }
    report.outputs.push_back(std::move(json));
    return pass.finish();
}

/// A sweep trial as the Runner runs it.  Returns its seconds.
double plainTrial(const experiment::Cell& cell, std::uint64_t seed, Tracer& tracer,
                  RunReport& report) {
    ScopedSpan span{tracer, "experiment.fieldTrialMetrics"};
    std::string error;
    try {
        error = checkTrialMetrics(experiment::fieldTrialMetrics(cell, seed));
    } catch (const std::exception& e) {
        error = e.what();
    }
    tally(report, error);
    return span.finish();
}

/// The same trial traced: fieldTrialMetrics' attachments (monitor,
/// provenance) plus the instruments, the analysis as spans, and the
/// fleet-only SRGM fit.  Returns its seconds.
double profiledTrial(const experiment::Cell& cell, std::uint64_t seed, Tracer& tracer,
                     LayerSums& sums, RunReport& report) {
    ScopedSpan span{tracer, "experiment.profiledTrial"};
    std::string error;
    try {
        auto config = cell.toStudyConfig(seed);
        monitor::FleetMonitor fleetMonitor;
        obs::ProvenanceTracker provenance;
        Instruments instruments{&fleetMonitor};
        instruments.attach(config.fleetConfig.obs);
        config.fleetConfig.obs.provenance = &provenance;
        const auto results = runStudy(config, tracer, instruments, sums);
        ScopedSpan srgmSpan{tracer, "srgm.analyzeSrgm"};
        srgm::SrgmOptions srgmOptions;
        srgmOptions.perPhone = false;
        srgmOptions.perVersion = false;
        (void)srgm::analyzeSrgm(results.dataset, results.classification, srgmOptions);
        sums.srgmSeconds += srgmSpan.finish();
        error = checkCampaign(config.fleetConfig, results);
        if (error.empty() && !provenance.summary().conserved()) {
            error = "provenance not conserved";
        }
    } catch (const std::exception& e) {
        error = e.what();
    }
    tally(report, error);
    return span.finish();
}

/// One campaign of the on/off overhead pairs: `attachment` 0 = none,
/// 1 = monitor, 2 = provenance.  Returns its seconds.
double pairedCampaign(fleet::FleetConfig config, int attachment, Tracer& tracer,
                      RunReport& report) {
    static constexpr const char* kNames[] = {"overhead.off", "overhead.monitor",
                                             "overhead.provenance"};
    monitor::FleetMonitor fleetMonitor;
    obs::ProvenanceTracker provenance;
    if (attachment == 1) config.obs.monitor = &fleetMonitor;
    if (attachment == 2) config.obs.provenance = &provenance;
    ScopedSpan span{tracer, kNames[attachment]};
    std::string error;
    try {
        (void)fleet::runCampaign(config);
        if (attachment == 2 && !provenance.summary().conserved()) {
            error = "provenance not conserved";
        }
    } catch (const std::exception& e) {
        error = e.what();
    }
    tally(report, error);
    return span.finish();
}

void tracedSweep(const Prepared& prepared, Tracer& tracer, RunReport& report) {
    SweepTiming timing;
    timing.trialSeconds.resize(prepared.cells.size());
    (void)sweepPass(prepared, tracer, &timing, report);

    // Each cell's first trial as the Runner runs it, then with the
    // instruments: the pair prices tracing on this workload.
    LayerSums sums;
    double plainSeconds = 0.0;
    double profiledSeconds = 0.0;
    const std::uint64_t firstSeed =
        experiment::deriveTrialSeed(prepared.runner.masterSeed, 0, 0);
    for (const auto& cell : prepared.cells) {
        plainSeconds += plainTrial(cell, firstSeed, tracer, report);
        profiledSeconds += profiledTrial(cell, firstSeed, tracer, sums, report);
    }

    // Paired same-seed campaigns of the idle cell, attachment off and on;
    // the order rotates per pair so no variant always runs first.
    std::vector<double> monitorPct;
    std::vector<double> provenancePct;
    for (int pair = 0; pair < prepared.overheadPairs; ++pair) {
        const auto seed = experiment::deriveTrialSeed(prepared.runner.masterSeed, 0,
                                                      static_cast<std::uint64_t>(pair));
        const auto config = prepared.cells.front().toStudyConfig(seed).fleetConfig;
        double seconds[3] = {};
        for (int k = 0; k < 3; ++k) {
            const int attachment = (pair + k) % 3;
            seconds[attachment] = pairedCampaign(config, attachment, tracer, report);
        }
        monitorPct.push_back(100.0 * (ratio(seconds[1], seconds[0]) - 1.0));
        provenancePct.push_back(100.0 * (ratio(seconds[2], seconds[0]) - 1.0));
    }

    sums.appendTo(report.layers);
    report.layers.insert(
        report.layers.end(),
        {
            {"osfault.trial_s_p50", median(timing.trialSeconds.back())},
            {"monitor.overhead_pct", median(monitorPct)},
            {"obs.provenance_overhead_pct", median(provenancePct)},
            {"srgm.analyze_s", sums.srgmSeconds},
            {"experiment.trial_s_p50", median(timing.trialSeconds.front())},
            {"experiment.pool_utilisation",
             ratio(timing.busySeconds,
                   static_cast<double>(prepared.runner.jobs) * timing.runSeconds)},
            {"experiment.aggregate_s", timing.aggregateSeconds},
            {"obs.tracing_overhead_pct",
             100.0 * (ratio(profiledSeconds, plainSeconds) - 1.0)},
        });
}

void tracedCampaign(const Prepared& prepared, Tracer& tracer, RunReport& report) {
    LayerSums untracedSums;
    const double untraced = campaignPass(prepared, tracer, nullptr, untracedSums, report);
    LayerSums sums;
    Instruments instruments{nullptr};
    const double traced = campaignPass(prepared, tracer, &instruments, sums, report);
    sums.appendTo(report.layers);
    report.layers.insert(report.layers.end(),
                         {
                             {"core.render_s", sums.renderSeconds},
                             {"obs.tracing_overhead_pct",
                              100.0 * (ratio(traced, untraced) - 1.0)},
                         });
}

}  // namespace

bool knownWorkload(const std::string& name) {
    return name == "paper_campaign" || name == "wide_fleet" || name == "sweep";
}

Prepared prepare(const Options& options) {
    Prepared prepared;
    if (options.workload == "sweep") {
        experiment::Cell idle;
        idle.phones = options.smoke ? 3 : 8;
        idle.days = options.smoke ? 10 : 60;
        // The osfault smoke rates of CI, all four planes at once.
        experiment::Cell planes = idle;
        planes.flashFaultPerKHour = 20.0;
        planes.memPressurePerKHour = 4.0;
        planes.clockSkewPpm = 200.0;
        planes.radioFaultPerKHour = 10.0;
        prepared.cells = {idle, planes};
        prepared.runner.trials = options.smoke ? 2 : 16;
        prepared.runner.jobs = options.jobs;
        prepared.runner.masterSeed = options.seed;
        prepared.overheadPairs = options.smoke ? 1 : 8;
        // A pass is short and loads every core, so host noise hits it
        // hardest: its wall_s is the median of three passes.
        prepared.minPasses = 3;
        return prepared;
    }
    const bool paper = options.workload == "paper_campaign";
    auto& fleet = prepared.study.fleetConfig;
    fleet.phoneCount = paper ? (options.smoke ? 3 : 25) : (options.smoke ? 100 : 2000);
    fleet.campaign = sim::Duration::days(paper ? (options.smoke ? 20 : 425) : 1);
    // As the CLI derives it: enrollment spans half of a short campaign.
    if (fleet.enrollmentWindow > fleet.campaign) fleet.enrollmentWindow = fleet.campaign / 2;
    fleet.seed = options.seed;
    return prepared;
}

RunReport run(const Options& options, const Prepared& prepared, Tracer& tracer) {
    RunReport report;
    const bool sweep = options.workload == "sweep";
    if (sweep) {
        for (const auto& cell : prepared.cells) {
            report.phoneHoursPerRep +=
                prepared.runner.trials *
                fleet::expectedObservedHours(cell.toStudyConfig(options.seed).fleetConfig);
        }
    } else {
        report.phoneHoursPerRep = fleet::expectedObservedHours(prepared.study.fleetConfig);
    }

    if (options.trace) {
        if (sweep) {
            tracedSweep(prepared, tracer, report);
        } else {
            tracedCampaign(prepared, tracer, report);
        }
        return report;
    }
    const std::int64_t startNs = nowNs();
    while (report.wallSeconds.size() < static_cast<std::size_t>(prepared.minPasses) ||
           secondsBetween(startNs, nowNs()) < options.seconds) {
        LayerSums unused;
        // Resets VmHWM, so each pass reports its own peak: the sweep's
        // peak depends on which trials overlap, and a median over passes
        // is steadier than the process-lifetime maximum.
        std::ofstream{"/proc/self/clear_refs"} << "5";
        report.wallSeconds.push_back(
            sweep ? sweepPass(prepared, tracer, nullptr, report)
                  : campaignPass(prepared, tracer, nullptr, unused, report));
        report.peakRssBytes.push_back(static_cast<double>(obs::readPeakRssBytes()));
    }
    return report;
}

}  // namespace perfbench
