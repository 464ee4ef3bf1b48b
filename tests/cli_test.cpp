// Tests for the symfail CLI and the disk log I/O it builds on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "cli.hpp"
#include "core/logio.hpp"
#include "fleet/fleet.hpp"

namespace symfail {
namespace {

class LogIoFixture : public ::testing::Test {
protected:
    LogIoFixture() : dir_{std::filesystem::temp_directory_path() / "symfail-logio"} {
        std::filesystem::remove_all(dir_);
    }
    ~LogIoFixture() override { std::filesystem::remove_all(dir_); }
    std::filesystem::path dir_;
};

TEST_F(LogIoFixture, SaveAndLoadRoundTrip) {
    std::vector<analysis::PhoneLog> logs{
        {"phone-0", "BOOT|1|NONE|0\n"},
        {"phone-1", "BOOT|2|NONE|0\nPANIC|3|USER|11||unspecified|50\n"},
    };
    const auto written = core::saveLogs(logs, dir_.string());
    EXPECT_EQ(written.size(), 2u);
    const auto loaded = core::loadLogs(dir_.string());
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].phoneName, "phone-0");
    EXPECT_EQ(loaded[0].logFileContent, logs[0].logFileContent);
    EXPECT_EQ(loaded[1].phoneName, "phone-1");
    EXPECT_EQ(loaded[1].logFileContent, logs[1].logFileContent);
}

TEST_F(LogIoFixture, LoadIgnoresForeignFiles) {
    std::filesystem::create_directories(dir_);
    std::ofstream{dir_ / "notes.txt"} << "not a log";
    std::ofstream{dir_ / "a.log"} << "BOOT|1|NONE|0\n";
    const auto loaded = core::loadLogs(dir_.string());
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].phoneName, "a");
}

TEST_F(LogIoFixture, LoadMissingDirectoryThrows) {
    EXPECT_THROW((void)core::loadLogs((dir_ / "absent").string()),
                 std::runtime_error);
}

TEST_F(LogIoFixture, CampaignLogsSurviveTheRoundTrip) {
    fleet::FleetConfig config;
    config.phoneCount = 2;
    config.campaign = sim::Duration::days(10);
    config.enrollmentWindow = sim::Duration::days(2);
    config.seed = 71;
    const auto result = fleet::runCampaign(config);
    (void)core::saveLogs(result.logs, dir_.string());
    const auto loaded = core::loadLogs(dir_.string());
    const auto direct = analysis::LogDataset::build(result.logs);
    const auto replayed = analysis::LogDataset::build(loaded);
    EXPECT_EQ(direct.bootCount(), replayed.bootCount());
    EXPECT_EQ(direct.panics().size(), replayed.panics().size());
    EXPECT_EQ(direct.freezes().size(), replayed.freezes().size());
}

// -- CLI ------------------------------------------------------------------------

TEST(Cli, HelpAndUnknownCommands) {
    EXPECT_EQ(cli::runCli({"help"}), 0);
    EXPECT_EQ(cli::runCli({}), 2);
    EXPECT_EQ(cli::runCli({"frobnicate"}), 2);
}

TEST(Cli, TablesPrints) {
    EXPECT_EQ(cli::runCli({"tables"}), 0);
}

TEST(Cli, ForumRuns) {
    EXPECT_EQ(cli::runCli({"forum", "--reports", "120", "--seed", "4"}), 0);
}

TEST(Cli, ForumRejectsBadNumbers) {
    EXPECT_EQ(cli::runCli({"forum", "--reports", "many"}), 1);
    EXPECT_EQ(cli::runCli({"forum", "--reports", "0"}), 1);
    EXPECT_EQ(cli::runCli({"forum", "--reports", "-5"}), 1);
}

// Regression: std::stoll accepts partial parses, so "--phones 25x" used to
// run a 25-phone campaign instead of failing.  Trailing junk must error.
TEST(Cli, RejectsPartiallyNumericOptions) {
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "25x", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "3d"}), 1);
    EXPECT_EQ(cli::runCli({"forum", "--reports", "25x"}), 1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--loss", "0.1%"}),
              1);
}

// The `--phones/--days/--seed` parsing is shared via parseFleetOptions():
// every campaign-shaped subcommand must reject the same malformed inputs
// the same way, so a fifth subcommand can't quietly regress to partial
// parses.
TEST(Cli, FleetOptionParsingParityAcrossSubcommands) {
    for (const char* command :
         {"campaign", "transport", "obs", "sweep", "monitor", "osfault",
          "srgm", "perf"}) {
        EXPECT_EQ(cli::runCli({command, "--phones", "25x"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--phones", ""}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "3d"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "ten"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--seed", "0x9"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--phones", "-3"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--phones", "0"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "0"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "-7"}), 1) << command;
    }
}

// Output paths are validated before the campaign runs: a typo'd path must
// exit non-zero up front instead of burning minutes and then failing.
TEST(Cli, RejectsUnwritableOutputPathsUpFront) {
    const char* bad = "/symfail-definitely-missing/out.file";
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--json", bad}),
              1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--trace", bad}),
              1);
    EXPECT_EQ(cli::runCli({"obs", "--phones", "2", "--days", "2",
                           "--metrics", bad}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days",
                           "2", "--json", bad}),
              1);
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "1", "--days", "2",
                           "--snapshots", bad}),
              1);
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "1", "--days", "2",
                           "--alerts", bad}),
              1);
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2",
                           "--json", bad}),
              1);
    // A directory where a file is expected is rejected too.
    const auto dir = std::filesystem::temp_directory_path();
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--json", dir.string()}),
              1);
}

TEST(Cli, MonitorRunsLiveAndWritesOutputs) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-monitor";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto snapshots = (dir / "snapshots.jsonl").string();
    const auto alerts = (dir / "alerts.log").string();
    const auto metrics = (dir / "metrics.prom").string();
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "2", "--days", "15", "--seed",
                           "5", "--snapshots", snapshots, "--alerts", alerts,
                           "--metrics", metrics}),
              0);
    EXPECT_GT(std::filesystem::file_size(snapshots), 0u);
    EXPECT_GT(std::filesystem::file_size(metrics), 0u);
    std::filesystem::remove_all(dir);
}

// Replay mode re-checks the online-vs-batch exactness contract from the
// CLI and exits non-zero on a mismatch; a passing run is the smoke test.
TEST(Cli, MonitorReplayMatchesBatch) {
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "3", "--days", "30", "--seed",
                           "9", "--replay"}),
              0);
}

TEST(Cli, MonitorRejectsBadKnobs) {
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "2", "--days", "2",
                           "--tick-hours", "0"}),
              1);
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "2", "--days", "2",
                           "--silence-hours", "-4"}),
              1);
}

// An outage window must start on or after day 0 and last at least a day;
// anything else used to run a campaign with no outage at all.
TEST(Cli, OutageOptionsAreBounded) {
    for (const char* command : {"transport", "monitor"}) {
        EXPECT_EQ(cli::runCli({command, "--phones", "1", "--days", "2", "--outage-day",
                               "1", "--outage-days", "-5"}),
                  1)
            << command;
        EXPECT_EQ(cli::runCli({command, "--phones", "1", "--days", "2", "--outage-day",
                               "1", "--outage-days", "0"}),
                  1)
            << command;
        EXPECT_EQ(cli::runCli({command, "--phones", "1", "--days", "2", "--outage-day",
                               "-1"}),
                  1)
            << command;
        // A length without a start day would silently schedule no outage.
        EXPECT_EQ(cli::runCli({command, "--phones", "1", "--days", "2", "--outage-days",
                               "5"}),
                  1)
            << command;
    }
}

TEST(Cli, AnalyzeRequiresDirectory) {
    EXPECT_EQ(cli::runCli({"analyze"}), 2);
    EXPECT_EQ(cli::runCli({"analyze", "/definitely/not/there"}), 1);
}

TEST(Cli, CampaignAnalyzeWorkflow) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-flow";
    std::filesystem::remove_all(dir);
    // A small campaign dumping logs and JSON to disk...
    const auto jsonPath = (dir / "results.json").string();
    std::filesystem::create_directories(dir);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "12", "--seed",
                           "9", "--logs", dir.string(), "--json", jsonPath}),
              0);
    ASSERT_TRUE(std::filesystem::exists(dir / "phone-0.log"));
    EXPECT_TRUE(std::filesystem::exists(jsonPath));
    // ...then the analysis-only pass over those logs.
    EXPECT_EQ(cli::runCli({"analyze", dir.string()}), 0);
    std::filesystem::remove_all(dir);
}

// A write that only fails when the buffered bytes are flushed (a full
// disk) must fail the command after the run instead of printing "wrote ..."
// and exiting 0.
TEST(Cli, ReportsFailedWritesAfterTheRun) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "10", "--json",
                           "/dev/full"}),
              1);
    EXPECT_EQ(cli::runCli({"trace", "--phones", "2", "--days", "10", "--json",
                           "/dev/full"}),
              1);
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-devfull";
    std::filesystem::remove_all(dir);
    ASSERT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "10", "--logs",
                           dir.string()}),
              0);
    EXPECT_EQ(cli::runCli({"crash", dir.string(), "--json", "/dev/full"}), 1);
    std::filesystem::remove_all(dir);
}

TEST(Cli, CampaignWritesTraceAndMetricsFiles) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-obs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto tracePath = (dir / "trace.json").string();
    const auto metricsPath = (dir / "metrics.prom").string();
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "8", "--seed",
                           "3", "--trace", tracePath, "--metrics", metricsPath}),
              0);
    ASSERT_TRUE(std::filesystem::exists(tracePath));
    ASSERT_TRUE(std::filesystem::exists(metricsPath));

    std::ifstream traceFile{tracePath};
    const std::string trace{std::istreambuf_iterator<char>{traceFile},
                            std::istreambuf_iterator<char>{}};
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"symbos\""), std::string::npos);

    std::ifstream metricsFile{metricsPath};
    const std::string metrics{std::istreambuf_iterator<char>{metricsFile},
                              std::istreambuf_iterator<char>{}};
    EXPECT_NE(metrics.find("# TYPE symfail_fleet_boots counter"),
              std::string::npos);
    EXPECT_NE(metrics.find("symfail_transport_delivery_ratio"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, ObsSubcommandRuns) {
    EXPECT_EQ(cli::runCli({"obs", "--phones", "2", "--days", "6", "--seed", "5"}),
              0);
}

TEST(Cli, SweepRunsAndWritesArtifacts) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto gridPath = (dir / "grid.json").string();
    std::ofstream{gridPath} << R"({"loss_pct": [0, 25]})";
    const auto jsonPath = (dir / "sweep.json").string();
    const auto metricsPath = (dir / "sweep.prom").string();
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "2", "--jobs", "2", "--phones",
                           "2", "--days", "8", "--seed", "13", "--bootstrap",
                           "100", "--grid", gridPath, "--json", jsonPath, "--csv",
                           dir.string(), "--metrics", metricsPath}),
              0);
    ASSERT_TRUE(std::filesystem::exists(jsonPath));
    ASSERT_TRUE(std::filesystem::exists(dir / "sweep_summary.csv"));
    ASSERT_TRUE(std::filesystem::exists(dir / "sweep_trials.csv"));
    std::ifstream jsonFile{jsonPath};
    const std::string json{std::istreambuf_iterator<char>{jsonFile},
                           std::istreambuf_iterator<char>{}};
    EXPECT_NE(json.find("\"sweep\""), std::string::npos);
    EXPECT_NE(json.find("\"mtbf_freeze_hours\""), std::string::npos);
    EXPECT_NE(json.find("\"ci95\""), std::string::npos);
    std::ifstream metricsFile{metricsPath};
    const std::string metrics{std::istreambuf_iterator<char>{metricsFile},
                              std::istreambuf_iterator<char>{}};
    EXPECT_NE(metrics.find("symfail_experiment_trials_run 4"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, SweepRejectsBadOptions) {
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "2x"}), 1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "0"}), 1);
    EXPECT_EQ(cli::runCli({"sweep", "--jobs", "0"}), 1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days", "2",
                           "--bootstrap", "-1"}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--grid", "/definitely/not/there.json"}), 1);
}

// An unknown grid key (a typo'd axis name) must fail the sweep up front
// instead of silently sweeping nothing — checked end to end through the
// CLI, grid file and all.
TEST(Cli, SweepRejectsUnknownGridKeys) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-badgrid";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto gridPath = (dir / "grid.json").string();
    std::ofstream{gridPath} << R"({"flash_fault_per_khours": [0, 40]})";
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days",
                           "2", "--grid", gridPath}),
              1);
    std::filesystem::remove_all(dir);
}

// -- osfault --------------------------------------------------------------------

TEST(Cli, SrgmRunsAndWritesOutputs) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-srgm-cli";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto json = (dir / "srgm.json").string();
    const auto metrics = (dir / "metrics.prom").string();
    const auto csvDir = (dir / "csv").string();
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                           "5", "--json", json, "--csv", csvDir, "--metrics",
                           metrics}),
              0);
    EXPECT_TRUE(std::filesystem::exists(json));
    EXPECT_TRUE(std::filesystem::exists(csvDir + "/srgm_fits.csv"));
    EXPECT_TRUE(std::filesystem::exists(csvDir + "/srgm_holdout.csv"));
    std::ifstream jsonIn{json};
    const std::string body{std::istreambuf_iterator<char>{jsonIn}, {}};
    EXPECT_NE(body.find("\"fleet\""), std::string::npos);
    EXPECT_NE(body.find("\"holdout\""), std::string::npos);
    std::ifstream promIn{metrics};
    const std::string prom{std::istreambuf_iterator<char>{promIn}, {}};
    EXPECT_NE(prom.find("symfail_srgm_fleet_events"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, SrgmJsonIsByteIdenticalAcrossRuns) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-srgm-det";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string bodies[2];
    for (int run = 0; run < 2; ++run) {
        const auto json = (dir / ("run" + std::to_string(run) + ".json")).string();
        ASSERT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                               "5", "--fleet-only", "--json", json}),
                  0);
        std::ifstream in{json};
        bodies[run] = {std::istreambuf_iterator<char>{in}, {}};
    }
    ASSERT_FALSE(bodies[0].empty());
    EXPECT_EQ(bodies[0], bodies[1]);
    std::filesystem::remove_all(dir);
}

TEST(Cli, SrgmCheckGatesOnBounds) {
    // Generous bounds pass.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                           "5", "--fleet-only", "--check"}),
              0);
    // An unreachable prequential-gain floor must fail the check.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                           "5", "--fleet-only", "--check", "--min-preq-gain",
                           "1e8"}),
              1);
    // Malformed knobs fail before any campaign runs.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "2", "--days", "2", "--holdout",
                           "1.5"}),
              1);
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "2", "--days", "2", "--check",
                           "--max-count-err", "abc"}),
              1);
}

// -- perf -----------------------------------------------------------------------

namespace {
/// Concatenates every `"accounting": {...}` object of a perf JSON document
/// — the deterministic half of each cell (the "host" sections measure
/// wall time and RSS and legitimately differ between runs).
std::string accountingSections(const std::string& json) {
    std::string sections;
    std::size_t pos = 0;
    while ((pos = json.find("\"accounting\"", pos)) != std::string::npos) {
        const std::size_t end = json.find("\"host\"", pos);
        EXPECT_NE(end, std::string::npos);
        if (end == std::string::npos) break;
        sections += json.substr(pos, end - pos);
        pos = end;
    }
    return sections;
}
}  // namespace

TEST(Cli, PerfRunsAndWritesOutputs) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-perf-cli";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto json = (dir / "perf.json").string();
    const auto metrics = (dir / "metrics.prom").string();
    const auto csvDir = (dir / "csv").string();
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2,3", "--days", "2",
                           "--seed", "5", "--json", json, "--csv", csvDir,
                           "--metrics", metrics}),
              0);
    std::ifstream jsonIn{json};
    const std::string body{std::istreambuf_iterator<char>{jsonIn}, {}};
    EXPECT_NE(body.find("\"accounting\""), std::string::npos);
    EXPECT_NE(body.find("\"bytes_per_phone\""), std::string::npos);
    EXPECT_NE(body.find("\"phone_hours_per_sec\""), std::string::npos);
    EXPECT_NE(body.find("\"peak_rss_bytes\""), std::string::npos);
    // Every accounted subsystem shows up in the breakdown.
    for (const char* subsystem :
         {"\"simkernel\"", "\"phone\"", "\"logger\"", "\"transport\"",
          "\"server\"", "\"analysis\""}) {
        EXPECT_NE(body.find(subsystem), std::string::npos) << subsystem;
    }
    EXPECT_TRUE(std::filesystem::exists(csvDir + "/perf_scaling.csv"));
    std::ifstream promIn{metrics};
    const std::string prom{std::istreambuf_iterator<char>{promIn}, {}};
    EXPECT_NE(prom.find("symfail_perf_bytes_per_phone"), std::string::npos);
    EXPECT_NE(prom.find("symfail_perf_phone_hours_per_sec"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, PerfAccountingJsonIsByteIdenticalAcrossRuns) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-perf-det";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string sections[2];
    for (int run = 0; run < 2; ++run) {
        const auto json = (dir / ("run" + std::to_string(run) + ".json")).string();
        ASSERT_EQ(cli::runCli({"perf", "--fleet-sizes", "3", "--days", "3",
                               "--seed", "9", "--json", json}),
                  0);
        std::ifstream in{json};
        const std::string body{std::istreambuf_iterator<char>{in}, {}};
        sections[run] = accountingSections(body);
    }
    ASSERT_FALSE(sections[0].empty());
    EXPECT_EQ(sections[0], sections[1]);
    std::filesystem::remove_all(dir);
}

TEST(Cli, PerfCheckGatesOnBounds) {
    // Generous bounds pass.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2", "--seed",
                           "5", "--check", "--max-bytes-per-phone", "1e12"}),
              0);
    // An unreachable footprint bound must fail the check.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2", "--seed",
                           "5", "--check", "--max-bytes-per-phone", "1"}),
              1);
    // ... as must an unreachable throughput floor.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2", "--seed",
                           "5", "--check", "--min-phone-hours-per-sec", "1e12"}),
              1);
    // Malformed knobs fail before any campaign runs.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2,x", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2,", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "0", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--sample-hours", "0", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--stride", "1x", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--days", "2", "--check",
                           "--max-bytes-per-phone", "abc"}),
              1);
}

TEST(Cli, OsfaultPlaneFlagsAreAcceptedAndBounded) {
    // The plane knobs ride campaign and sweep as well as osfault.
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "6", "--seed",
                           "3", "--flash-fault", "10", "--mem-pressure", "2"}),
              0);
    // Out-of-range or malformed rates fail before any campaign runs.
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--flash-fault", "-5"}),
              1);
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "2",
                           "--clock-skew", "20000"}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days",
                           "2", "--radio-fault", "1x"}),
              1);
}

TEST(Cli, OsfaultSubcommandRunsAndChecks) {
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "20", "--seed",
                           "5", "--flash-fault", "20", "--mem-pressure", "5",
                           "--clock-skew", "100", "--radio-fault", "10"}),
              0);
    // --check with default (zero) bounds always passes.
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "20", "--seed",
                           "5", "--mem-pressure", "5", "--check"}),
              0);
    // Bounds live in [0, 1].
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "2", "--check",
                           "--min-precision", "1.5"}),
              1);
    // Perfection under heavy faults is unattainable: the check must FAIL
    // (exit 1) rather than quietly bless a degraded measurement.
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "3", "--days", "30", "--seed",
                           "5", "--flash-fault", "80", "--mem-pressure", "20",
                           "--radio-fault", "30", "--check", "--min-precision",
                           "1", "--min-recall", "1", "--min-capture", "1"}),
              1);
}

}  // namespace
}  // namespace symfail
