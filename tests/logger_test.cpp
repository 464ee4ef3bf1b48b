// Tests for the failure data logger: record formats, heartbeat semantics,
// shutdown classification at boot, MAOFF handling, panic capture, and
// failure injection against the logger itself (torn writes).
#include <gtest/gtest.h>

#include "logger/logger.hpp"
#include "logger/records.hpp"
#include "phone/device.hpp"
#include "simkernel/simulator.hpp"

namespace symfail::logger {
namespace {

// -- Record serialization ---------------------------------------------------------

TEST(Records, BeatRoundTrip) {
    for (const auto kind :
         {BeatKind::Alive, BeatKind::Reboot, BeatKind::Maoff, BeatKind::Lowbt}) {
        const BeatRecord original{sim::TimePoint::fromMicros(123'456), kind};
        const auto parsed = parseBeat(serialize(original));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->time, original.time);
        EXPECT_EQ(parsed->kind, original.kind);
    }
}

TEST(Records, BeatParseRejectsMalformed) {
    EXPECT_FALSE(parseBeat("").has_value());
    EXPECT_FALSE(parseBeat("BEAT|123").has_value());
    EXPECT_FALSE(parseBeat("BEAT|abc|ALIVE").has_value());
    EXPECT_FALSE(parseBeat("BEAT|123|BOGUS").has_value());
    EXPECT_FALSE(parseBeat("BEAT|123|ALIVE|extra").has_value());
    EXPECT_FALSE(parseBeat("BEAT|12").has_value());
    // Torn tail: the int parse fails.
    EXPECT_FALSE(parseBeat("BEAT|123|ALI").has_value());
}

TEST(Records, PanicRecordRoundTrip) {
    PanicRecord original;
    original.time = sim::TimePoint::fromMicros(42'000'000);
    original.panic = symbos::kUserDesOverflow;
    original.runningApps = {"Messages", "Camera"};
    original.activity = ActivityContext::VoiceCall;
    original.batteryPercent = 61;
    std::size_t malformed = 0;
    const auto entries = parseLogFile(serialize(original) + "\n", &malformed);
    EXPECT_EQ(malformed, 0u);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_EQ(entries[0].type, LogFileEntry::Type::Panic);
    const auto& parsed = entries[0].panic;
    EXPECT_EQ(parsed.time, original.time);
    EXPECT_EQ(parsed.panic, original.panic);
    EXPECT_EQ(parsed.runningApps, original.runningApps);
    EXPECT_EQ(parsed.activity, original.activity);
    EXPECT_EQ(parsed.batteryPercent, original.batteryPercent);
}

TEST(Records, PanicRecordEmptyAppsRoundTrip) {
    PanicRecord original;
    original.time = sim::TimePoint::fromMicros(1);
    original.panic = symbos::kKernExecBadHandle;
    const auto entries = parseLogFile(serialize(original) + "\n");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].panic.runningApps.empty());
}

TEST(Records, BootRecordRoundTrip) {
    for (const auto prior :
         {PriorShutdown::None, PriorShutdown::Freeze, PriorShutdown::Reboot,
          PriorShutdown::LowBattery, PriorShutdown::ManualOff}) {
        BootRecord original;
        original.time = sim::TimePoint::fromMicros(9'000'000);
        original.prior = prior;
        original.lastBeatAt = sim::TimePoint::fromMicros(8'000'000);
        const auto entries = parseLogFile(serialize(original) + "\n");
        ASSERT_EQ(entries.size(), 1u);
        ASSERT_EQ(entries[0].type, LogFileEntry::Type::Boot);
        EXPECT_EQ(entries[0].boot.prior, prior);
        EXPECT_EQ(entries[0].boot.lastBeatAt, original.lastBeatAt);
    }
}

TEST(Records, ParseSkipsMalformedLinesAndCounts) {
    BootRecord boot;
    boot.time = sim::TimePoint::fromMicros(5);
    const std::string content = serialize(boot) + "\nGARBAGE LINE\nPANIC|broken\n" +
                                serialize(boot) + "\n";
    std::size_t malformed = 0;
    const auto entries = parseLogFile(content, &malformed);
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(malformed, 2u);
}

TEST(Records, SplitFieldsHandlesEmptyFields) {
    const auto fields = splitFields("a||c|", '|');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "c");
    EXPECT_EQ(fields[3], "");
}

// -- Logger behaviour ----------------------------------------------------------------

class LoggerFixture : public ::testing::Test {
protected:
    LoggerFixture() {
        phone::PhoneDevice::Config config;
        config.name = "logger-test";
        config.seed = 3;
        // Keep the user model quiet so tests control the timeline.
        config.profile.callsPerDay = 0.0;
        config.profile.smsPerDay = 0.0;
        config.profile.cameraPerDay = 0.0;
        config.profile.bluetoothPerDay = 0.0;
        config.profile.webPerDay = 0.0;
        config.profile.appSessionsPerDay = 0.0;
        config.profile.nightOffProb = 0.0;
        config.profile.daytimeOffPerDay = 0.0;
        config.profile.quickCyclesPerDay = 0.0;
        config.profile.loggerTogglesPerMonth = 0.0;
        config.profile.telephoneForegroundProb = 1.0;  // deterministic listing
        device_ = std::make_unique<phone::PhoneDevice>(simulator_, config);
        logger_ = std::make_unique<FailureLogger>(*device_);
    }

    void runFor(sim::Duration d) { simulator_.runUntil(simulator_.now() + d); }

    [[nodiscard]] std::string lastBeatLine() {
        return device_->flash().lastLine(kBeatsFile);
    }

    sim::Simulator simulator_;
    // Declared before the device so the device dies first: its teardown
    // runs the kernel's termination hooks, which call into the logger.
    std::unique_ptr<FailureLogger> logger_;
    std::unique_ptr<phone::PhoneDevice> device_;
};

TEST_F(LoggerFixture, HeartbeatWritesAlivePeriodically) {
    device_->powerOn();
    runFor(sim::Duration::minutes(10));
    // One ALIVE at boot plus one per heartbeat period.
    const auto expected =
        1 + 10 * 60 / logger_->config().heartbeatPeriod.totalSeconds();
    EXPECT_NEAR(static_cast<double>(logger_->heartbeatsWritten()),
                static_cast<double>(expected), 1.0);
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Alive);
}

TEST_F(LoggerFixture, GracefulShutdownWritesReboot) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Reboot);
}

TEST_F(LoggerFixture, LowBatteryShutdownWritesLowbt) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::LowBattery);
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Lowbt);
}

TEST_F(LoggerFixture, FreezeLeavesAliveAsLastEvent) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->freeze("test");
    runFor(sim::Duration::hours(2));  // frozen: no more writes
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Alive);
}

TEST_F(LoggerFixture, BootClassifiesPriorShutdown) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    runFor(sim::Duration::hours(1));
    device_->powerOn();

    // The Log File opens with the device metadata record.
    EXPECT_EQ(logger_->logFileContent().rfind("META|", 0), 0u);
    const auto entries = parseLogFile(logger_->logFileContent());
    // First boot: prior None.  Second boot: prior Reboot with off-time.
    std::vector<BootRecord> boots;
    for (const auto& entry : entries) {
        if (entry.type == LogFileEntry::Type::Boot) boots.push_back(entry.boot);
    }
    ASSERT_EQ(boots.size(), 2u);
    EXPECT_EQ(boots[0].prior, PriorShutdown::None);
    EXPECT_EQ(boots[1].prior, PriorShutdown::Reboot);
    EXPECT_NEAR((boots[1].time - boots[1].lastBeatAt).asSecondsF(), 3'600.0, 1.0);
}

TEST_F(LoggerFixture, BootAfterFreezeClassifiesFreeze) {
    device_->powerOn();
    runFor(sim::Duration::minutes(7));
    device_->freeze("hang");
    runFor(sim::Duration::minutes(30));
    device_->abruptPowerOff();
    runFor(sim::Duration::minutes(1));
    device_->powerOn();

    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_GE(entries.size(), 2u);
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::Freeze);
    // The last ALIVE is within one heartbeat period of the freeze.
    const double gap = (sim::TimePoint::origin() + sim::Duration::minutes(7) -
                        last.boot.lastBeatAt)
                           .asSecondsF();
    EXPECT_GE(gap, 0.0);
    EXPECT_LE(gap, logger_->config().heartbeatPeriod.asSecondsF() + 1.0);
}

TEST_F(LoggerFixture, MaoffWrittenAndClassified) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->toggleLogger(false);
    EXPECT_FALSE(logger_->enabled());
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Maoff);

    // While off, no heartbeats accumulate.
    const auto before = logger_->heartbeatsWritten();
    runFor(sim::Duration::minutes(10));
    EXPECT_EQ(logger_->heartbeatsWritten(), before);

    // Phone reboots while the logger is off; the next enabled boot writes
    // a BOOT record with prior ManualOff.
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    runFor(sim::Duration::minutes(2));
    device_->powerOn();
    device_->toggleLogger(true);
    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::ManualOff);
}

TEST_F(LoggerFixture, PanicRecordCapturesContext) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->startAppSession(phone::kAppCamera, sim::Duration::minutes(10));
    device_->activityBegin(symbos::ActivityKind::VoiceCall, true);

    const auto victim =
        device_->kernel().createProcess("Buggy", symbos::ProcessKind::UserApp);
    device_->kernel().runInProcess(victim, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kKernExecAccessViolation, "null deref");
    });

    const auto entries = parseLogFile(logger_->logFileContent());
    // The panic record is chased by its structured dump.
    ASSERT_GE(entries.size(), 2u);
    ASSERT_EQ(entries.back().type, LogFileEntry::Type::Dump);
    const auto& last = entries[entries.size() - 2];
    ASSERT_EQ(last.type, LogFileEntry::Type::Panic);
    EXPECT_EQ(last.panic.panic, symbos::kKernExecAccessViolation);
    EXPECT_EQ(last.panic.activity, ActivityContext::VoiceCall);
    // Camera session and the in-call Telephone app are both running.
    EXPECT_NE(std::find(last.panic.runningApps.begin(), last.panic.runningApps.end(),
                        "Camera"),
              last.panic.runningApps.end());
    EXPECT_NE(std::find(last.panic.runningApps.begin(), last.panic.runningApps.end(),
                        "Telephone"),
              last.panic.runningApps.end());
}

TEST_F(LoggerFixture, MessageContextWinsWhenNoCall) {
    device_->powerOn();
    runFor(sim::Duration::minutes(1));
    device_->activityBegin(symbos::ActivityKind::TextMessage, true);
    const auto victim =
        device_->kernel().createProcess("Buggy", symbos::ProcessKind::UserApp);
    device_->kernel().runInProcess(victim, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kMsgsClientWriteFailed, "msg bug");
    });
    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_GE(entries.size(), 2u);
    ASSERT_EQ(entries.back().type, LogFileEntry::Type::Dump);
    const auto& panicEntry = entries[entries.size() - 2];
    ASSERT_EQ(panicEntry.type, LogFileEntry::Type::Panic);
    EXPECT_EQ(panicEntry.panic.activity, ActivityContext::Message);
}

TEST_F(LoggerFixture, TornBeatLineClassifiedAsFreeze) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->abruptPowerOff();
    // The battery pull tore the final heartbeat write.
    device_->flash().tearTail(kBeatsFile, 4);
    runFor(sim::Duration::minutes(1));
    device_->powerOn();
    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::Freeze);
}

TEST_F(LoggerFixture, TornBeatTailIsCountedAndClassifiedConservatively) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    // Tear the REBOOT beat mid-line.  The beats file is compacted to a
    // single line, so once its tail is torn no complete line survives to
    // recover from: the boot counts both anomalies (torn tail plus
    // malformed line) and falls back to the conservative Freeze
    // classification with no beat-time evidence.
    const phone::FlashTail intact = device_->flash().readTail(kBeatsFile);
    ASSERT_FALSE(intact.torn);
    device_->flash().tearTail(kBeatsFile, 3);
    EXPECT_TRUE(device_->flash().readTail(kBeatsFile).torn);
    runFor(sim::Duration::minutes(1));
    device_->powerOn();

    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::Freeze);
    EXPECT_EQ(logger_->tornBeatTails(), 1u);
    EXPECT_EQ(logger_->malformedBeatLines(), 1u);
    EXPECT_EQ(logger_->recordAnomalies(), 2u);
    // No surviving complete beat line → no lastBeatAt evidence.
    EXPECT_EQ(last.boot.lastBeatAt, sim::TimePoint::origin());
}

TEST_F(LoggerFixture, CleanRunsCountNoRecordAnomalies) {
    device_->powerOn();
    runFor(sim::Duration::minutes(10));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    runFor(sim::Duration::minutes(1));
    device_->powerOn();
    EXPECT_EQ(logger_->recordAnomalies(), 0u);
    EXPECT_EQ(logger_->daemonDeaths(), 0u);
}

TEST_F(LoggerFixture, RunappSnapshotsAccumulate) {
    device_->powerOn();
    device_->startAppSession(phone::kAppClock, sim::Duration::hours(2));
    runFor(sim::Duration::minutes(30));
    EXPECT_GT(logger_->snapshotsWritten(), 10u);
    const auto lines = device_->flash().lines(kRunappFile);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines.back().find("Clock"), std::string::npos);
}

TEST_F(LoggerFixture, ActivityRowsCopiedFromDbLog) {
    device_->powerOn();
    device_->activityBegin(symbos::ActivityKind::VoiceCall, false);
    runFor(sim::Duration::minutes(2));
    device_->activityEnd(symbos::ActivityKind::VoiceCall, false);
    runFor(sim::Duration::minutes(10));
    const auto lines = device_->flash().lines(kActivityFile);
    ASSERT_GE(lines.size(), 2u);
    EXPECT_NE(lines[0].find("voice-call"), std::string::npos);
    EXPECT_NE(lines[0].find("start"), std::string::npos);
    EXPECT_NE(lines[1].find("end"), std::string::npos);
}

TEST_F(LoggerFixture, PowerRowsWritten) {
    device_->powerOn();
    runFor(sim::Duration::hours(1));
    const auto lines = device_->flash().lines(kPowerFile);
    EXPECT_GE(lines.size(), 5u);
    EXPECT_EQ(lines[0].rfind("POWER|", 0), 0u);
}

TEST_F(LoggerFixture, DisabledLoggerWritesNothingAtBoot) {
    LoggerConfig config;
    config.startEnabled = false;
    phone::PhoneDevice::Config deviceConfig;
    deviceConfig.name = "dark";
    deviceConfig.seed = 4;
    phone::PhoneDevice device{simulator_, deviceConfig};
    FailureLogger darkLogger{device, config};
    device.powerOn();
    simulator_.runUntil(simulator_.now() + sim::Duration::hours(1));
    EXPECT_EQ(darkLogger.heartbeatsWritten(), 0u);
    EXPECT_TRUE(darkLogger.logFileContent().empty());
}

}  // namespace
}  // namespace symfail::logger
