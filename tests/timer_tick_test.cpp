// Tests for the one-event timer tick: an RTimer fire runs its active
// object's RunL in the same simulator event.  Guards the logger's cost per
// periodic tick (one event, not two), cancellation before the fire, and a
// RunL that destroys its own timer inside the fused event (the daemon
// OOM-kill path; this suite also runs under ASan as *.asan).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "logger/logger.hpp"
#include "phone/device.hpp"
#include "simkernel/simulator.hpp"
#include "symbos/err.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/heap.hpp"
#include "symbos/kernel.hpp"
#include "symbos/panic.hpp"
#include "symbos/timer.hpp"

namespace symfail {
namespace {

/// One phone with a silent user model, so the logger's periodic AOs are
/// the only variable load on the simulator.
class QuietPhone {
public:
    explicit QuietPhone(bool loggerOn) {
        phone::PhoneDevice::Config config;
        config.name = "tick-test";
        config.seed = 5;
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
        device = std::make_unique<phone::PhoneDevice>(simulator, config);
        logger::LoggerConfig loggerConfig;
        loggerConfig.startEnabled = loggerOn;
        logger = std::make_unique<logger::FailureLogger>(*device, loggerConfig);
        device->powerOn();
    }

    /// Events fired over the next `d` of simulated time.
    std::uint64_t eventsOver(sim::Duration d) {
        const std::uint64_t before = simulator.eventsFired();
        simulator.runUntil(simulator.now() + d);
        return simulator.eventsFired() - before;
    }

    // Declared before the device, as in the fleet, so the device (whose
    // teardown runs the kernel's termination hooks) dies first.
    sim::Simulator simulator;
    std::unique_ptr<logger::FailureLogger> logger;
    std::unique_ptr<phone::PhoneDevice> device;
};

TEST(TimerTick, LoggerCostsOneEventPerPeriodicTick) {
    constexpr int kHours = 6;
    const sim::Duration span = sim::Duration::hours(kHours);
    // The same phone without its logger fires the device's own events
    // (battery chain, user-model chains); the difference is the logger's.
    QuietPhone bare{false};
    QuietPhone logged{true};
    const std::uint64_t deviceEvents = bare.eventsOver(span);
    const std::uint64_t allEvents = logged.eventsOver(span);

    const logger::LoggerConfig& config = logged.logger->config();
    const auto ticksOf = [&](sim::Duration period) {
        return static_cast<std::uint64_t>(span.totalMicros() / period.totalMicros());
    };
    const std::uint64_t beats = logged.logger->heartbeatsWritten() - 1;  // minus boot
    const std::uint64_t snapshots = logged.logger->snapshotsWritten();
    EXPECT_EQ(beats, ticksOf(config.heartbeatPeriod));
    EXPECT_EQ(snapshots, ticksOf(config.runappPeriod));
    // The log engine and power manager keep no tick counters; their ticks
    // follow from their periods.
    const std::uint64_t ticks = beats + snapshots + ticksOf(config.activityPeriod) +
                                ticksOf(config.powerPeriod);
    ASSERT_GT(ticks, 0u);
    EXPECT_EQ(allEvents - deviceEvents, ticks);
    EXPECT_EQ(logged.logger->daemonDeaths(), 0u);
}

TEST(TimerTick, CancelledTimerNeverRunsRunL) {
    sim::Simulator simulator;
    symbos::Kernel kernel{simulator};
    const auto pid = kernel.createProcess("TickApp", symbos::ProcessKind::UserApp);
    int ran = 0;
    symbos::FunctionAo ao{kernel.schedulerOf(pid), "tick",
                          [&](symbos::ExecContext&, int) { ++ran; }};
    symbos::RTimer timer{ao};
    // The Symbian idiom: cancelling the AO runs DoCancel, which cancels
    // the timer at its source.
    ao.setCancelFn([&timer]() { timer.cancel(); });
    kernel.runInProcess(pid, [&](symbos::ExecContext& ctx) {
        timer.after(ctx, sim::Duration::seconds(30));
    });
    ASSERT_TRUE(ao.isActive());
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::seconds(10));
    ao.cancel();
    EXPECT_FALSE(timer.outstanding());
    EXPECT_FALSE(ao.isActive());
    EXPECT_EQ(simulator.runAll(), 0u);
    EXPECT_EQ(ran, 0);
    EXPECT_TRUE(kernel.panicLog().empty());
}

TEST(TimerTick, HeartbeatLeavingUnderMemoryPressureKillsDaemonCleanly) {
    QuietPhone phone{true};
    auto& kernel = phone.device->kernel();
    const symbos::ProcessId daemon = phone.logger->daemonPid();
    ASSERT_NE(daemon, 0u);
    // A memory-pressure episode: the next heartbeat's scratch allocation
    // cannot fit, its RunL leaves, the scheduler escalates to
    // E32USER-CBase 47 and the daemon is OOM-killed — which destroys the
    // heartbeat's timer inside the very event that fired it.
    symbos::HeapModel& heap = kernel.heapOf(daemon);
    heap.setCapacity(heap.bytesInUse() + 256);
    const std::uint64_t beatsBefore = phone.logger->heartbeatsWritten();
    phone.eventsOver(phone.logger->config().heartbeatPeriod);

    EXPECT_EQ(phone.logger->daemonDeaths(), 1u);
    EXPECT_EQ(phone.logger->daemonPid(), 0u);
    EXPECT_FALSE(kernel.alive(daemon));
    ASSERT_FALSE(kernel.panicLog().empty());
    EXPECT_EQ(kernel.panicLog().back().id, symbos::kCBaseSchedulerError);
    EXPECT_EQ(phone.logger->heartbeatsWritten(), beatsBefore);
    // The dead daemon's timers are gone: no AO of it ever runs again.
    const std::uint64_t snapshots = phone.logger->snapshotsWritten();
    phone.eventsOver(sim::Duration::hours(2));
    EXPECT_EQ(phone.logger->heartbeatsWritten(), beatsBefore);
    EXPECT_EQ(phone.logger->snapshotsWritten(), snapshots);
    EXPECT_EQ(phone.logger->daemonDeaths(), 1u);
}

}  // namespace
}  // namespace symfail
