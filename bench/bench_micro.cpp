// M1: google-benchmark microbenchmarks of the substrates: event queue,
// active-object dispatch, log serialization/parsing, and the coalescence
// algorithm's scaling.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "analysis/coalescence.hpp"
#include "analysis/dataset.hpp"
#include "logger/records.hpp"
#include "obs/trace.hpp"
#include "simkernel/event_queue.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/kernel.hpp"

namespace {

using namespace symfail;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng{1};
    for (auto _ : state) {
        sim::EventQueue queue;
        for (std::size_t i = 0; i < n; ++i) {
            queue.schedule(sim::TimePoint::fromMicros(
                               static_cast<std::int64_t>(rng.nextU64() % 1'000'000)),
                           []() {});
        }
        while (!queue.empty()) {
            benchmark::DoNotOptimize(queue.pop());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Range(1'024, 262'144);

// Schedules n events, cancels every other one, then pops the rest: the
// withdraw-a-pending-event pattern of AO dispatches and timers, at queue
// depths up to a large fleet's.
void BM_EventQueueCancel(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng{1};
    std::vector<sim::EventId> ids(n);
    for (auto _ : state) {
        sim::EventQueue queue;
        for (auto& id : ids) {
            id = queue.schedule(sim::TimePoint::fromMicros(
                                    static_cast<std::int64_t>(rng.nextU64() % 1'000'000)),
                                []() {});
        }
        for (std::size_t i = 0; i < n; i += 2) {
            benchmark::DoNotOptimize(queue.cancel(ids[i]));
        }
        while (!queue.empty()) {
            benchmark::DoNotOptimize(queue.pop());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueCancel)->Range(1'024, 262'144);

// One simulated hour of a 1 s event that re-arms itself after each firing,
// the way the monitor tick and the accounting sweep repeat.
std::uint64_t runSelfRearmingTicks(sim::Simulator& simulator) {
    std::uint64_t ticks = 0;
    std::function<void()> tick = [&]() {
        ++ticks;
        simulator.scheduleAfter(sim::Duration::seconds(1), [&tick]() { tick(); });
    };
    simulator.scheduleAfter(sim::Duration::seconds(1), [&tick]() { tick(); });
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));
    return ticks;
}

void BM_SimulatorPeriodicTicks(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulator simulator;
        benchmark::DoNotOptimize(runSelfRearmingTicks(simulator));
    }
    state.SetItemsProcessed(3'600 * state.iterations());
}
BENCHMARK(BM_SimulatorPeriodicTicks);

// Same workload with a null trace sink attached: the delta against
// BM_SimulatorPeriodicTicks is the whole per-dispatch observability cost
// when tracing is wired but discarded (acceptance: < 2%).
void BM_SimulatorPeriodicTicksNullSink(benchmark::State& state) {
    obs::NullTraceSink sink;
    for (auto _ : state) {
        sim::Simulator simulator;
        simulator.setTraceSink(&sink);
        benchmark::DoNotOptimize(runSelfRearmingTicks(simulator));
    }
    state.SetItemsProcessed(3'600 * state.iterations());
}
BENCHMARK(BM_SimulatorPeriodicTicksNullSink);

void BM_ActiveObjectDispatch(benchmark::State& state) {
    sim::Simulator simulator;
    symbos::Kernel kernel{simulator};
    const auto pid = kernel.createProcess("bench", symbos::ProcessKind::UserApp);
    auto& scheduler = kernel.schedulerOf(pid);
    std::uint64_t ran = 0;
    symbos::FunctionAo ao{scheduler, "bench-ao",
                          [&](symbos::ExecContext&, int) { ++ran; }};
    for (auto _ : state) {
        ao.setActive();
        scheduler.complete(ao, 0);
        simulator.runAll();
    }
    benchmark::DoNotOptimize(ran);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActiveObjectDispatch);

void BM_PanicRecordSerialize(benchmark::State& state) {
    logger::PanicRecord record;
    record.time = sim::TimePoint::fromMicros(123'456'789);
    record.panic = symbos::kKernExecAccessViolation;
    record.runningApps = {"Messages", "Camera", "Clock"};
    record.activity = logger::ActivityContext::VoiceCall;
    record.batteryPercent = 73;
    for (auto _ : state) {
        benchmark::DoNotOptimize(logger::serialize(record));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PanicRecordSerialize);

void BM_LogFileParse(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::string content;
    logger::PanicRecord record;
    record.time = sim::TimePoint::fromMicros(1'000'000);
    record.panic = symbos::kUserDesOverflow;
    record.runningApps = {"Messages"};
    record.batteryPercent = 50;
    for (std::size_t i = 0; i < n; ++i) {
        content += logger::serialize(record);
        content += '\n';
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(logger::parseLogFile(content));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_LogFileParse)->Range(256, 16'384);

void BM_Coalescence(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    // Build a synthetic dataset: n panics and n/4 HL events on one phone.
    std::string logContent;
    sim::Rng rng{3};
    for (std::size_t i = 0; i < n; ++i) {
        logger::PanicRecord record;
        record.time = sim::TimePoint::fromMicros(
            static_cast<std::int64_t>(rng.nextU64() % 86'400'000'000ULL));
        record.panic = symbos::kKernExecAccessViolation;
        record.batteryPercent = 50;
        logContent += logger::serialize(record);
        logContent += '\n';
    }
    for (std::size_t i = 0; i < n / 4 + 1; ++i) {
        logger::BootRecord boot;
        boot.prior = logger::PriorShutdown::Freeze;
        boot.lastBeatAt = sim::TimePoint::fromMicros(
            static_cast<std::int64_t>(rng.nextU64() % 86'400'000'000ULL));
        boot.time = boot.lastBeatAt + sim::Duration::seconds(90);
        logContent += logger::serialize(boot);
        logContent += '\n';
    }
    const auto dataset =
        analysis::LogDataset::build({analysis::PhoneLog{"bench", logContent}});
    const analysis::ShutdownDiscriminator discriminator;
    const auto classification = discriminator.classify(dataset);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::coalesce(dataset, classification, 300.0));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Coalescence)->Range(256, 8'192);

void BM_RngDraws(benchmark::State& state) {
    sim::Rng rng{9};
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.lognormalMedian(80.0, 0.5));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

}  // namespace

BENCHMARK_MAIN();
