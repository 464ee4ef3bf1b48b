// Tests for the fleet campaign driver and the collection server.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fleet/collection.hpp"
#include "fleet/fleet.hpp"
#include "logger/records.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"
#include "transport/upload_agent.hpp"

namespace symfail::fleet {
namespace {

/// A parseable Log File with `boots` boot records.
std::string logWithBoots(int boots) {
    std::string content;
    content += logger::serialize(
                   logger::MetaRecord{sim::TimePoint::fromMicros(0), "8.0"}) +
               "\n";
    for (int i = 0; i < boots; ++i) {
        logger::BootRecord boot;
        boot.time = sim::TimePoint::fromMicros((i + 1) * 1'000'000);
        boot.prior = logger::PriorShutdown::Reboot;
        boot.lastBeatAt = sim::TimePoint::fromMicros((i + 1) * 1'000'000 - 100);
        content += logger::serialize(boot) + "\n";
    }
    return content;
}

TEST(FleetPlan, ExpectedHoursUnderStaggeredEnrollment) {
    FleetConfig config;
    config.phoneCount = 2;
    config.campaign = sim::Duration::days(100);
    config.enrollmentWindow = sim::Duration::days(40);
    // Joins at 10 and 30 days: observed 90 + 70 = 160 days.
    EXPECT_NEAR(expectedObservedHours(config), 160.0 * 24.0, 1.0);
}

TEST(FleetPlan, TargetsScaleWithRates) {
    FleetConfig config;
    const auto plan = derivePlan(config);
    const double wallHours = expectedObservedHours(config);
    EXPECT_NEAR(plan.targetFreezes, wallHours / 313.0, 1.0);
    EXPECT_NEAR(plan.targetSelfShutdowns, wallHours / 250.0, 1.0);
    EXPECT_NEAR(plan.targetPanics, wallHours * 396.0 / 112'680.0, 1.0);
    EXPECT_NEAR(plan.expectedOnHours, wallHours * config.assumedOnFraction, 1.0);
    EXPECT_GT(plan.expectedCalls, 0.0);
}

TEST(FleetCampaign, SmallRunProducesAllArtifacts) {
    FleetConfig config;
    config.phoneCount = 3;
    config.campaign = sim::Duration::days(25);
    config.enrollmentWindow = sim::Duration::days(6);
    config.seed = 5;
    config.freezesPerHour *= 8.0;
    config.selfShutdownsPerHour *= 8.0;
    config.panicsPerHour *= 8.0;
    const auto result = runCampaign(config);

    ASSERT_EQ(result.logs.size(), 3u);
    ASSERT_EQ(result.truths.size(), 3u);
    EXPECT_EQ(result.phoneNames.size(), 3u);
    for (const auto& log : result.logs) {
        EXPECT_FALSE(log.logFileContent.empty());
    }
    EXPECT_GT(result.panicsInjected, 5u);
    EXPECT_GT(result.totalBoots, 10u);
    EXPECT_GT(result.simulatorEvents, 10'000u);

    const auto truthMap = result.truthMap();
    EXPECT_EQ(truthMap.size(), 3u);
    EXPECT_NE(truthMap.find("phone-0"), truthMap.end());
}

TEST(FleetCampaign, VersionPoolAssigned) {
    FleetConfig config;
    config.phoneCount = 6;
    config.campaign = sim::Duration::days(2);
    config.enrollmentWindow = sim::Duration::days(1);
    const auto result = runCampaign(config);
    EXPECT_EQ(result.phoneNames.size(), 6u);
}

TEST(CollectionServer, PhoneDeathMidCampaignLeavesPartialLogOnServer) {
    // The phone uploads for two days of a ten-day campaign, then drops off
    // the network for good (lost, bricked, study drop-out): its data
    // channel is down from then to campaign end, so nothing it sends
    // reaches the server again.  Everything uploaded before the death must
    // survive and stay analyzable.
    const auto origin = sim::TimePoint::origin();
    sim::Simulator simulator;
    CollectionServer server;
    transport::ChannelConfig dataConfig = transport::ChannelConfig::gprs();
    dataConfig.lossProb = 0.0;  // the outage is the only loss
    dataConfig.outages.push_back(transport::OutageWindow{
        origin + sim::Duration::days(2) + sim::Duration::hours(3),
        origin + sim::Duration::days(10)});
    transport::UploadPolicy policy;
    policy.uploadPeriod = sim::Duration::hours(6);

    // Destruction order as in runCampaign: the device (declared last,
    // destroyed first) runs its power-down hooks while the logger and the
    // agent are still alive.
    std::unique_ptr<logger::FailureLogger> loggerApp;
    std::unique_ptr<transport::Channel> dataChannel;
    std::unique_ptr<transport::Channel> ackChannel;
    std::unique_ptr<transport::UploadAgent> agent;
    std::unique_ptr<phone::PhoneDevice> device;
    phone::PhoneDevice::Config config;
    config.name = "doomed";
    config.seed = 91;
    device = std::make_unique<phone::PhoneDevice>(simulator, config);
    loggerApp = std::make_unique<logger::FailureLogger>(*device);
    dataChannel = std::make_unique<transport::Channel>(simulator, dataConfig, 92);
    ackChannel = std::make_unique<transport::Channel>(
        simulator, transport::ChannelConfig::bluetooth(), 93);
    agent = std::make_unique<transport::UploadAgent>(*device, *loggerApp, *dataChannel,
                                                     *ackChannel, policy, 94);
    dataChannel->setReceiver([&server, &ackChannel](const std::string& bytes) {
        const auto ingest = server.ingestFrame(bytes);
        if (ingest.ack) ackChannel->send(transport::encodeAck(*ingest.ack));
    });
    device->powerOn();
    simulator.runUntil(origin + sim::Duration::days(10));

    EXPECT_GT(dataChannel->stats().outageDrops, 0u);
    const auto logs = server.collectedLogs();
    ASSERT_EQ(logs.size(), 1u);
    // The server's copy is a strict prefix of the phone's log: real
    // content, but less than the phone accumulated over the remaining
    // eight days.
    const std::string& delivered = logs[0].logFileContent;
    const std::string& truth = loggerApp->logFileContent();
    EXPECT_FALSE(delivered.empty());
    EXPECT_LT(delivered.size(), truth.size());
    EXPECT_EQ(truth.compare(0, delivered.size(), delivered), 0)
        << "the server must hold a prefix of the phone's log";
    const auto dataset = analysis::LogDataset::build(logs);
    EXPECT_GE(dataset.bootCount(), 1u);
    EXPECT_EQ(dataset.malformedLines(), 0u);
}

TEST(CollectionServer, InterleavedChunkUploadsFrom25Phones) {
    // 25 phones' segments arrive interleaved (round-robin, each phone's
    // frames in reverse order) — per-phone chunk maps must never mix.
    const int phoneCountTotal = 25;
    std::vector<std::string> names;
    std::vector<std::string> contents;
    std::vector<std::vector<transport::Frame>> frames;
    std::size_t maxFrames = 0;
    for (int i = 0; i < phoneCountTotal; ++i) {
        names.push_back("phone-" + std::to_string(i));
        contents.push_back(logWithBoots(2 + (i % 7)));
        frames.push_back(transport::chunkLogContent(names.back(), contents.back(), 96));
        maxFrames = std::max(maxFrames, frames.back().size());
    }

    CollectionServer server;
    for (std::size_t round = 0; round < maxFrames; ++round) {
        for (int i = 0; i < phoneCountTotal; ++i) {
            const auto& list = frames[static_cast<std::size_t>(i)];
            if (round >= list.size()) continue;
            const auto& frame = list[list.size() - 1 - round];  // reverse order
            const auto ack = server.ingestFrame(transport::encodeFrame(frame)).ack;
            ASSERT_TRUE(ack.has_value());
            EXPECT_EQ(ack->phone, frame.phone);
        }
    }

    EXPECT_EQ(server.reassembler().phones().size(), 25u);
    const auto logs = server.collectedLogs();
    ASSERT_EQ(logs.size(), 25u);
    for (int i = 0; i < phoneCountTotal; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        EXPECT_DOUBLE_EQ(server.reassembler().coverage(names[idx]), 1.0);
        // collectedLogs is sorted by phone name; find by name instead.
        const auto it = std::find_if(logs.begin(), logs.end(),
                                     [&](const analysis::PhoneLog& log) {
                                         return log.phoneName == names[idx];
                                     });
        ASSERT_NE(it, logs.end());
        EXPECT_EQ(it->logFileContent, contents[idx]);
    }
}

}  // namespace
}  // namespace symfail::fleet
