// Shared helpers for the reproduction benches: every bench regenerates its
// table/figure from a fresh, deterministic full-scale campaign (25 phones,
// 14 months) unless it sweeps a parameter.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/render.hpp"
#include "core/study.hpp"
#include "obs/accountant.hpp"  // readPeakRssBytes
#include "obs/file.hpp"
#include "obs/trace.hpp"       // appendJsonEscaped

namespace symfail::bench::detail {

/// Process-wide heap counters fed by the replacement operator new below.
/// Relaxed atomics: the counts only need to be consistent at report time.
inline std::atomic<std::uint64_t> heapAllocs{0};
inline std::atomic<std::uint64_t> heapBytes{0};

}  // namespace symfail::bench::detail

// Counting replacement allocator: every bench binary includes this header
// exactly once, so replacing the global (unaligned) new/delete here is
// well-defined and gives each bench allocation-count and allocated-byte
// telemetry for free.  Over-aligned allocations keep the default operators.
// noinline keeps the malloc/free bodies opaque at call sites, which would
// otherwise trip -Wmismatched-new-delete when only one side is inlined.
#if defined(__GNUC__) || defined(__clang__)
#define SYMFAIL_BENCH_NOINLINE __attribute__((noinline))
#else
#define SYMFAIL_BENCH_NOINLINE
#endif
SYMFAIL_BENCH_NOINLINE void* operator new(std::size_t size) {
    symfail::bench::detail::heapAllocs.fetch_add(1, std::memory_order_relaxed);
    symfail::bench::detail::heapBytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
SYMFAIL_BENCH_NOINLINE void* operator new[](std::size_t size) {
    return ::operator new(size);
}
SYMFAIL_BENCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SYMFAIL_BENCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
SYMFAIL_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
SYMFAIL_BENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}

namespace symfail::bench {

/// Machine-readable bench results.  Every bench_* binary accepts
/// `--json FILE`: the human-readable report still goes to stdout, and the
/// named scalar results land in FILE as one JSON document
/// ({"bench": "...", "metrics": {"name": value, ...}}), so CI can diff or
/// plot bench output without scraping printf text.
class JsonReporter {
public:
    JsonReporter(int argc, char** argv, std::string benchName)
        : benchName_{std::move(benchName)} {
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::string_view{argv[i]} == "--json") path_ = argv[i + 1];
        }
    }

    [[nodiscard]] bool enabled() const { return !path_.empty(); }

    void add(std::string_view name, double value) {
        metrics_.emplace_back(std::string{name}, value);
    }

    /// Writes the document; no-op without --json.  Throws on I/O failure.
    /// Besides the bench's own metrics, every document carries the host
    /// capacity columns: peak_rss_mb (VmHWM), heap_allocs and
    /// heap_alloc_mb (from the counting allocator above).  Machine- and
    /// allocator-specific — compare trends, not exact values.
    void write() const {
        if (!enabled()) return;
        std::string out = "{\"bench\":\"";
        obs::appendJsonEscaped(out, benchName_);
        out += "\",\"metrics\":{";
        bool first = true;
        auto metrics = metrics_;
        metrics.emplace_back(
            "peak_rss_mb",
            static_cast<double>(obs::readPeakRssBytes()) / (1024.0 * 1024.0));
        metrics.emplace_back(
            "heap_allocs", static_cast<double>(detail::heapAllocs.load(
                               std::memory_order_relaxed)));
        metrics.emplace_back(
            "heap_alloc_mb",
            static_cast<double>(
                detail::heapBytes.load(std::memory_order_relaxed)) /
                (1024.0 * 1024.0));
        for (const auto& [name, value] : metrics) {
            if (!first) out += ',';
            first = false;
            out += '"';
            obs::appendJsonEscaped(out, name);
            out += "\":";
            char buf[48];
            std::snprintf(buf, sizeof buf, "%.10g", value);
            out += buf;
        }
        out += "}}\n";
        obs::writeFile(path_, out);
        std::printf("wrote bench results to %s\n", path_.c_str());
    }

private:
    std::string benchName_;
    std::string path_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/// Runs the default paper-scale campaign and pipeline.
inline core::FieldStudyResults runDefaultFieldStudy() {
    core::StudyConfig config;
    const core::FailureStudy study{config};
    return study.runFieldStudy();
}

/// A reduced campaign for parameter sweeps that re-run the simulation
/// (rates scaled up so short campaigns still see enough events).
inline fleet::FleetConfig sweepFleetConfig(std::uint64_t seed) {
    fleet::FleetConfig config;
    config.phoneCount = 8;
    config.campaign = sim::Duration::days(60);
    config.enrollmentWindow = sim::Duration::days(10);
    config.seed = seed;
    config.freezesPerHour *= 6.0;
    config.selfShutdownsPerHour *= 6.0;
    config.panicsPerHour *= 6.0;
    return config;
}

}  // namespace symfail::bench
