// Benchmark-side spans.
//
// The benchmark brackets each call it makes into a symfail module with a
// span (name, start, end, parent, thread).  Spans live in memory for the
// whole run and are written once, when the run ends, so recording one
// costs a clock read and a vector append.  A disabled tracer records
// nothing: end-to-end numbers come from untraced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux).
inline std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double secondsBetween(std::int64_t startNs, std::int64_t endNs) {
    return static_cast<double>(endNs - startNs) / 1e9;
}

struct Span {
    std::string name;
    std::int64_t startNs{0};
    std::int64_t endNs{0};
    int parent{-1};  ///< Index of the enclosing span; -1 for a root.
    std::size_t thread{0};
};

/// Thread-safe in-memory span store.  Parents nest per thread; a span
/// opened on a worker thread names its parent explicitly.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_{enabled} {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Records a span (endNs 0 until close()); returns its index, or -1
    /// when disabled.
    int add(std::string name, std::int64_t startNs, std::int64_t endNs, int parent) {
        if (!enabled_) return -1;
        const std::lock_guard lock{mutex_};
        spans_.push_back(Span{std::move(name), startNs, endNs, parent,
                              std::hash<std::thread::id>{}(std::this_thread::get_id())});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int index, std::int64_t endNs) {
        if (index < 0) return;
        const std::lock_guard lock{mutex_};
        spans_[static_cast<std::size_t>(index)].endNs = endNs;
    }

    /// Copy of every span recorded so far.
    [[nodiscard]] std::vector<Span> spans() const {
        const std::lock_guard lock{mutex_};
        return spans_;
    }

    /// Writes the spans as one JSON document ({"spans":[...]}, span names
    /// are plain identifiers); false on I/O failure.
    [[nodiscard]] bool write(const std::string& path) const {
        std::ofstream out{path, std::ios::binary};
        out << "{\"spans\":[";
        const auto all = spans();
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Span& s = all[i];
            out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
                << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread << "}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.  Spans
/// opened while another ScopedSpan is alive on the same thread become its
/// children.  `seconds()` is measured whether or not the tracer records.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, const char* name)
        : tracer_{tracer}, parent_{current()}, startNs_{nowNs()} {
        index_ = tracer_.add(name, startNs_, 0, parent_);
        if (index_ >= 0) current() = index_;
    }
    ~ScopedSpan() { finish(); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /// Closes the span early; returns its duration in seconds.
    double finish() {
        if (endNs_ == 0) {
            endNs_ = nowNs();
            tracer_.close(index_, endNs_);
            if (index_ >= 0) current() = parent_;
        }
        return secondsBetween(startNs_, endNs_);
    }

    [[nodiscard]] int index() const { return index_; }
    [[nodiscard]] std::int64_t startNs() const { return startNs_; }

    /// The innermost open span on this thread (-1 when none).
    static int& current() {
        thread_local int open = -1;
        return open;
    }

private:
    Tracer& tracer_;
    int parent_;
    int index_{-1};
    std::int64_t startNs_;
    std::int64_t endNs_{0};
};

}  // namespace perfbench
