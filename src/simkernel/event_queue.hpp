// Pending-event set for the discrete-event simulator.
//
// One ordered map keyed on (time, sequence number): events scheduled for
// the same instant fire in scheduling order, which deterministic replay
// requires.  An EventId is the event's key, so cancel() is a single erase
// and pop() extracts the first node.  Fired, cancelled, default and
// fabricated ids all miss the erase, so cancel() reports them as false.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "simkernel/time.hpp"

namespace symfail::sim {

/// Handle identifying a scheduled event: its (time, seq) key.  Sequence
/// numbers start at 1, so a default-constructed id matches no event.
struct EventId {
    TimePoint at;
    std::uint64_t seq{0};
    [[nodiscard]] bool valid() const { return seq != 0; }
    friend bool operator==(EventId, EventId) = default;
};

/// Time-ordered pending-event set.
class EventQueue {
public:
    using Action = std::function<void()>;

    /// Schedules `action` at `at`; returns a handle usable with cancel().
    /// `category` must be a static string (or nullptr): it labels the event
    /// for tracing/profiling and is stored by pointer, never copied.
    EventId schedule(TimePoint at, Action action, const char* category = nullptr) {
        const EventId id{at, nextSeq_++};
        pending_.try_emplace(Key{id.at, id.seq}, Pending{std::move(action), category});
        return id;
    }

    /// Cancels a pending event.  Returns false if the event already fired,
    /// was already cancelled, or the id is unknown.
    bool cancel(EventId id) { return pending_.erase(Key{id.at, id.seq}) == 1; }

    [[nodiscard]] bool empty() const { return pending_.empty(); }
    [[nodiscard]] std::size_t size() const { return pending_.size(); }

    /// Approximate heap footprint of the pending-event set: one tree node
    /// (four pointer-sized link/colour words plus the entry) per pending
    /// event.  Derived from the container size only (no allocator
    /// introspection), so identical schedules yield identical values within
    /// one binary.  Closures that spill past std::function's inline buffer
    /// are not counted.
    [[nodiscard]] std::size_t approxBytes() const {
        return pending_.size() * (4 * sizeof(void*) + sizeof(Map::value_type));
    }

    /// Time of the earliest pending event, if any.
    [[nodiscard]] std::optional<TimePoint> nextTime() const {
        if (pending_.empty()) return std::nullopt;
        return pending_.begin()->first.first;
    }

    /// Removes and returns the earliest pending event.  Precondition:
    /// !empty().
    struct Fired {
        TimePoint at;
        Action action;
        const char* category{nullptr};
    };
    Fired pop() {
        assert(!pending_.empty());
        auto node = pending_.extract(pending_.begin());
        return Fired{node.key().first, std::move(node.mapped().action),
                     node.mapped().category};
    }

private:
    using Key = std::pair<TimePoint, std::uint64_t>;
    struct Pending {
        Action action;
        const char* category{nullptr};
    };
    using Map = std::map<Key, Pending>;

    Map pending_;
    std::uint64_t nextSeq_{1};
};

}  // namespace symfail::sim
