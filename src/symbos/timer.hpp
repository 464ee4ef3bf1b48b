// Asynchronous timer service (Symbian's RTimer).
//
// An RTimer delivers a completion to an active object at a requested time.
// Requesting a second event while one is outstanding panics with
// E32USER-CBase 15 ("timer event already outstanding").
//
// The fire and the AO dispatch are one simulator event (`symbos.ao`): the
// timer's event runs RunL directly through ActiveScheduler::completeNow,
// so a periodic AO costs one event per tick.  AOs due at the same instant
// run in the (time, seq) order their timers were armed in.
#pragma once

#include "simkernel/simulator.hpp"
#include "symbos/active.hpp"

namespace symfail::symbos {

/// Timer request source bound to one active object.
class RTimer {
public:
    explicit RTimer(ActiveObject& client)
        : client_{&client},
          simulator_{&client.scheduler().kernel().simulator()} {}
    ~RTimer() { cancel(); }
    RTimer(const RTimer&) = delete;
    RTimer& operator=(const RTimer&) = delete;

    /// Requests a completion `delay` from now (RTimer::After).  Panics
    /// E32USER-CBase 15 when a request is already outstanding.
    void after(const ExecContext& ctx, sim::Duration delay);

    /// Requests a completion at an absolute time (RTimer::At).  Panics
    /// E32USER-CBase 15 when a request is already outstanding.
    void at(const ExecContext& ctx, sim::TimePoint when);

    /// Cancels the outstanding request, if any; the client completes with
    /// KErrCancel semantics via ActiveObject::cancel (callers follow the
    /// Symbian idiom of cancelling the AO, which invokes DoCancel).
    void cancel();

    [[nodiscard]] bool outstanding() const { return outstanding_; }

private:
    void arm(const ExecContext& ctx, sim::TimePoint when);

    ActiveObject* client_;
    sim::Simulator* simulator_;
    bool outstanding_{false};
    sim::EventId pending_{};
};

}  // namespace symfail::symbos
