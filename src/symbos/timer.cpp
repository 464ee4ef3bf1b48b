#include "symbos/timer.hpp"

#include "symbos/err.hpp"

namespace symfail::symbos {

void RTimer::after(const ExecContext& ctx, sim::Duration delay) {
    arm(ctx, ctx.now() + delay);
}

void RTimer::at(const ExecContext& ctx, sim::TimePoint when) {
    arm(ctx, when);
}

void RTimer::arm(const ExecContext& ctx, sim::TimePoint when) {
    if (outstanding_) {
        ctx.panic(kCBaseTimerOutstanding,
                  "timer event requested while one is already outstanding");
    }
    outstanding_ = true;
    client_->setActive();
    const sim::Duration delay = when - simulator_->now();
    // The fire *is* the AO dispatch (one event per tick), so the event is
    // labelled for the RunL it runs.
    pending_ = simulator_->scheduleAfter(delay, "symbos.ao", [this]() {
        outstanding_ = false;
        pending_ = {};
        ActiveObject& client = *client_;
        if (client.detached()) return;  // process torn down meanwhile
        // RunL may destroy this timer (an OOM-killed daemon is torn down
        // inside it): nothing after the dispatch touches `this`.
        client.scheduler().completeNow(client, KErrNone);
    });
}

void RTimer::cancel() {
    if (!outstanding_) return;
    outstanding_ = false;
    if (pending_.valid()) {
        simulator_->cancel(pending_);
        pending_ = {};
    }
}

}  // namespace symfail::symbos
