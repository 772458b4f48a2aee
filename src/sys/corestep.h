/**
 * @file
 * The cycle loop shared by Machine and BareMachine.
 *
 * Section 2.2: "the simulator control logic automatically advances
 * each core by one cycle in round robin order." That stays the rule
 * for every cycle in which some core can act. A cycle in which no
 * core can act costs nothing simulated, so the loop does not pay host
 * time for it either: after each cycle it asks every core how long it
 * will stay quiet (CoreModel::sleepUntil) and, when all of them agree
 * the next cycles change nothing, jumps the clock to the earliest
 * answer in one step. Each core then accounts for the span it slept
 * through (CoreModel::skipCycles), so every simulated count and stamp
 * comes out as a cycle-by-cycle run leaves it.
 */

#ifndef PTLSIM_SYS_CORESTEP_H_
#define PTLSIM_SYS_CORESTEP_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/coreapi.h"
#include "sys/timekeeper.h"

namespace ptl {

/**
 * Advance `cores` from `time.cycle()` while the clock is below
 * `horizon()` and `idle()` is false.
 *
 *  - `horizon()` is the first cycle the caller must see before any
 *    core runs it (a deadline, the event queue head). It is read again
 *    after each cycle, since a core can schedule an event as it runs.
 *  - `idle()` is true once every VCPU is blocked; the jump never runs
 *    then, so the caller's own idle handling (which alone decides that
 *    a domain has stalled) keeps that case.
 *  - `account(n)` hears of every span of `n` cycles just before the
 *    clock moves over it: 1 for an evaluated cycle, more for a jump.
 */
template <class Horizon, class Idle, class Account>
void
stepCores(const std::vector<std::unique_ptr<CoreModel>> &cores,
          TimeKeeper &time, Horizon &&horizon, Idle &&idle,
          Account &&account)
{
    SimCycle limit = horizon();
    if (time.cycle() >= limit || idle())
        return;
    for (;;) {
        const SimCycle now = time.cycle();
        account(cycles(1));
        for (const auto &core : cores)
            core->cycle(now);
        time.tick();

        limit = horizon();
        const SimCycle next = time.cycle();
        if (next >= limit || idle())
            return;
        SimCycle target = limit;
        for (const auto &core : cores)
            target = std::min(target, core->sleepUntil(next));
        if (target > next) {
            const CycleDelta n = target - next;
            account(n);
            for (const auto &core : cores)
                core->skipCycles(next, n);
            time.advance(n);
            // Quiet cycles wake no VCPU: only the horizon ends them.
            if (target == limit)
                return;
        }
    }
}

}  // namespace ptl

#endif  // PTLSIM_SYS_CORESTEP_H_
