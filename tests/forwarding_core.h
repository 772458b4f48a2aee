/**
 * @file
 * Test-only forwarding cores: each wraps a real core model and passes
 * every CoreModel call through to it.
 *
 *  - "fwd.<model>" overrides neither sleepUntil() nor skipCycles(), so
 *    the machine's cycle loop never jumps a running core: it calls
 *    cycle() on every simulated cycle, as the loop did before it could
 *    jump. Results from it are the per-cycle reference.
 *  - "fwdjump.<model>" forwards those two as well, so the loop jumps
 *    exactly as it does for the bare model, and it tallies the cycles
 *    it was told to skip in forwardedSkips() — evidence that a run
 *    really took the jump.
 */

#ifndef PTLSIM_TESTS_FORWARDING_CORE_H_
#define PTLSIM_TESTS_FORWARDING_CORE_H_

#include <memory>
#include <mutex>
#include <string>

#include "core/coreapi.h"

namespace ptl {

/** Cycles handed to every "fwdjump.*" core's skipCycles() so far. */
inline U64 &
forwardedSkips()
{
    static U64 total = 0;
    return total;
}

class ForwardingCore : public CoreModel
{
  public:
    ForwardingCore(const std::string &inner, const CoreBuildParams &params)
        : inner_(createCoreModel(inner, params))
    {
    }

    void cycle(SimCycle now) override { inner_->cycle(now); }
    void
    attachAuditor(std::unique_ptr<CoreAuditor> auditor) override
    {
        inner_->attachAuditor(std::move(auditor));
    }
    bool allIdle() const override { return inner_->allIdle(); }
    void flushPipeline() override { inner_->flushPipeline(); }
    void flushTlbs() override { inner_->flushTlbs(); }
    void resetTimebase(SimCycle now) override { inner_->resetTimebase(now); }
    void resetMicroarch(SimCycle now) override { inner_->resetMicroarch(now); }
    std::string name() const override { return inner_->name(); }
    std::string debugState() const override { return inner_->debugState(); }

  protected:
    std::unique_ptr<CoreModel> inner_;
};

class JumpForwardingCore : public ForwardingCore
{
  public:
    using ForwardingCore::ForwardingCore;

    SimCycle
    sleepUntil(SimCycle now) const override
    {
        return inner_->sleepUntil(now);
    }
    void
    skipCycles(SimCycle from, CycleDelta n) override
    {
        forwardedSkips() += n.raw();
        inner_->skipCycles(from, n);
    }
};

/** Register "fwd.<m>" and "fwdjump.<m>" for the ooo, smt and seq
 *  models (idempotent). */
inline void
registerForwardingCores()
{
    static std::once_flag once;
    std::call_once(once, [] {
        for (std::string inner : {"ooo", "smt", "seq"}) {
            registerCoreModel("fwd." + inner,
                              [inner](const CoreBuildParams &p) {
                                  return std::make_unique<ForwardingCore>(
                                      inner, p);
                              });
            registerCoreModel("fwdjump." + inner,
                              [inner](const CoreBuildParams &p) {
                                  return std::make_unique<
                                      JumpForwardingCore>(inner, p);
                              });
        }
    });
}

}  // namespace ptl

#endif  // PTLSIM_TESTS_FORWARDING_CORE_H_
