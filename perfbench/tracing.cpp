#include "tracing.h"

#include <memory>
#include <mutex>

namespace perfbench {

using namespace ptl;

LayerTotals &
layerTotals()
{
    static LayerTotals totals;
    return totals;
}

namespace {

/** Adds the ticks spent in its scope to one layer's totals. */
class TickScope
{
  public:
    TickScope(U64 &calls, U64 &ticks)
        : calls_(calls), ticks_(ticks), start_(traceTicks())
    {
    }
    ~TickScope()
    {
        ticks_ += traceTicks() - start_;
        calls_++;
    }

  private:
    U64 &calls_;
    U64 &ticks_;
    U64 start_;
};

/**
 * Forwards every SystemInterface call to the machine's hypervisor and
 * times the two that enter it from guest code: the hypercall gate and
 * the ptlcall breakout. readTsc / vcpuBlock / the SMC queries are thin
 * accessors that run on hot store paths; they are forwarded untimed.
 */
class TracingSystem : public SystemInterface
{
  public:
    explicit TracingSystem(SystemInterface &inner) : inner_(inner) {}

    U64
    hypercall(Context &ctx, U64 nr, U64 a1, U64 a2, U64 a3) override
    {
        LayerTotals &t = layerTotals();
        TickScope span(t.sys_calls, t.sys_ticks);
        return inner_.hypercall(ctx, nr, a1, a2, a3);
    }

    U64
    ptlcall(Context &ctx, U64 op, U64 arg1, U64 arg2) override
    {
        LayerTotals &t = layerTotals();
        TickScope span(t.sys_calls, t.sys_ticks);
        return inner_.ptlcall(ctx, op, arg1, arg2);
    }

    U64 readTsc(const Context &ctx) override { return inner_.readTsc(ctx); }
    void vcpuBlock(Context &ctx) override { inner_.vcpuBlock(ctx); }
    void notifyCodeWrite(Pfn mfn) override { inner_.notifyCodeWrite(mfn); }
    bool isCodeMfn(Pfn mfn) const override { return inner_.isCodeMfn(mfn); }

  private:
    SystemInterface &inner_;
};

/** Forwards every CoreModel call to a real core and times cycle(). */
class TracingCore : public CoreModel
{
  public:
    TracingCore(const std::string &inner_name, const CoreBuildParams &params)
        : sys_(*params.sys)
    {
        CoreBuildParams p = params;
        p.sys = &sys_;
        inner_ = createCoreModel(inner_name, p);
    }

    void
    cycle(SimCycle now) override
    {
        LayerTotals &t = layerTotals();
        TickScope span(t.core_calls, t.core_ticks);
        inner_->cycle(now);
    }

    void
    attachAuditor(std::unique_ptr<CoreAuditor> auditor) override
    {
        inner_->attachAuditor(std::move(auditor));
    }
    bool allIdle() const override { return inner_->allIdle(); }
    SimCycle
    sleepUntil(SimCycle now) const override
    {
        return inner_->sleepUntil(now);
    }
    void flushPipeline() override { inner_->flushPipeline(); }
    void flushTlbs() override { inner_->flushTlbs(); }
    void resetTimebase(SimCycle now) override { inner_->resetTimebase(now); }
    void resetMicroarch(SimCycle now) override { inner_->resetMicroarch(now); }
    std::string name() const override { return inner_->name(); }
    std::string debugState() const override { return inner_->debugState(); }

  private:
    TracingSystem sys_;   // declared first: the inner core points at it
    std::unique_ptr<CoreModel> inner_;
};

}  // namespace

std::string
tracedCoreName(const std::string &inner)
{
    return "perfbench." + inner;
}

void
registerTracingCores()
{
    static std::once_flag once;
    std::call_once(once, [] {
        for (const char *inner : {"ooo", "seq"}) {
            std::string name = inner;
            registerCoreModel(tracedCoreName(name),
                              [name](const CoreBuildParams &p) {
                                  return std::make_unique<TracingCore>(
                                      name, p);
                              });
        }
    });
}

}  // namespace perfbench
