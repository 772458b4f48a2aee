/**
 * @file
 * The pluggable core-model interface.
 *
 * Section 2.2: "Models can be added as plug-ins by simply registering a
 * C++ class with PTLsim and recompiling. ... multiple core instances
 * can operate in parallel; the simulator control logic automatically
 * advances each core by one cycle in round robin order." The machine
 * (src/sys/machine.*) instantiates one CoreModel per physical core from
 * this registry and ticks them round-robin.
 */

#ifndef PTLSIM_CORE_COREAPI_H_
#define PTLSIM_CORE_COREAPI_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/interlock.h"
#include "decode/bbcache.h"
#include "lib/config.h"
#include "mem/coherence.h"
#include "stats/stats.h"

namespace ptl {

class MemoryHierarchy;

/** Everything a core model needs to build itself. */
struct CoreBuildParams
{
    const SimConfig *config = nullptr;
    std::vector<Context *> contexts;   ///< VCPUs mapped onto this core
    AddressSpace *aspace = nullptr;
    BasicBlockCache *bbcache = nullptr;
    SystemInterface *sys = nullptr;
    StatsTree *stats = nullptr;
    std::string prefix;                ///< stats path prefix ("core0/")
    CoherenceController *coherence = nullptr;  ///< nullptr if single core
    InterlockController *interlocks = nullptr;
    /** This core's memory hierarchy (TLBs + caches + backend),
     *  assembled and owned by the machine builder — cores keep only
     *  this narrow handle, so the cache/memory composition is decided
     *  at machine-assembly level, not inside each core model.
     *  Required: core constructors assert it is non-null. */
    MemoryHierarchy *hierarchy = nullptr;
    /** Machine-assigned core index, unique within this Machine. It
     *  feeds the interlock owner encoding, so the assembler (Machine
     *  or test harness) must keep it distinct per core sharing an
     *  InterlockController. Assigned here rather than drawn from a
     *  process-wide counter so core identity is a pure function of
     *  machine assembly, not of construction history. */
    int core_id = 0;
};

class OooCore;

/**
 * An external per-cycle auditor of a core's microarchitectural state.
 * The concrete implementation (src/verify's InvariantChecker) lives
 * *above* the core layer; the core only holds this interface, so the
 * dependency points downward: verify implements a core-owned contract
 * instead of the core reaching up into the verification subsystem.
 * Whoever assembles the machine (src/sys, or a test harness) decides
 * whether to attach one.
 */
class CoreAuditor
{
  public:
    virtual ~CoreAuditor() = default;

    /** Audit one core's pipeline state; returns violations found. */
    virtual int checkCore(const OooCore &core, SimCycle now) = 0;

    /** Audit the coherence directory across all registered peers. */
    virtual int checkCoherence(const CoherenceController &coherence,
                               SimCycle now) = 0;
};

/** One simulated physical core (may host multiple SMT threads). */
class CoreModel
{
  public:
    virtual ~CoreModel() = default;

    /**
     * Hand the core an auditor to run on its per-cycle verify hook.
     * Passing nullptr detaches. Models without a verify hook ignore
     * the attachment (the default).
     */
    virtual void attachAuditor(std::unique_ptr<CoreAuditor> auditor)
    {
        (void)auditor;
    }

    /** Advance the core by one clock cycle. */
    virtual void cycle(SimCycle now) = 0;

    /** True when every hardware thread is blocked (hlt). */
    virtual bool allIdle() const = 0;

    /**
     * Earliest cycle at which this core needs to run again if no new
     * external event arrives: CYCLE_NEVER when idle, else the very
     * next cycle. Nothing in the simulator consults it (skip-ahead
     * lives inside OooCore::cycle(), and the machine's idle
     * fast-forward only runs once every VCPU is blocked); it stays
     * because perfbench/tracing.cpp's timing wrapper forwards it.
     */
    virtual SimCycle
    sleepUntil(SimCycle now) const
    {
        return allIdle() ? CYCLE_NEVER : now;
    }

    /** Squash all in-flight state (SMC, external invalidation,
     *  native-mode transitions). */
    virtual void flushPipeline() = 0;

    /** CR3 reload: drop cached translations (no ASIDs on this x86). */
    virtual void flushTlbs() {}

    /**
     * Virtual time just moved discontinuously (checkpoint restore can
     * roll it backwards). Any absolute-cycle bookkeeping — stall
     * windows, fetch backoffs, commit watchdogs — must be re-based to
     * `now`, or a stale future stamp from before the warp silently
     * parks the core until wall-clock catches back up.
     */
    virtual void resetTimebase(SimCycle now) { (void)now; }

    /**
     * Forget every microarchitectural warm-up artifact: in-flight
     * pipeline state, TLB and cache tags, branch-predictor tables,
     * and absolute-cycle timing stamps. Checkpoint capture and
     * restore both quiesce cores through this, so the continuation
     * of a just-captured run and a later restore of that checkpoint
     * resume from the identical (architectural + cold-microarch)
     * state — which is what makes a round trip cycle-exact even
     * though cache/predictor contents are never serialized.
     */
    virtual void
    resetMicroarch(SimCycle now)
    {
        flushPipeline();
        flushTlbs();
        resetTimebase(now);
    }

    virtual std::string name() const = 0;

    /** Human-readable pipeline state (debugging aid, PTLsim-style). */
    virtual std::string debugState() const { return ""; }
};

using CoreFactory =
    std::function<std::unique_ptr<CoreModel>(const CoreBuildParams &)>;

/** Register a core model under `name` (call at static-init time). */
void registerCoreModel(const std::string &name, CoreFactory factory);

/** Instantiate a registered core model; fatal() on unknown name. */
std::unique_ptr<CoreModel> createCoreModel(const std::string &name,
                                           const CoreBuildParams &params);

/** Helper object whose constructor registers a model. */
struct CoreModelRegistration
{
    CoreModelRegistration(const std::string &name, CoreFactory factory)
    {
        registerCoreModel(name, std::move(factory));
    }
};

}  // namespace ptl

#endif  // PTLSIM_CORE_COREAPI_H_
