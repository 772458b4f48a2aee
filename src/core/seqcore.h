/**
 * @file
 * The uop-level functional engine and the in-order sequential core.
 *
 * PTLsim is an integrated simulator: one definition of uop semantics
 * feeds every execution engine. FunctionalEngine executes whole x86
 * instructions (uop sequence per instruction, atomically committed,
 * with precise fault delivery and event injection between
 * instructions). It backs:
 *
 *  - the sequential in-order core model ("seq") used for rapid testing
 *    and microcode debugging (Section 2.2);
 *  - native-mode execution (Section 2.3) — full speed, no timing
 *    structures — in src/native;
 *  - the reference half of co-simulation / commit checking;
 *  - the "k8-native" reference-machine trial of Table 1, where it runs
 *    with profiling attached to real-K8-fidelity TLB/cache/predictor
 *    structure models.
 */

#ifndef PTLSIM_CORE_SEQCORE_H_
#define PTLSIM_CORE_SEQCORE_H_

#include <memory>

#include "branch/predictor.h"
#include "core/coreapi.h"
#include "mem/hierarchy.h"

namespace ptl {

class FunctionalEngine
{
  public:
    FunctionalEngine(Context &ctx, AddressSpace &aspace,
                     BasicBlockCache &bbcache, SystemInterface &sys,
                     StatsTree &stats, const std::string &prefix);

    /**
     * Attach structure models: every load/store then exercises the
     * hierarchy's TLBs/caches and every branch trains the predictor,
     * without changing functional behaviour.
     */
    void attachProfiling(MemoryHierarchy *hierarchy,
                         BranchPredictor *predictor);

    struct StepResult
    {
        int insns = 0;              ///< x86 instructions completed
        int uops = 0;
        CycleDelta mem_stall;       ///< profiling-estimated stall cycles
        bool idle = false;          ///< VCPU is blocked (hlt)
        bool blocked_now = false;   ///< this step executed hlt
        bool event_delivered = false;
        GuestFault fault_delivered = GuestFault::None;
    };

    /**
     * Deliver a pending event if possible, otherwise execute exactly
     * one x86 instruction (committing atomically). `now` is used only
     * for profiling-mode cache timing.
     */
    StepResult stepInsn(SimCycle now = SimCycle(0));

    /** Forget the cached block position (after external RIP changes). */
    void reposition();

    /**
     * The next uop stepInsn() would execute, or nullptr if the decode
     * position cannot be (re)acquired without faulting. Re-acquires
     * the cached block exactly as stepInsn() would; used by the OoO
     * core's lockstep checker to recognize pseudo-op re-executions.
     */
    const Uop *peekUop();

    Context &context() { return *ctx; }

  private:
    struct PendingWrite
    {
        GuestVirt va;
        U64 value;
        U8 size;
        bool locked;
    };

    U64 readReg(int reg) const;
    U16 readFlags(int reg) const;

    Context *ctx;
    AddressSpace *aspace;
    BasicBlockCache *bbcache;
    SystemInterface *sys;
    MemoryHierarchy *hier = nullptr;
    BranchPredictor *bp = nullptr;

    // Per-register attached flags (the flags each producer left).
    U16 regflags[NUM_UOP_REGS] = {};

    // Per-instruction speculative state (committed at EOM). Flags are
    // tracked separately: only setflags-producing uops attach flags to
    // their destination (so value-only writers like mov/setcc never
    // clobber a producer's flags that a later consumer still names).
    bool pending_valid[NUM_UOP_REGS] = {};
    bool pending_hasflags[NUM_UOP_REGS] = {};
    U64 pending_value[NUM_UOP_REGS] = {};
    U16 pending_flags[NUM_UOP_REGS] = {};

    // Cached decode position.
    const BasicBlock *cur_bb = nullptr;
    size_t uop_idx = 0;
    U64 bb_generation = 0;

    Counter &st_insns;
    Counter &st_uops;
    Counter &st_k8ops;
    Counter &st_modeled_cycles;
    Counter &st_branches;
    Counter &st_cond_branches;
    Counter &st_mispredicts;
    Counter &st_indirect_branches;
    Counter &st_indirect_mispredicts;
    Counter &st_loads;
    Counter &st_stores;
    Counter &st_events;
    Counter &st_faults;
    Counter &st_assists;
};

/** The in-order sequential core model ("seq"). */
class SeqCore : public CoreModel
{
  public:
    explicit SeqCore(const CoreBuildParams &params);

    void cycle(SimCycle now) override;
    bool allIdle() const override;
    /** The earliest stall-window end over the running threads; `now`
     *  when a thread can step or none runs (the machine's idle
     *  fast-forward owns the all-blocked case). */
    SimCycle sleepUntil(SimCycle now) const override;
    /** A cycle in which every running thread stalls does nothing. */
    void skipCycles(SimCycle, CycleDelta) override {}
    void flushPipeline() override;
    void flushTlbs() override;
    void resetTimebase(SimCycle now) override;
    void resetMicroarch(SimCycle now) override;
    std::string name() const override { return "seq"; }

    FunctionalEngine &engine(int thread) { return *engines[thread]; }

  private:
    std::vector<Context *> contexts;
    std::vector<std::unique_ptr<FunctionalEngine>> engines;
    MemoryHierarchy *hierarchy;        ///< owned by the machine builder
    std::unique_ptr<BranchPredictor> predictor;
    std::vector<SimCycle> stall_until;
    size_t next_thread = 0;
};

}  // namespace ptl

#endif  // PTLSIM_CORE_SEQCORE_H_
