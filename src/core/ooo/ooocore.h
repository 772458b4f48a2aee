/**
 * @file
 * The out-of-order superscalar core model (Section 2.2).
 *
 * "The default core model is a modern superscalar out of order design,
 * based on a combination of features from the Intel Pentium 4, AMD K8
 * and Intel Core 2." The structures modeled here:
 *
 *  - fetch of pre-decoded uops from the basic block cache, with
 *    I-TLB/I-cache timing charged per block and branch prediction at
 *    fetch (direction predictor, BTB, return address stack);
 *  - a frontend pipeline of configurable depth feeding rename;
 *  - register renaming onto physical register files (configurable
 *    count/size); each physical register carries its value *and* the
 *    condition flags it produced, with the ZAPS/CF/OF groups renamed
 *    independently (PTLsim's split-flags scheme);
 *  - clustered issue queues (e.g. the K8's three 8-entry integer lanes
 *    plus a 36-entry FP queue two cycles away) with oldest-first
 *    select, per-cluster issue width, and inter-cluster bypass delay;
 *  - a load/store queue with store-to-load forwarding by physical
 *    address, replay on partial overlaps / unresolved older stores
 *    (load hoisting configurable; the K8 preset disables it),
 *    L1D bank-conflict replays, MSHR back-pressure, and hardware
 *    page-walk latency injected on DTLB misses;
 *  - an interlock controller for LOCK-prefixed instructions shared by
 *    all threads and cores (Section 4.4);
 *  - atomic commit of x86 instructions (SOM/EOM groups), precise
 *    exceptions, microcode assists executed at the head of the ROB,
 *    and event (virtual interrupt) delivery at instruction boundaries;
 *  - misprediction recovery via per-branch RAT checkpoints;
 *  - an SMT mode: up to 16 hardware threads with per-thread fetch
 *    queues, ROBs, LDQ/STQ and rename state, sharing issue queues,
 *    functional units and the cache hierarchy, with round-robin or
 *    ICOUNT fetch policies and a deadlock-rescue flush (Section 2.2);
 *  - an optional commit-time checker that runs every committed x86
 *    instruction through the functional reference engine and compares
 *    architectural state (the TFSim-style self-validation the paper
 *    describes integrating).
 */

#ifndef PTLSIM_CORE_OOO_OOOCORE_H_
#define PTLSIM_CORE_OOO_OOOCORE_H_

#include <deque>
#include <memory>

#include "branch/predictor.h"
#include "core/coreapi.h"
#include "core/seqcore.h"
#include "mem/hierarchy.h"

namespace ptl {

class InvariantChecker;
struct VerifyTestHook;

class OooCore : public CoreModel
{
  public:
    OooCore(const CoreBuildParams &params, bool smt);
    ~OooCore() override;

    void cycle(SimCycle now) override;
    bool allIdle() const override;
    /** idle_until while the skip-ahead window is armed and no wake
     *  condition holds, else `now`. */
    SimCycle sleepUntil(SimCycle now) const override;
    /** One thread: the bookkeeping of `n` fast-path cycles in one
     *  step. SMT keeps the per-cycle default, since the fetch rotor's
     *  moves depend on each cycle's stamp. */
    void skipCycles(SimCycle from, CycleDelta n) override;
    void flushPipeline() override;
    void flushTlbs() override;
    void resetTimebase(SimCycle now) override;
    void resetMicroarch(SimCycle now) override;
    std::string name() const override { return smt ? "smt" : "ooo"; }
    std::string debugState() const override;

    /** Accept (or detach, with nullptr) the per-cycle auditor. */
    void
    attachAuditor(std::unique_ptr<CoreAuditor> auditor) override
    {
        verifier = std::move(auditor);
    }

    /**
     * Run the attached auditor once (ROB/LSQ/PRF/issue queues, plus
     * the coherence directory when multi-core). Returns the violation
     * count, or 0 when no auditor is attached (the `verify` config
     * flag is off). Panics on the first violation.
     */
    int verifyNow(SimCycle now);

  private:
    friend class InvariantChecker;   // src/verify: reads all pipeline state
    friend struct VerifyTestHook;    // src/verify: test-only corruption
    // ---- physical registers ----
    // Packed by access pattern (hot value/stamp first, bookkeeping
    // last): 24 bytes instead of the naive 40, and the issue/commit
    // paths touch only the first 16.
    struct PhysReg
    {
        U64 value = 0;
        SimCycle ready_cycle;  ///< cycle the value becomes readable
        U16 flags = 0;
        bool ready = false;
        bool in_free_list = true;
        bool is_fp = false;
        S8 cluster = 0;        ///< producing cluster (bypass delay)
        S16 refcount = 0;      ///< references from architectural maps
    };

    static constexpr int NUM_FLAG_GROUPS = 3;  // ZAPS, CF, OF
    static constexpr int RAT_SIZE = NUM_UOP_REGS + NUM_FLAG_GROUPS;
    static constexpr int FLAG_RAT_BASE = NUM_UOP_REGS;

    struct RatCheckpoint
    {
        S16 map[RAT_SIZE];
        int ras_top;
        U64 history;
    };

    enum class RobState : U8 { Waiting, InQueue, Issued, Done };

    // Fields are ordered by alignment (U64s, then pred, then ints,
    // then bytes) so the entry packs into 168 bytes; the ROB is the
    // hottest array in the simulator and every byte of padding here
    // costs cache footprint in rename/issue/commit.
    struct RobEntry
    {
        Uop uop;
        U64 seq = 0;            ///< global program-order sequence
        SimCycle retry_cycle;   ///< earliest (re)issue attempt
        GuestVirt fault_addr;
        U64 predicted_next = 0;
        U64 actual_next = 0;
        U64 result = 0;
        BranchPrediction pred;  ///< branch resolution state
        int thread = 0;
        int phys = -1;          ///< destination physical register
        int src[4] = {-1, -1, -1, -1};  ///< ra, rb, rc, rf phys
        int cluster = 0;
        int lsq = -1;           ///< LDQ/STQ slot (by kind)
        int checkpoint = -1;
        RobState state = RobState::Waiting;
        GuestFault fault = GuestFault::None;
        bool mispredicted = false;
        bool hoist_violation = false;  ///< memory replay bookkeeping
        U16 outflags = 0;
    };

    struct LsqEntry
    {
        bool valid = false;
        int rob = -1;
        GuestVirt va;
        GuestPhys paddr;
        U8 size = 0;
        bool addr_known = false;
        bool locked = false;
        bool lock_acquired = false;  ///< this entry owns the interlock
        U64 data = 0;           ///< store data
        U64 seq = 0;            ///< global program-order sequence
    };

    /**
     * One issue-queue slot. Select no longer re-derives operand
     * readiness from the PRF every cycle: each slot caches its source
     * physical-register tags at dispatch and keeps a 4-bit ready mask,
     * with bits set either at dispatch (source already executed) or by
     * tag broadcast when the producing PhysReg completes
     * (broadcastReady). wake_cycle accumulates the latest effective
     * (bypass-adjusted) ready cycle over the known-ready sources, so a
     * fully-masked entry is issuable exactly when
     * max(wake_cycle, rob.retry_cycle) <= now. 32 bytes; the select
     * scan never touches the 168-byte RobEntry for not-ready slots.
     */
    struct IqEntry
    {
        U64 seq = 0;
        SimCycle wake_cycle;   ///< max effective ready cycle seen so far
        S16 src[4] = {-1, -1, -1, -1};  ///< cached source phys tags
        S16 rob = -1;
        S16 thread = 0;
        U8 ready_mask = 0;     ///< bit s set = src[s] value broadcast seen
        bool valid = false;
    };
    static constexpr U8 IQ_ALL_READY = 0xF;

    struct IssueQueue
    {
        std::vector<IqEntry> slots;
        int cluster = 0;
        int used = 0;
    };

    /** All per-hardware-thread state (Section 2.2's SMT split). */
    struct Thread
    {
        Context *ctx = nullptr;
        // Fetch state.
        GuestVirt fetch_rip;
        const BasicBlock *fetch_bb = nullptr;
        size_t fetch_idx = 0;
        U64 bb_generation = 0;
        SimCycle fetch_stall_until;
        bool fetch_faulted = false;
        GuestFault fetch_fault = GuestFault::None;
        // Fetch queue: uops waiting for rename (with ready-at cycle).
        struct FetchedUop
        {
            Uop uop;
            SimCycle ready_at;
            BranchPrediction pred;
            U64 predicted_next = 0;
            int ras_top = 0;    ///< RAS state right after this uop fetched
            GuestFault fetch_fault = GuestFault::None;
        };
        std::deque<FetchedUop> fetch_queue;
        // Rename state.
        S16 spec_rat[RAT_SIZE];
        S16 arch_rat[RAT_SIZE];
        // ROB (circular).
        std::vector<RobEntry> rob;
        int rob_head = 0, rob_tail = 0, rob_used = 0;
        // LSQ.
        std::vector<LsqEntry> ldq;
        std::vector<LsqEntry> stq;
        int ldq_used = 0, stq_used = 0;
        // Checkpoints (parallel to ROB capacity).
        std::vector<RatCheckpoint> checkpoints;
        std::vector<bool> checkpoint_used;
        U64 next_seq = 0;
        SimCycle last_commit_cycle;
        bool holds_locks = false;
        int int_iq_inflight = 0;  ///< integer IQ slots held (SMT cap)
        /**
         * Why the last commitThread attempt this cycle could not make
         * progress, as a wake-up stamp: the blocking writeback's
         * ready_cycle, now+1 while polling another owner's interlock,
         * or CYCLE_NEVER when unblocking requires some other pipeline
         * event (which is covered by the other sleep sources).
         * Recomputed on every commit attempt, so it is always fresh
         * when sleepCore() reads it at the end of the same cycle.
         */
        SimCycle commit_wake = CYCLE_NEVER;
        bool slept_running = false;  ///< ctx->running snapshot at sleep
        // Commit checker.
        std::unique_ptr<Context> shadow_ctx;
        std::unique_ptr<FunctionalEngine> checker;
    };

    // ---- pipeline stages (called in reverse order each cycle) ----
    void stageCommit(SimCycle now);
    void stageIssue(SimCycle now);
    void stageRename(SimCycle now);
    void stageFetch(SimCycle now);

    // ---- helpers ----
    int allocPhys(bool fp);
    void freePhys(int phys);
    void addRefPhys(int phys);
    void dropRefPhys(int phys);
    /** Cycle `reg`'s value is usable from `consumer_cluster`, with the
     *  inter-cluster bypass delay applied. The single readiness
     *  predicate shared by dispatch seeding, wakeup broadcast and the
     *  commit-time writeback check. */
    SimCycle effectiveReadyCycle(const PhysReg &reg,
                                 int consumer_cluster) const
    {
        SimCycle eff = reg.ready_cycle;
        bool prod_fp = ((int)reg.cluster == cfg.int_iq_count);
        bool cons_fp = (consumer_cluster == cfg.int_iq_count);
        if (prod_fp != cons_fp)
            eff += cycles((U64)cfg.fp_cluster_delay);
        return eff;
    }
    /** Tag broadcast: `phys` just completed (its PhysReg ready bit and
     *  ready_cycle are final); set the matching ready-mask bits in
     *  every waiting issue-queue slot.
     *  Walks the per-physreg waiter list (exact consumers) instead of
     *  scanning every slot; falls back to broadcastScan on overflow. */
    void broadcastReady(int phys);
    /** Full-scan fallback for broadcastReady (waiter list overflowed). */
    void broadcastScan(int phys);
    /**
     * Per-physreg wakeup subscription: IQ slots whose source `s` still
     * waits on this tag, encoded (queue << 8) | (slot << 2) | s.
     * Appended at dispatch, drained (and cleared) by the tag
     * broadcast. Entries can go stale — squash/flush invalidates the
     * slot, or the slot is reused — so the broadcast re-validates each
     * one against slot.valid, the mirrored src tag, and the ready bit
     * (the bit check also makes duplicate entries harmless). A list
     * that outlives its producer (squashed before completing) is wiped
     * when the physreg is reallocated.
     */
    struct PhysWaiters
    {
        static constexpr int CAP = 6;
        U16 e[CAP];
        U8 n = 0;
        bool overflow = false;
    };
    void
    addWaiter(int phys, int queue, int slot, int s)
    {
        PhysWaiters &w = waiters[(size_t)phys];
        if (w.n < PhysWaiters::CAP)
            w.e[w.n++] = (U16)((queue << 8) | (slot << 2) | s);
        else
            w.overflow = true;
    }
    /** Compute this core's next-interesting cycle after a cycle with
     *  no pipeline activity, snapshot per-thread running state, and
     *  arm idle_until. */
    void sleepCore(SimCycle now);
    /** Has an external change ended the skip-ahead window early: a
     *  VCPU running-flag flip since sleepCore, or an event that a
     *  running thread can take? */
    bool wakeRequested() const;
    /** Advance an SMT arbitration rotor by `n` cycles' worth, kept
     *  in [0, threads) (the per-cycle step needs no division). */
    int rotate(int rotor, U64 n = 1) const
    {
        const U64 size = threads.size();
        const U64 r = (U64)rotor + (n < size ? n : n % size);
        return (int)(r < size ? r : r - size);
    }
    int robNext(const Thread &t, int idx) const
    {
        return (idx + 1) % (int)t.rob.size();
    }
    void flushThread(Thread &t);
    void squashYounger(Thread &t, int rob_idx, SimCycle now);
    void redirectFetch(Thread &t, GuestVirt rip, SimCycle now,
                       CycleDelta penalty);
    bool issueOne(SimCycle now, IssueQueue &iq, int slot);
    bool issueLoad(SimCycle now, Thread &t, RobEntry &e);
    bool issueStore(SimCycle now, Thread &t, RobEntry &e);
    void resolveBranch(SimCycle now, Thread &t, int rob_idx, RobEntry &e);
    bool commitThread(SimCycle now, Thread &t, int &budget);
    void commitUopState(Thread &t, RobEntry &e);
    void runChecker(Thread &t, const RobEntry &eom_entry);
    void lockstepStepReference(Thread &t, SimCycle now, GuestVirt insn_rip,
                               const Uop &first_uop);
    void lockstepCheckStore(Thread &t, SimCycle now, GuestVirt insn_rip,
                            const LsqEntry &s, int size);
    void lockstepCompare(Thread &t, SimCycle now, GuestVirt insn_rip);
    void lockstepResync(Thread &t);
    int pickFetchThread(SimCycle now);
    int ownerId(const Thread &t) const;

    // ---- members ----
    SimConfig cfg;
    bool smt;
    AddressSpace *aspace;
    BasicBlockCache *bbcache;
    SystemInterface *sys;
    StatsTree *stats;
    InterlockController *interlocks;
    CoherenceController *coherence;
    int core_id = 0;

    /** Per-cycle auditor attached by the machine (verify=1). */
    std::unique_ptr<CoreAuditor> verifier;
    /** Lockstep reference compare is only sound when this core's
     *  commits are the sole writers of guest memory (no SMT siblings,
     *  no coherence peers); otherwise the per-uop replay checker
     *  still runs but full-context lockstep is skipped. */
    bool lockstep_enabled = false;

    MemoryHierarchy *hierarchy;        ///< owned by the machine builder
    std::unique_ptr<BranchPredictor> predictor;
    std::vector<Thread> threads;
    std::vector<PhysReg> prf;
    std::vector<PhysWaiters> waiters;   ///< parallel to prf
    std::vector<int> free_int, free_fp;
    std::vector<IssueQueue> queues;   ///< int queues then FP queue
    int fp_queue_index = 0;
    /** Select scratch: one queue's issuable slot indices, oldest
     *  first. Sized for the largest queue when the core is built. */
    std::vector<int> select_slots;
    // SMT arbitration rotors, each in [0, threads).
    int next_fetch_thread = 0;
    int next_rename_thread = 0;
    int next_commit_thread = 0;
    SimCycle now_cache;
    /**
     * Skip-ahead state: while now < idle_until, cycle() takes a fast
     * path that only checks the externally-visible wake conditions
     * (running-flag flips, deliverable events) — no pipeline state can
     * change until then, by construction of sleepCore(). Cleared by
     * everything that mutates core state from outside a cycle
     * (flushPipeline, resetTimebase).
     */
    SimCycle idle_until;
    /** Did any stage make forward progress this cycle? Only a cycle
     *  with zero activity may arm idle_until. Transient, reset at the
     *  top of every evaluated cycle. */
    bool cycle_activity = false;
    std::vector<Pfn> pending_smc;   ///< code MFNs hit by committed stores
    bool trace_commits = false;     ///< PTLSIM_TRACE=1 commit logging
    bool renameOne(SimCycle now, Thread &t, int tid);

    // Statistics.
    Counter &st_commit_insns;
    Counter &st_commit_uops;
    Counter &st_cycles;
    Counter &st_branches;
    Counter &st_cond_branches;
    Counter &st_mispredicts;
    Counter &st_indirect_branches;
    Counter &st_indirect_mispredicts;
    Counter &st_loads;
    Counter &st_stores;
    Counter &st_load_forwards;
    Counter &st_load_replays;
    Counter &st_events;
    Counter &st_faults;
    Counter &st_assists;
    Counter &st_flushes;
    Counter &st_fetch_stall;
    Counter &st_rename_stall;
    Counter &st_hoist_flushes;
    Counter &st_deadlock_rescues;
    Counter &st_checker_commits;
    Counter &st_lockstep_commits;
    Counter &st_lockstep_skips;
    Counter &st_skipped_cycles;
    Counter &st_wakeup_broadcasts;
};

}  // namespace ptl

#endif  // PTLSIM_CORE_OOO_OOOCORE_H_
