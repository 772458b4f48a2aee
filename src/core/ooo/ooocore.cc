#include "core/ooo/ooocore.h"

#include <cstring>
#include <cstdlib>

#include "lib/logging.h"

#ifndef PTL_VERIFY
#define PTL_VERIFY 1
#endif

namespace ptl {

OooCore::OooCore(const CoreBuildParams &params, bool smt_mode)
    : cfg(*params.config), smt(smt_mode), aspace(params.aspace),
      bbcache(params.bbcache), sys(params.sys), stats(params.stats),
      interlocks(params.interlocks), coherence(params.coherence),
      st_commit_insns(stats->counter(params.prefix + "commit/insns")),
      st_commit_uops(stats->counter(params.prefix + "commit/uops")),
      st_cycles(stats->counter(params.prefix + "cycles")),
      st_branches(stats->counter(params.prefix + "branches/total")),
      st_cond_branches(stats->counter(params.prefix + "branches/cond")),
      st_mispredicts(
          stats->counter(params.prefix + "branches/mispredicted")),
      st_indirect_branches(
          stats->counter(params.prefix + "branches/indirect")),
      st_indirect_mispredicts(
          stats->counter(params.prefix + "branches/indirect_mispredicted")),
      st_loads(stats->counter(params.prefix + "commit/loads")),
      st_stores(stats->counter(params.prefix + "commit/stores")),
      st_load_forwards(stats->counter(params.prefix + "lsq/forwards")),
      st_load_replays(stats->counter(params.prefix + "lsq/replays")),
      st_events(stats->counter(params.prefix + "commit/events_delivered")),
      st_faults(stats->counter(params.prefix + "commit/faults_delivered")),
      st_assists(stats->counter(params.prefix + "commit/assists")),
      st_flushes(stats->counter(params.prefix + "pipeline/flushes")),
      st_fetch_stall(stats->counter(params.prefix + "pipeline/fetch_stalls")),
      st_rename_stall(
          stats->counter(params.prefix + "pipeline/rename_stalls")),
      st_hoist_flushes(stats->counter(params.prefix + "lsq/hoist_flushes")),
      st_deadlock_rescues(
          stats->counter(params.prefix + "smt/deadlock_rescues")),
      st_checker_commits(stats->counter(params.prefix + "checker/commits")),
      st_lockstep_commits(
          stats->counter(params.prefix + "checker/lockstep_commits")),
      st_lockstep_skips(
          stats->counter(params.prefix + "checker/lockstep_skips")),
      st_skipped_cycles(
          stats->counter(params.prefix + "ooocore/skipped_cycles")),
      st_wakeup_broadcasts(
          stats->counter(params.prefix + "ooocore/wakeup_broadcasts"))
{
    core_id = params.core_id;
    trace_commits = std::getenv("PTLSIM_TRACE") != nullptr;
    ptl_assert(!params.contexts.empty());
    ptl_assert((int)params.contexts.size() <= 16);  // paper's SMT limit

    hierarchy = params.hierarchy;
    ptl_assert(hierarchy != nullptr);
    predictor = std::make_unique<BranchPredictor>(cfg, *stats,
                                                  params.prefix);

    // Physical register files: one pool, int partition then fp. The
    // configured sizes are the *rename* pool; each hardware thread
    // additionally pins one physical register per architectural slot,
    // so reserve those on top (otherwise a 16-thread SMT core could
    // not even hold its architectural state).
    int nthreads = (int)params.contexts.size();
    int int_arch = nthreads * (NUM_UOP_REGS - 16 + NUM_FLAG_GROUPS);
    int fp_arch = nthreads * 16;
    int int_total = cfg.int_prf_size + int_arch;
    int fp_total = cfg.fp_prf_size + fp_arch;
    prf.resize((size_t)int_total + (size_t)fp_total);
    waiters.resize(prf.size());
    for (int i = 0; i < int_total; i++)
        free_int.push_back(i);
    for (int i = 0; i < fp_total; i++) {
        prf[(size_t)int_total + i].is_fp = true;
        free_fp.push_back(int_total + i);
    }

    // Clustered issue queues: N integer lanes + one FP queue.
    for (int q = 0; q < cfg.int_iq_count; q++) {
        IssueQueue iq;
        iq.slots.resize((size_t)cfg.int_iq_size);
        iq.cluster = q;
        queues.push_back(std::move(iq));
    }
    {
        IssueQueue fpq;
        fpq.slots.resize((size_t)cfg.fp_iq_size);
        fpq.cluster = cfg.int_iq_count;
        fp_queue_index = (int)queues.size();
        queues.push_back(std::move(fpq));
    }
    select_slots.resize((size_t)std::max(cfg.int_iq_size, cfg.fp_iq_size));

    // Per-thread structures.
    threads.resize(params.contexts.size());
    for (size_t i = 0; i < params.contexts.size(); i++) {
        Thread &t = threads[i];
        t.ctx = params.contexts[i];
        t.rob.resize((size_t)cfg.rob_size);
        t.ldq.resize((size_t)cfg.ldq_size);
        t.stq.resize((size_t)cfg.stq_size);
        t.checkpoints.resize((size_t)cfg.rob_size);
        t.checkpoint_used.assign((size_t)cfg.rob_size, false);
        // Initialize the register maps: one phys per arch slot,
        // preloaded from the context.
        for (int r = 0; r < RAT_SIZE; r++) {
            bool fp = (r < NUM_UOP_REGS) && isFpReg(r);
            int p = allocPhys(fp);
            ptl_assert(p >= 0);
            prf[p].value = (r < NUM_UOP_REGS) ? t.ctx->reg(r) : 0;
            prf[p].flags = t.ctx->flags;
            prf[p].ready = true;
            prf[p].ready_cycle = SimCycle(0);
            t.arch_rat[r] = (S16)p;
            t.spec_rat[r] = (S16)p;
            addRefPhys(p);
        }
        t.fetch_rip = t.ctx->rip;
    }

    // Commit checker (Section 2.3's TFSim-style self-validation): the
    // per-uop architectural replay always runs under commit_checker;
    // the full lockstep compare against the functional reference
    // engine additionally requires that this pipeline is the only
    // writer of guest memory, since the reference re-applies committed
    // stores (idempotent only without racing SMT siblings or peers).
    lockstep_enabled = cfg.commit_checker && threads.size() == 1
                       && coherence == nullptr;
    if (lockstep_enabled) {
        for (size_t i = 0; i < threads.size(); i++) {
            Thread &t = threads[i];
            t.shadow_ctx = std::make_unique<Context>(*t.ctx);
            t.checker = std::make_unique<FunctionalEngine>(
                *t.shadow_ctx, *aspace, *bbcache, *sys, *stats,
                params.prefix + "checker/t" + std::to_string(i) + "/");
        }
    }

    // The per-cycle invariant auditor (if any) arrives later via
    // attachAuditor(): whoever assembles the machine decides, so this
    // core never depends on the verification layer above it.
}

OooCore::~OooCore() = default;

int
OooCore::verifyNow(SimCycle now)
{
    if (!verifier)
        return 0;
    int n = verifier->checkCore(*this, now);
    if (coherence)
        n += verifier->checkCoherence(*coherence, now);
    return n;
}

int
OooCore::allocPhys(bool fp)
{
    std::vector<int> &list = fp ? free_fp : free_int;
    if (list.empty())
        return -1;
    int p = list.back();
    list.pop_back();
    PhysReg &reg = prf[p];
    reg.ready = false;
    reg.ready_cycle = CYCLE_NEVER;
    reg.refcount = 0;
    reg.in_free_list = false;
    // Drop waiter entries left behind if the previous owner was
    // squashed before it could broadcast.
    waiters[(size_t)p].n = 0;
    waiters[(size_t)p].overflow = false;
    return p;
}

void
OooCore::freePhys(int phys)
{
    if (phys < 0)
        return;
    PhysReg &reg = prf[phys];
    ptl_assert(!reg.in_free_list);
    ptl_assert(reg.refcount == 0);
    reg.in_free_list = true;
    (reg.is_fp ? free_fp : free_int).push_back(phys);
}

void
OooCore::addRefPhys(int phys)
{
    if (phys >= 0)
        prf[phys].refcount++;
}

void
OooCore::dropRefPhys(int phys)
{
    if (phys < 0)
        return;
    PhysReg &reg = prf[phys];
    ptl_assert(reg.refcount > 0);
    if (--reg.refcount == 0 && !reg.in_free_list)
        freePhys(phys);
}

void
OooCore::broadcastReady(int phys)
{
    const PhysReg &reg = prf[phys];
    st_wakeup_broadcasts++;
    PhysWaiters &w = waiters[(size_t)phys];
    if (w.overflow) {
        w.n = 0;
        w.overflow = false;
        broadcastScan(phys);
        return;
    }
    for (int i = 0; i < (int)w.n; i++) {
        U16 code = w.e[i];
        IssueQueue &iq = queues[code >> 8];
        IqEntry &slot = iq.slots[(code >> 2) & 0x3F];
        int s = code & 3;
        // Re-validate: the slot may have been squashed or reused since
        // the entry was pushed; the ready-bit check also de-dups.
        if (!slot.valid || (int)slot.src[s] != phys
            || (slot.ready_mask & (U8)(1 << s)))
            continue;
        slot.ready_mask |= (U8)(1 << s);
        SimCycle eff = effectiveReadyCycle(reg, iq.cluster);
        if (eff > slot.wake_cycle)
            slot.wake_cycle = eff;
    }
    w.n = 0;
}

void
OooCore::broadcastScan(int phys)
{
    const PhysReg &reg = prf[phys];
    for (IssueQueue &iq : queues) {
        if (iq.used == 0)
            continue;
        SimCycle eff = effectiveReadyCycle(reg, iq.cluster);
        for (IqEntry &slot : iq.slots) {
            if (!slot.valid || slot.ready_mask == IQ_ALL_READY)
                continue;
            U8 mask = slot.ready_mask;
            for (int s = 0; s < 4; s++) {
                if (!(mask & (1 << s)) && (int)slot.src[s] == phys)
                    mask |= 1 << s;
            }
            if (mask == slot.ready_mask)
                continue;
            slot.ready_mask = mask;
            if (eff > slot.wake_cycle)
                slot.wake_cycle = eff;
        }
    }
}

int
OooCore::ownerId(const Thread &t) const
{
    return core_id * 16 + (int)(&t - threads.data());
}

void
OooCore::redirectFetch(Thread &t, GuestVirt rip, SimCycle now,
                       CycleDelta penalty)
{
    t.fetch_rip = rip;
    t.fetch_bb = nullptr;
    t.fetch_idx = 0;
    t.fetch_queue.clear();
    t.fetch_stall_until = now + penalty;
    t.fetch_faulted = false;
}

void
OooCore::squashYounger(Thread &t, int rob_idx, SimCycle /*now*/)
{
    // Walk from the tail back to (but excluding) rob_idx, undoing
    // allocations in reverse order.
    while (t.rob_used > 0) {
        int last = (t.rob_tail + (int)t.rob.size() - 1) % (int)t.rob.size();
        if (last == rob_idx)
            break;
        RobEntry &e = t.rob[last];
        // Remove from its issue queue. Only InQueue entries hold a
        // slot (invariant-checked), and the dispatching queue's index
        // equals the entry's cluster, so the search is one queue, not
        // all of them.
        if (e.state == RobState::InQueue) {
            IssueQueue &iq = queues[e.cluster];
            int tid = (int)(&t - threads.data());
            for (IqEntry &slot : iq.slots) {
                if (slot.valid && (int)slot.thread == tid
                    && (int)slot.rob == last) {
                    slot.valid = false;
                    iq.used--;
                    if (e.cluster != queues[fp_queue_index].cluster)
                        t.int_iq_inflight--;
                    break;
                }
            }
        }
        // Release LSQ slots (and any interlock a squashed load held).
        if (e.lsq >= 0) {
            LsqEntry &l =
                e.uop.isLoad() ? t.ldq[e.lsq] : t.stq[e.lsq];
            if (l.lock_acquired)
                interlocks->release(l.paddr, ownerId(t));
            l.valid = false;
            (e.uop.isLoad() ? t.ldq_used : t.stq_used)--;
        }
        // Return the speculative physical register.
        if (e.phys >= 0) {
            prf[e.phys].refcount = 0;
            freePhys(e.phys);
        }
        if (e.checkpoint >= 0)
            t.checkpoint_used[e.checkpoint] = false;
        t.rob_tail = last;
        t.rob_used--;
    }
}

void
OooCore::flushThread(Thread &t)
{
    st_flushes++;
    int tid = (int)(&t - threads.data());
    // Drop everything in flight.
    while (t.rob_used > 0) {
        int last = (t.rob_tail + (int)t.rob.size() - 1) % (int)t.rob.size();
        RobEntry &e = t.rob[last];
        if (e.phys >= 0) {
            prf[e.phys].refcount = 0;
            freePhys(e.phys);
        }
        if (e.checkpoint >= 0)
            t.checkpoint_used[e.checkpoint] = false;
        t.rob_tail = last;
        t.rob_used--;
    }
    t.rob_head = t.rob_tail = 0;
    for (IssueQueue &iq : queues) {
        for (IqEntry &slot : iq.slots) {
            if (slot.valid && slot.thread == tid) {
                slot.valid = false;
                iq.used--;
            }
        }
    }
    t.int_iq_inflight = 0;
    for (LsqEntry &e : t.ldq)
        e.valid = false;
    for (LsqEntry &e : t.stq)
        e.valid = false;
    t.ldq_used = t.stq_used = 0;
    t.fetch_queue.clear();
    std::memcpy(t.spec_rat, t.arch_rat, sizeof(t.spec_rat));
    std::fill(t.checkpoint_used.begin(), t.checkpoint_used.end(), false);
    interlocks->releaseAll(ownerId(t));
    t.holds_locks = false;
    t.fetch_bb = nullptr;
    t.fetch_faulted = false;
    t.fetch_rip = t.ctx->rip;
    // Microcode (assists, event/fault delivery) mutates the Context
    // directly; reload the architectural physical registers so the
    // restarted pipeline reads the true committed state.
    for (int r = 0; r < NUM_UOP_REGS; r++) {
        PhysReg &reg = prf[t.arch_rat[r]];
        reg.value = t.ctx->reg(r);
        reg.ready = true;
        reg.ready_cycle = SimCycle(0);
    }
    for (int g = 0; g < NUM_FLAG_GROUPS; g++) {
        PhysReg &reg = prf[t.arch_rat[FLAG_RAT_BASE + g]];
        reg.flags = t.ctx->flags;
        reg.ready = true;
        reg.ready_cycle = SimCycle(0);
    }
}

void
OooCore::flushPipeline()
{
    for (Thread &t : threads) {
        flushThread(t);
        // External flushes mean the context may have been advanced
        // outside this core (native mode, checkpoint restore, CR3
        // switch); the lockstep shadow must restart from the new state.
        lockstepResync(t);
    }
    // The flush itself is pipeline activity the sleep decision never
    // saw; force a full evaluation next cycle.
    idle_until = SimCycle(0);
}

void
OooCore::flushTlbs()
{
    hierarchy->flushTlbs();
}

void
OooCore::resetMicroarch(SimCycle now)
{
    flushPipeline();
    hierarchy->flushTlbs();
    hierarchy->flushCaches();
    predictor->reset();
    resetTimebase(now);
}

void
OooCore::resetTimebase(SimCycle now)
{
    // Fetch backoffs and the commit watchdog hold absolute cycle
    // stamps; after a time warp the former would park fetch until the
    // old clock value recurs and the latter would see a gigantic
    // unsigned gap and fire spuriously.
    for (Thread &t : threads) {
        t.fetch_stall_until = SimCycle(0);
        t.last_commit_cycle = now;
        t.commit_wake = CYCLE_NEVER;
    }
    // Skip-ahead bookkeeping also holds an absolute stamp: a stale
    // idle_until from before the warp would point at cycles that now
    // lie in the far future and park the core.
    idle_until = SimCycle(0);
    for (PhysWaiters &w : waiters) {
        w.n = 0;
        w.overflow = false;
    }
    hierarchy->resetTimebase();
}

bool
OooCore::allIdle() const
{
    for (const Thread &t : threads) {
        if (t.ctx->running)
            return false;
    }
    return true;
}

int
OooCore::pickFetchThread(SimCycle now)
{
    int n = (int)threads.size();
    if (cfg.smt_policy == SmtPolicy::Icount && n > 1) {
        // ICOUNT: fetch for the thread with the fewest uops in flight.
        int best = -1;
        int best_count = INT32_MAX;
        for (int i = 0; i < n; i++) {
            Thread &t = threads[i];
            if (!t.ctx->running || t.fetch_stall_until > now
                || t.fetch_faulted)
                continue;
            int inflight = t.rob_used + (int)t.fetch_queue.size();
            if (inflight < best_count) {
                best_count = inflight;
                best = i;
            }
        }
        return best;
    }
    for (int k = 0; k < n; k++) {
        int i = (next_fetch_thread + k) % n;
        Thread &t = threads[i];
        if (!t.ctx->running || t.fetch_stall_until > now || t.fetch_faulted)
            continue;
        next_fetch_thread = (i + 1) % n;
        return i;
    }
    return -1;
}

void
OooCore::cycle(SimCycle now)
{
    // Skip-ahead fast path: a previous cycle proved no pipeline state
    // can change before idle_until, so only the externally-driven wake
    // conditions need checking — a VCPU running-flag flip or an event
    // becoming deliverable. Everything else (wakeups, replays, fetch
    // stalls, the commit watchdog) is already folded into idle_until
    // by sleepCore().
    if (now < idle_until) {
        if (!wakeRequested()) {
            now_cache = now;
            st_cycles++;
            st_skipped_cycles++;
            // Keep the SMT arbitration rotors bit-identical with a
            // cycle-by-cycle run: the fetch rotor only moves when an
            // eligible thread exists (its queue is necessarily full
            // during a quiesced cycle, so picking it fetches nothing),
            // and the rename/commit rotors move unconditionally.
            if (threads.size() > 1)
                (void)pickFetchThread(now);
            next_rename_thread = rotate(next_rename_thread);
            next_commit_thread = rotate(next_commit_thread);
            return;
        }
        idle_until = SimCycle(0);
    }

    now_cache = now;
    st_cycles++;
    cycle_activity = false;
    stageCommit(now);
    stageIssue(now);
    stageRename(now);
    stageFetch(now);

    // SMT deadlock rescue (Section 2.2's deadlock prevention schemes):
    // a thread that has not committed for a long time gets flushed and
    // refetched, releasing any structural resources it wedged.
    for (Thread &t : threads) {
        if (!t.ctx->running) {
            t.last_commit_cycle = now;
            continue;
        }
        if (t.rob_used > 0
            && now - t.last_commit_cycle
                   > cycles((U64)cfg.smt_deadlock_timeout)) {
            st_deadlock_rescues++;
            flushThread(t);
            t.last_commit_cycle = now;
            cycle_activity = true;
        }
    }

#if PTL_VERIFY
    // End-of-cycle invariant audit (src/verify): all pipeline stages
    // have run, so every structure should be self-consistent.
    if (verifier && cfg.verify_interval > 0
        && now.raw() % (U64)cfg.verify_interval == 0)
        verifyNow(now);
#endif

    if (cfg.skip_ahead && !cycle_activity)
        sleepCore(now);
    else
        idle_until = SimCycle(0);
}

bool
OooCore::wakeRequested() const
{
    for (const Thread &t : threads) {
        const Context &c = *t.ctx;
        if (c.running != t.slept_running
            || (c.running && c.event_pending && !c.event_mask
                && c.event_callback != 0))
            return true;
    }
    return false;
}

SimCycle
OooCore::sleepUntil(SimCycle now) const
{
    // The fast path of cycle() would take every cycle of the window:
    // nothing but the counters and rotors moves until idle_until.
    if (now < idle_until && !wakeRequested())
        return idle_until;
    return now;
}

void
OooCore::skipCycles(SimCycle from, CycleDelta n)
{
    if (threads.size() > 1) {
        CoreModel::skipCycles(from, n);
        return;
    }
    // Exactly what n fast-path cycles of cycle() leave behind.
    ptl_assert(from + n <= idle_until);
    now_cache = from + n - cycles(1);
    st_cycles += n.raw();
    st_skipped_cycles += n.raw();
    next_rename_thread = rotate(next_rename_thread, n.raw());
    next_commit_thread = rotate(next_commit_thread, n.raw());
}

/**
 * The pipeline just completed a cycle with zero activity: no commit,
 * no issue attempt, no rename, no fetch progress, no rescue. Compute
 * the earliest future cycle at which any structure could change and
 * arm idle_until. Soundness argument, per source:
 *
 *  - Issue: every select candidate (full ready mask) is bounded by
 *    max(wake_cycle, retry_cycle); entries still waiting on operands
 *    are woken by a broadcast, and the producing entry's own issue is
 *    itself bounded (transitively grounding every dependence chain).
 *  - Commit: commitThread records why its last attempt this cycle
 *    blocked (commit_wake); the remaining reasons (incomplete group,
 *    un-issued entry) resolve only via rename/issue events that are
 *    activity when they fire.
 *  - Frontend: a thread whose fetch could proceed would have fetched
 *    (= activity), so fetch is stalled (wake at fetch_stall_until),
 *    faulted (waits on commit), or queue-full (waits on rename, which
 *    waits on front().ready_at or on resources freed by activity).
 *  - Watchdog: the rescue deadline for any thread with in-flight work.
 *
 * The auditor needs no fold: nothing in the pipeline changes inside
 * the window, so the audit of the cycle that armed it (if due) already
 * covers every skipped cycle.
 */
void
OooCore::sleepCore(SimCycle now)
{
    SimCycle wake = CYCLE_NEVER;
    auto fold = [&wake](SimCycle c) {
        if (c < wake)
            wake = c;
    };
    for (const IssueQueue &iq : queues) {
        if (iq.used == 0)
            continue;
        for (const IqEntry &slot : iq.slots) {
            if (!slot.valid || slot.ready_mask != IQ_ALL_READY)
                continue;
            const RobEntry &e = threads[slot.thread].rob[slot.rob];
            fold(std::max({slot.wake_cycle, e.retry_cycle,
                           now + cycles(1)}));
        }
    }
    for (Thread &t : threads) {
        t.slept_running = t.ctx->running;
        if (!t.ctx->running)
            continue;
        fold(t.commit_wake);
        if (!t.fetch_faulted
            && (int)t.fetch_queue.size() < cfg.fetch_queue_size)
            fold(std::max(t.fetch_stall_until, now + cycles(1)));
        if (!t.fetch_queue.empty()
            && t.fetch_queue.front().ready_at > now)
            fold(t.fetch_queue.front().ready_at);
        if (t.rob_used > 0)
            fold(t.last_commit_cycle
                 + cycles((U64)cfg.smt_deadlock_timeout + 1));
    }
    // Memory backend deferred work (e.g. the hybrid model's
    // deferred-write queue): drain everything due by now, then never
    // skip past the next due stamp. After drainTo(now) the head's
    // bank is busy past `now`, so the fold is strictly in the future
    // and the core cannot wedge re-arming the same cycle.
    hierarchy->drainBackend(now);
    SimCycle backend_due = hierarchy->backendNextDue();
    if (!backend_due.never())
        fold(std::max(backend_due, now + cycles(1)));
    idle_until = wake;
}

std::string
OooCore::debugState() const
{
    std::string out;
    for (size_t i = 0; i < threads.size(); i++) {
        const Thread &t = threads[i];
        out += strprintf(
            "thread %zu: rip=%llx running=%d rob=%d fq=%zu "
            "fetch_rip=%llx stalled_until=%llu faulted=%d\n",
            i, (unsigned long long)t.ctx->rip.raw(),
            (int)t.ctx->running,
            t.rob_used, t.fetch_queue.size(),
            (unsigned long long)t.fetch_rip.raw(),
            (unsigned long long)t.fetch_stall_until.raw(),
            (int)t.fetch_faulted);
        int idx = t.rob_head;
        for (int n = 0; n < std::min(t.rob_used, 8); n++) {
            const RobEntry &e = t.rob[idx];
            out += strprintf(
                "  rob[%d] %s rip=%llx state=%d retry=%llu fault=%s "
                "phys=%d ready=%d rdy_cyc=%llu srcs=%d,%d,%d,%d\n",
                idx, uopInfo(e.uop.op).name,
                (unsigned long long)e.uop.rip, (int)e.state,
                (unsigned long long)e.retry_cycle.raw(),
                guestFaultName(e.fault), e.phys,
                e.phys >= 0 ? (int)prf[e.phys].ready : -1,
                e.phys >= 0
                    ? (unsigned long long)prf[e.phys].ready_cycle.raw()
                    : 0ULL,
                e.src[0], e.src[1], e.src[2], e.src[3]);
            idx = (idx + 1) % (int)t.rob.size();
        }
    }
    for (size_t q = 0; q < queues.size(); q++)
        out += strprintf("iq[%zu] used=%d\n", q, queues[q].used);
    out += strprintf("free_int=%zu free_fp=%zu\n", free_int.size(),
                     free_fp.size());
    return out;
}

void
registerOooCoreModels()
{
    registerCoreModel("ooo", [](const CoreBuildParams &p) {
        return std::make_unique<OooCore>(p, false);
    });
    registerCoreModel("smt", [](const CoreBuildParams &p) {
        return std::make_unique<OooCore>(p, true);
    });
}

}  // namespace ptl
