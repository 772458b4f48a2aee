/**
 * @file: see below — OOO core backend.
 * OOO core backend: issue/execute (with broadcast wakeup via physical
 * register ready times), branch resolution with checkpoint recovery,
 * and the in-order commit unit with atomic x86 semantics, precise
 * exceptions, assists, event delivery and the commit checker.
 */

#include <algorithm>
#include <cstring>

#include "core/ooo/ooocore.h"
#include "lib/logging.h"

namespace ptl {

namespace {

int
classLatency(const SimConfig &cfg, UopClass cls)
{
    switch (cls) {
      case UopClass::IntAlu: return cfg.lat_alu;
      case UopClass::IntMul: return cfg.lat_mul;
      case UopClass::IntDiv: return cfg.lat_div;
      case UopClass::Fpu: return cfg.lat_fp;
      case UopClass::FpDiv: return cfg.lat_div;
      // Memory and control classes get their latency from the cache
      // hierarchy / branch redirect paths, not the execution unit.
      case UopClass::Load: return 1;
      case UopClass::Store: return 1;
      case UopClass::Branch: return 1;
      case UopClass::Fence: return 1;
      case UopClass::AssistOp: return 1;
    }
    return 1;
}

}  // namespace

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

void
OooCore::stageIssue(SimCycle now)
{
    // Structural hazard: one integer multiplier, one divider per core.
    bool mul_used = false, div_used = false;

    for (IssueQueue &iq : queues) {
        if (iq.used == 0)
            continue;
        // Oldest-first (collapsing queue) selection in one pass: gather
        // the slots whose ready mask filled and whose wake and retry
        // stamps arrived, order them by age, and issue from the front.
        // Not-ready slots cost one 32-byte IqEntry read; the 168-byte
        // RobEntry is only touched for candidates.
        int count = 0;
        auto gather = [&] {
            count = 0;
            for (int i = 0; i < (int)iq.slots.size(); i++) {
                const IqEntry &slot = iq.slots[(size_t)i];
                if (!slot.valid || slot.ready_mask != IQ_ALL_READY
                    || slot.wake_cycle > now
                    || threads[slot.thread].rob[slot.rob].retry_cycle > now)
                    continue;
                // Insertion by seq; ties (SMT threads number their
                // uops separately) keep the lower slot first.
                int j = count++;
                for (; j > 0
                       && iq.slots[(size_t)select_slots[j - 1]].seq
                              > slot.seq;
                     j--)
                    select_slots[j] = select_slots[j - 1];
                select_slots[j] = i;
            }
        };
        gather();
        int issued = 0;
        for (int k = 0; k < count && issued < cfg.issue_width_per_cluster;
             k++) {
            int best = select_slots[k];
            IqEntry &slot = iq.slots[(size_t)best];
            if (!slot.valid)
                continue;  // squashed by an older branch this cycle
            const RobEntry &e = threads[slot.thread].rob[slot.rob];
            UopClass cls = e.uop.schedCls();
            if ((cls == UopClass::IntMul && mul_used)
                || (cls == UopClass::IntDiv && div_used))
                continue;
            int phys = e.phys;
            cycle_activity = true;  // issue or replay both mutate state
            issueOne(now, iq, best);
            if (cls == UopClass::IntMul)
                mul_used = true;
            if (cls == UopClass::IntDiv)
                div_used = true;
            issued++;  // the port is consumed even by a replayed op
            // A zero-latency result wakes its consumers this very
            // cycle; only then can the candidate set grow, so gather
            // again (what issued is gone or waits on its retry stamp).
            if (phys >= 0 && prf[phys].ready
                && prf[phys].ready_cycle <= now) {
                gather();
                k = -1;
            }
        }
    }
}

bool
OooCore::issueOne(SimCycle now, IssueQueue &iq, int slot_idx)
{
    IqEntry &slot = iq.slots[slot_idx];
    Thread &t = threads[slot.thread];
    RobEntry &e = t.rob[slot.rob];
    const Uop &u = e.uop;

    if (u.isLoad() || u.isStore()) {
        bool ok = u.isLoad() ? issueLoad(now, t, e) : issueStore(now, t, e);
        if (!ok)
            return false;  // replay: stays in the queue
        slot.valid = false;
        iq.used--;
        if (&iq != &queues[fp_queue_index])
            t.int_iq_inflight--;
        return true;
    }

    auto value_of = [&](int phys) -> U64 {
        return (phys >= 0) ? prf[phys].value : 0;
    };
    auto flags_of = [&](int phys) -> U16 {
        return (phys >= 0) ? prf[phys].flags : 0;
    };

    UopOutcome out = executeUop(u, value_of(e.src[0]), value_of(e.src[1]),
                                value_of(e.src[2]), flags_of(e.src[3]),
                                flags_of(e.src[0]), flags_of(e.src[1]),
                                flags_of(e.src[2]));
    e.result = out.value;
    e.outflags = out.flags;
    if (out.fault != GuestFault::None) {
        e.fault = out.fault;
        e.fault_addr = GuestVirt(u.rip);
    }
    if (e.phys >= 0) {
        PhysReg &reg = prf[e.phys];
        reg.value = out.value;
        reg.flags = out.flags;
        reg.ready = true;
        reg.ready_cycle =
            now + cycles((U64)classLatency(cfg, u.schedCls()));
        reg.cluster = (S8)iq.cluster;
        broadcastReady(e.phys);
    }
    e.state = RobState::Done;
    slot.valid = false;
    iq.used--;
    if (&iq != &queues[fp_queue_index])
        t.int_iq_inflight--;

    if (u.isBranch())
        resolveBranch(now, t, slot.rob, e);
    return true;
}

// ---------------------------------------------------------------------
// Branch resolution
// ---------------------------------------------------------------------

void
OooCore::resolveBranch(SimCycle now, Thread &t, int rob_idx, RobEntry &e)
{
    const Uop &u = e.uop;
    e.actual_next = e.result;  // executeUop yields the true next RIP
    st_branches++;

    if (u.op == UopOp::BrCC) {
        st_cond_branches++;
        bool taken =
            (e.actual_next != (U64)u.imm2) || ((U64)u.imm == (U64)u.imm2);
        predictor->resolve(u.rip, e.pred, taken);
    } else if (u.op == UopOp::Jmp) {
        st_indirect_branches++;
        if (!u.hint_ret)
            predictor->updateTarget(u.rip, e.actual_next);
    }

    if (e.actual_next == e.predicted_next)
        return;

    // Misprediction: squash younger work, restore the RAT checkpoint,
    // repair the RAS, redirect fetch after the configured penalty.
    if (u.op == UopOp::BrCC)
        st_mispredicts++;
    else
        st_indirect_mispredicts++;

    squashYounger(t, rob_idx, now);
    if (e.checkpoint >= 0) {
        RatCheckpoint &c = t.checkpoints[e.checkpoint];
        std::memcpy(t.spec_rat, c.map, sizeof(t.spec_rat));
        predictor->rasRestore(c.ras_top);
        t.checkpoint_used[e.checkpoint] = false;
        e.checkpoint = -1;
    } else {
        panic("mispredicted branch without checkpoint (%s at %llx)",
              uopInfo(u.op).name, (unsigned long long)u.rip);
    }
    e.predicted_next = e.actual_next;  // now resolved correctly
    redirectFetch(t, GuestVirt(e.actual_next), now,
                  cycles((U64)cfg.mispredict_penalty));
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

/**
 * Lockstep self-validation (Section 2.3): replay each instruction the
 * pipeline commits on the functional reference engine (the same engine
 * backing SeqCore) against a shadow context, then require the full
 * architectural state — RIP, every register, the flags image, and the
 * memory effects — to be bit-identical. Divergences are simulator
 * bugs; panic with a cycle-stamped report so the offending commit can
 * be replayed.
 *
 * The reference steps BEFORE the pipeline's stores land in guest
 * memory (lockstepStepReference), so a read-modify-write instruction's
 * reference load sees pre-instruction memory rather than the value
 * this very commit is about to write. Register state is then compared
 * after the pipeline finishes committing the group (lockstepCompare).
 */
void
OooCore::lockstepStepReference(Thread &t, SimCycle now, GuestVirt insn_rip,
                               const Uop &first_uop)
{
    Context &shadow = *t.shadow_ctx;
    st_lockstep_commits++;

    if (shadow.rip != insn_rip)
        panic("[cycle %llu] lockstep divergence: pipeline committed rip "
              "%llx but the reference is at %llx (RIP stream desync)",
              (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(),
              (unsigned long long)shadow.rip.raw());

    // A mispredicted not-taken branch inside a multi-pseudo-op
    // translation (a rep string loop's exit check) redirects fetch to
    // the instruction's own rip, so the pipeline re-fetches and
    // re-commits pseudo-ops the reference has already executed. The
    // re-execution starts from the same committed state and is
    // idempotent; recognize it by the committing group's first uop
    // differing from the reference's pending uop, and skip the step
    // (the post-commit state compare still runs).
    const Uop *ref_next = t.checker->peekUop();
    if (ref_next
        && (ref_next->rip != first_uop.rip || ref_next->op != first_uop.op
            || ref_next->rd != first_uop.rd || ref_next->ra != first_uop.ra
            || ref_next->imm != first_uop.imm)) {
        st_lockstep_skips++;
        return;
    }

    // The reference never delivers events on its own: the pipeline
    // resyncs the shadow explicitly whenever it takes one.
    shadow.event_pending = false;
    FunctionalEngine::StepResult r = t.checker->stepInsn(now);
    if (r.fault_delivered != GuestFault::None)
        panic("[cycle %llu] lockstep divergence at rip %llx: pipeline "
              "committed cleanly but the reference faulted (%s)",
              (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(),
              guestFaultName(r.fault_delivered));
}

/** The reference just wrote this instruction's stores to guest memory;
 *  the pipeline is about to write the same locations from its STQ.
 *  Compare what the reference left there against the STQ data. */
void
OooCore::lockstepCheckStore(Thread &t, SimCycle now, GuestVirt insn_rip,
                            const LsqEntry &s, int size)
{
    U64 ref_value = 0;
    GuestAccess a = guestRead(*aspace, *t.ctx, s.va, (unsigned)size,
                              ref_value);
    U64 mask = size >= 8 ? ~0ULL : (1ULL << (size * 8)) - 1;
    if (a.ok() && ((ref_value ^ s.data) & mask) != 0)
        panic("[cycle %llu] lockstep divergence after commit of rip "
              "%llx:\n  store [%llx]: pipeline %llx vs reference %llx\n",
              (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(),
              (unsigned long long)s.va.raw(),
              (unsigned long long)(s.data & mask),
              (unsigned long long)(ref_value & mask));
}

void
OooCore::lockstepCompare(Thread &t, SimCycle now, GuestVirt insn_rip)
{
    Context &shadow = *t.shadow_ctx;
    Context &arch = *t.ctx;

    std::string diff;
    if (shadow.rip != arch.rip)
        diff += strprintf("  rip: pipeline %llx vs reference %llx\n",
                          (unsigned long long)arch.rip.raw(),
                          (unsigned long long)shadow.rip.raw());
    if (shadow.flags != arch.flags)
        diff += strprintf("  flags: pipeline %04x vs reference %04x\n",
                          arch.flags, shadow.flags);
    for (int reg = 0; reg < NUM_UOP_REGS; reg++) {
        if (shadow.regs[reg] != arch.regs[reg])
            diff += strprintf("  %s: pipeline %llx vs reference %llx\n",
                              uopRegName(reg),
                              (unsigned long long)arch.regs[reg],
                              (unsigned long long)shadow.regs[reg]);
    }
    if (!diff.empty())
        panic("[cycle %llu] lockstep divergence after commit of rip "
              "%llx:\n%s", (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(), diff.c_str());
}

/** Re-seed the lockstep shadow from the real context after microcode
 *  (assists), event or fault delivery mutated it out of band. */
void
OooCore::lockstepResync(Thread &t)
{
    if (!t.shadow_ctx)
        return;
    *t.shadow_ctx = *t.ctx;
    t.checker->reposition();
}

void
OooCore::runChecker(Thread &t, const RobEntry &e)
{
    const Uop &u = e.uop;
    Context &ctx = *t.ctx;
    st_checker_commits++;
    if (u.isAssist() || u.op == UopOp::Nop)
        return;
    U64 ra = ctx.reg(u.ra);
    U64 rb = ctx.reg(u.rb);
    U64 rc = ctx.reg(u.rc);
    if (u.isMem()) {
        GuestVirt va = GuestVirt(uopMemAddr(u, ra, rb));
        const LsqEntry &l = u.isLoad() ? t.ldq[e.lsq] : t.stq[e.lsq];
        if (va != l.va)
            panic("checker: %s at rip %llx address mismatch "
                  "(lsq %llx vs arch %llx)",
                  uopInfo(u.op).name, (unsigned long long)u.rip,
                  (unsigned long long)l.va.raw(),
                  (unsigned long long)va.raw());
        if (u.isStore() && threads.size() == 1
            && (l.data != (rc & byteMask(u.size))))
            panic("checker: store data mismatch at rip %llx",
                  (unsigned long long)u.rip);
        return;
    }
    // Flags consumed in program order equal the committed flag image.
    UopOutcome out = executeUop(u, ra, rb, rc, ctx.flags, ctx.flags,
                                ctx.flags, ctx.flags);
    if (u.isBranch()) {
        if (out.value != e.actual_next)
            panic("checker: branch at rip %llx resolved to %llx, "
                  "arch replay gives %llx",
                  (unsigned long long)u.rip,
                  (unsigned long long)e.actual_next,
                  (unsigned long long)out.value);
        return;
    }
    if (u.writesRd() && out.value != prf[e.phys].value)
        panic("checker: %s at rip %llx value mismatch "
              "(pipeline %llx vs arch replay %llx)",
              uopInfo(u.op).name, (unsigned long long)u.rip,
              (unsigned long long)prf[e.phys].value,
              (unsigned long long)out.value);
    if (u.setflags) {
        U16 mask = 0;
        if (u.setflags & SETFLAG_ZAPS)
            mask |= FLAG_ZAPS_MASK;
        if (u.setflags & SETFLAG_CF)
            mask |= FLAG_CF;
        if (u.setflags & SETFLAG_OF)
            mask |= FLAG_OF;
        if ((out.flags & mask) != (e.outflags & mask))
            panic("checker: %s at rip %llx flags mismatch",
                  uopInfo(u.op).name, (unsigned long long)u.rip);
    }
}

void
OooCore::commitUopState(Thread &t, RobEntry &e)
{
    const Uop &u = e.uop;
    Context &ctx = *t.ctx;

    if (cfg.commit_checker)
        runChecker(t, e);

    if (u.isLoad())
        st_loads++;
    if (u.isStore()) {
        st_stores++;
        LsqEntry &s = t.stq[e.lsq];
        GuestAccess a = guestWrite(*aspace, ctx, s.va, u.size, s.data);
        ptl_assert(a.ok());  // faults were resolved at issue
        hierarchy->dataAccess(s.paddr, true, now_cache, true);
        // Self-modifying code detection on the touched frame(s).
        Pfn first = s.paddr.pfn();
        if (sys->isCodeMfn(first))
            pending_smc.push_back(first);
        if (s.va.vpn() != (s.va + u.size - 1).vpn()) {
            GuestAccess b = guestTranslate(*aspace, ctx,
                                           s.va + u.size - 1,
                                           MemAccess::Write);
            if (b.ok() && sys->isCodeMfn(b.paddr.pfn()))
                pending_smc.push_back(b.paddr.pfn());
        }
    }
    if (u.schedWritesRd()) {
        ctx.setReg(u.rd, prf[e.phys].value);
        int old = t.arch_rat[u.rd];
        t.arch_rat[u.rd] = (S16)e.phys;
        addRefPhys(e.phys);
        dropRefPhys(old);
    }
    if (u.setflags) {
        ctx.applyFlags(e.outflags, u.setflags);
        for (int g = 0; g < NUM_FLAG_GROUPS; g++) {
            if (!(u.setflags & (1 << g)))
                continue;
            int old = t.arch_rat[FLAG_RAT_BASE + g];
            t.arch_rat[FLAG_RAT_BASE + g] = (S16)e.phys;
            addRefPhys(e.phys);
            dropRefPhys(old);
        }
    }
    if (e.lsq >= 0) {
        LsqEntry &l = u.isLoad() ? t.ldq[e.lsq] : t.stq[e.lsq];
        if (l.lock_acquired)
            interlocks->release(l.paddr, ownerId(t));
        l.valid = false;
        (u.isLoad() ? t.ldq_used : t.stq_used)--;
        e.lsq = -1;
    }
    if (e.checkpoint >= 0) {
        t.checkpoint_used[e.checkpoint] = false;
        e.checkpoint = -1;
    }
    st_commit_uops++;
}

bool
OooCore::commitThread(SimCycle now, Thread &t, int &budget)
{
    Context &ctx = *t.ctx;

    // Every attempt re-derives why commit is blocked; stale stamps
    // from earlier cycles must not linger into the sleep decision.
    t.commit_wake = CYCLE_NEVER;

    // Event (virtual interrupt) delivery at instruction boundaries.
    bool at_boundary =
        (t.rob_used == 0) || t.rob[t.rob_head].uop.som;
    if (at_boundary && ctx.running && ctx.event_pending && !ctx.event_mask
        && ctx.event_callback != 0) {
        deliverEvent(ctx, *aspace);
        flushThread(t);  // after delivery: flush re-syncs PRF from ctx
        st_events++;
        lockstepResync(t);
        redirectFetch(t, ctx.rip, now, cycles(1));
        t.last_commit_cycle = now;
        return true;
    }
    if (t.rob_used == 0)
        return false;

    // Locate the head instruction group [head .. EOM].
    int group[64];
    int count = 0;
    int idx = t.rob_head;
    bool complete = false;
    for (int n = 0; n < t.rob_used && count < 64; n++) {
        group[count++] = idx;
        if (t.rob[idx].uop.eom) {
            complete = true;
            break;
        }
        idx = robNext(t, idx);
    }
    if (!complete)
        return false;  // instruction not fully renamed yet

    // Readiness / fault scan in program order.
    GuestFault fault = GuestFault::None;
    GuestVirt fault_addr;
    bool hoist_violation = false;
    for (int n = 0; n < count; n++) {
        RobEntry &e = t.rob[group[n]];
        if (e.state != RobState::Done)
            return false;
        if (e.phys >= 0 && prf[e.phys].ready) {
            // Writeback completeness goes through the same readiness
            // predicate issue uses (same-cluster view, so the bypass
            // adjustment degenerates to the raw ready_cycle) instead
            // of re-reading the stamp ad hoc.
            const PhysReg &reg = prf[e.phys];
            SimCycle wb = effectiveReadyCycle(reg, reg.cluster);
            if (wb > now) {
                if (wb < t.commit_wake)
                    t.commit_wake = wb;
                return false;  // writeback not complete yet
            }
        }
        if (e.uop.isStore() && e.lsq >= 0
            && e.fault == GuestFault::None) {
            // Interlocks are checked at issue, but the write lands at
            // commit: re-check so a plain store cannot slip inside
            // another thread's locked read-modify-write window.
            const LsqEntry &s = t.stq[e.lsq];
            if (!s.lock_acquired
                && interlocks->heldByOther(s.paddr, ownerId(t))) {
                // The lock owner is another thread or core; its
                // release is invisible to this core's activity
                // tracking, so poll every cycle while asleep.
                t.commit_wake = now + cycles(1);
                return false;
            }
        }
        if (e.hoist_violation) {
            hoist_violation = true;
            break;
        }
        if (e.fault != GuestFault::None) {
            fault = e.fault;
            fault_addr = e.fault_addr;
            break;
        }
    }

    GuestVirt insn_rip = GuestVirt(t.rob[t.rob_head].uop.rip);

    if (hoist_violation) {
        // Speculative load issued before a conflicting older store:
        // flush and re-execute the instruction (replay storm model).
        st_hoist_flushes++;
        flushThread(t);
        ctx.rip = insn_rip;
        redirectFetch(t, insn_rip, now, cycles(2));
        // The refetch restarts from the instruction boundary, which
        // for multi-pseudo-op translations (rep string loops) can
        // re-commit a pseudo-op the reference already stepped past.
        // No reference memory writes are lost: the flushed group never
        // committed, so the reference never stepped it.
        lockstepResync(t);
        t.last_commit_cycle = now;
        budget = 0;
        return true;
    }

    if (fault != GuestFault::None) {
        st_faults++;
        deliverFault(ctx, *aspace, fault, insn_rip, fault_addr);
        flushThread(t);
        lockstepResync(t);
        redirectFetch(t, ctx.rip, now, cycles(1));
        t.last_commit_cycle = now;
        budget = 0;
        return true;
    }

    // Assist groups: commit the leading uops, run the microcode, then
    // flush (assists are serializing).
    bool has_assist = t.rob[group[count - 1]].uop.isAssist();

    pending_smc.clear();

    // Assist microcode has system side effects that must not run
    // twice, so assist groups resync the shadow instead of replaying.
    bool do_lockstep = lockstep_enabled && t.checker && !has_assist;
    if (do_lockstep) {
        // The reference performs SMC stores itself and consumes the
        // code-mfn flag as it does; capture the pipeline's view of
        // which code frames this group touches before that happens.
        for (int n = 0; n < count; n++) {
            const RobEntry &e = t.rob[group[n]];
            if (!e.uop.isStore() || e.lsq < 0)
                continue;
            const LsqEntry &s = t.stq[e.lsq];
            if (sys->isCodeMfn(s.paddr.pfn()))
                pending_smc.push_back(s.paddr.pfn());
            if (s.va.vpn() != (s.va + e.uop.size - 1).vpn()) {
                GuestAccess b = guestTranslate(*aspace, *t.ctx,
                                               s.va + e.uop.size - 1,
                                               MemAccess::Write);
                if (b.ok() && sys->isCodeMfn(b.paddr.pfn()))
                    pending_smc.push_back(b.paddr.pfn());
            }
        }
        lockstepStepReference(t, now, insn_rip, t.rob[group[0]].uop);
        for (int n = 0; n < count; n++) {
            const RobEntry &e = t.rob[group[n]];
            if (e.uop.isStore() && e.lsq >= 0)
                lockstepCheckStore(t, now, insn_rip, t.stq[e.lsq],
                                   e.uop.size);
        }
    }
    for (int n = 0; n < count; n++) {
        RobEntry &e = t.rob[group[n]];
        if (e.uop.isAssist())
            break;  // executed below, after older effects apply
        commitUopState(t, e);
        if (has_assist) {
            // Pop committed leading uops now so the post-assist flush
            // cannot force-free their (architecturally live) registers.
            t.rob_head = robNext(t, t.rob_head);
            t.rob_used--;
        }
    }

    if (has_assist) {
        RobEntry &e = t.rob[group[count - 1]];
        st_assists++;
        st_commit_uops++;
        AssistResult ar = executeAssist(e.uop.assist(), ctx, *aspace,
                                        *sys, GuestVirt(e.uop.ripseq));
        if (ar.fault != GuestFault::None) {
            st_faults++;
            deliverFault(ctx, *aspace, ar.fault, insn_rip, insn_rip);
            flushThread(t);
            lockstepResync(t);
            redirectFetch(t, ctx.rip, now, cycles(1));
            t.last_commit_cycle = now;
            budget = 0;
            return true;
        }
        ctx.rip = ar.next_rip;
        st_commit_insns++;
        flushThread(t);
        // Assists run microcode with system side effects (hypercalls,
        // TSC reads) that must not execute twice: resync the lockstep
        // shadow instead of replaying.
        lockstepResync(t);
        redirectFetch(t, ctx.rip, now, cycles(1));
        t.last_commit_cycle = now;
        budget = 0;
        return true;
    }

    // Pop the group and update RIP.
    RobEntry &last = t.rob[group[count - 1]];
    ctx.rip = GuestVirt(last.uop.isBranch() ? last.actual_next
                                            : last.uop.ripseq);
    if (trace_commits) {
        std::fprintf(stderr, "[%llu] T%d commit rip=%llx next=%llx %s\n",
                     (unsigned long long)now.raw(),
                     (int)(&t - threads.data()),
                     (unsigned long long)insn_rip.raw(),
                     (unsigned long long)ctx.rip.raw(),
                     uopInfo(last.uop.op).name);
    }
    for (int n = 0; n < count; n++) {
        t.rob_head = robNext(t, t.rob_head);
        t.rob_used--;
    }
    st_commit_insns++;
    budget -= count;
    t.last_commit_cycle = now;

    if (do_lockstep)
        lockstepCompare(t, now, insn_rip);

    if (!pending_smc.empty()) {
        // Committed stores hit translated code: invalidate and restart
        // the front end (our own pipeline is flushed by the hook).
        std::vector<Pfn> mfns = pending_smc;
        pending_smc.clear();
        GuestVirt next = ctx.rip;
        for (Pfn mfn : mfns)
            sys->notifyCodeWrite(mfn);
        // Everything younger in flight may be stale translated code.
        flushThread(t);
        redirectFetch(t, next, now, cycles(2));
        budget = 0;
        return true;
    }
    return true;
}

void
OooCore::stageCommit(SimCycle now)
{
    int budget = cfg.commit_width;
    int n = (int)threads.size();
    for (int k = 0; k < n && budget > 0; k++) {
        int tid = (next_commit_thread + k) % n;
        // Keep committing groups from this thread while budget lasts.
        while (budget > 0) {
            if (!commitThread(now, threads[tid], budget))
                break;
            cycle_activity = true;
        }
    }
    next_commit_thread = rotate(next_commit_thread);
}

}  // namespace ptl
