/**
 * @file
 * OOO core frontend: fetch (from the basic block cache, with I-side
 * timing and branch prediction) and rename/dispatch.
 */

#include <cstring>

#include "core/ooo/ooocore.h"
#include "lib/logging.h"

namespace ptl {

void
OooCore::stageFetch(SimCycle now)
{
    int tid = pickFetchThread(now);
    if (tid < 0) {
        st_fetch_stall++;
        return;
    }
    Thread &t = threads[tid];

    for (int n = 0; n < cfg.fetch_width; n++) {
        if ((int)t.fetch_queue.size() >= cfg.fetch_queue_size) {
            st_fetch_stall++;
            return;
        }
        if (t.fetch_faulted || t.fetch_stall_until > now)
            return;

        // (Re)acquire the fetch block.
        if (!t.fetch_bb || t.fetch_idx >= t.fetch_bb->uops.size()
            || t.bb_generation != bbcache->generation()) {
            Context fctx = *t.ctx;
            fctx.rip = t.fetch_rip;
            GuestFault ff = GuestFault::None;
            ContextCodeSource code(*aspace, fctx);
            const BasicBlock *bb = bbcache->get(code, &ff);
            if (!bb) {
                // Speculative fetch fault: carried by a pseudo-uop and
                // delivered precisely if/when it reaches commit.
                Thread::FetchedUop fu;
                fu.uop.op = UopOp::Nop;
                fu.uop.som = true;
                fu.uop.eom = true;
                fu.uop.rip = t.fetch_rip.raw();
                fu.uop.ripseq = t.fetch_rip.raw();
                fu.fetch_fault = ff;
                fu.ready_at = now + cycles((U64)cfg.frontend_stages);
                t.fetch_queue.push_back(fu);
                t.fetch_faulted = true;
                cycle_activity = true;
                return;
            }
            t.fetch_bb = bb;
            t.fetch_idx = 0;
            t.bb_generation = bbcache->generation();
            // Charge I-TLB/I-cache miss penalties at block boundaries
            // (hits are pipelined into the frontend depth).
            TranslateResult tr = hierarchy->translateFetch(
                t.ctx->cr3, t.fetch_rip, !t.ctx->kernel_mode, now);
            CycleDelta extra = tr.latency;
            if (tr.fault == GuestFault::None) {
                MemResult fa = hierarchy->fetchAccess(tr.paddr, now);
                if (!fa.l1_hit)
                    extra += fa.latency;
            }
            if (extra > cycles(0)) {
                t.fetch_stall_until = now + extra;
                cycle_activity = true;
                return;
            }
        }

        const Uop &u = t.fetch_bb->uops[t.fetch_idx];
        Thread::FetchedUop fu;
        fu.uop = u;
        fu.ready_at = now + cycles((U64)cfg.frontend_stages);

        if (u.isBranch()) {
            bool last = (t.fetch_idx + 1 >= t.fetch_bb->uops.size());
            switch (u.op) {
              case UopOp::BrCC: {
                fu.pred = predictor->predict(u.rip);
                if (fu.pred.taken) {
                    fu.predicted_next = (U64)u.imm;
                    t.fetch_rip = GuestVirt((U64)u.imm);
                    t.fetch_bb = nullptr;
                } else {
                    fu.predicted_next = (U64)u.imm2;
                    if (last) {
                        t.fetch_rip = GuestVirt((U64)u.imm2);
                        t.fetch_bb = nullptr;
                    }
                }
                break;
              }
              case UopOp::Bru:
                if (u.hint_call)
                    predictor->pushReturn(u.ripseq);
                fu.predicted_next = (U64)u.imm;
                t.fetch_rip = GuestVirt((U64)u.imm);
                t.fetch_bb = nullptr;
                break;
              case UopOp::Jmp: {
                U64 predicted = u.hint_ret ? predictor->popReturn()
                                           : predictor->predictTarget(u.rip);
                if (u.hint_call)
                    predictor->pushReturn(u.ripseq);
                if (!predicted)
                    predicted = u.ripseq;  // cold BTB: guess fallthrough
                fu.predicted_next = predicted;
                t.fetch_rip = GuestVirt(predicted);
                t.fetch_bb = nullptr;
                break;
              }
              default:
                break;
            }
            // RAS recovery point: the stack as it stands after this
            // branch's own push/pop (fetch runs ahead of rename, so
            // the checkpoint must be taken here, not at rename).
            fu.ras_top = predictor->rasTop();
            t.fetch_idx++;
            t.fetch_queue.push_back(fu);
            cycle_activity = true;
            continue;
        }

        if (u.isAssist()) {
            // Serializing: stop fetching until the assist commits and
            // redirects the front end.
            t.fetch_idx++;
            t.fetch_queue.push_back(fu);
            t.fetch_faulted = true;
            cycle_activity = true;
            return;
        }

        t.fetch_idx++;
        t.fetch_queue.push_back(fu);
        cycle_activity = true;
    }
}

bool
OooCore::renameOne(SimCycle now, Thread &t, int tid)
{
    Thread::FetchedUop &fu = t.fetch_queue.front();
    const Uop &u = fu.uop;

    if (t.rob_used >= (int)t.rob.size())
        return false;
    // schedWritesRd/schedCls/schedFlagGroups read the metadata cached
    // at decode (Uop::precomputeSched) instead of re-deriving it from
    // the uop table for every dynamic instance.
    bool writes_rd = u.schedWritesRd();
    bool needs_phys = writes_rd || u.setflags != 0;
    bool fp = writes_rd && isFpReg(u.rd);
    if (needs_phys && (fp ? free_fp.empty() : free_int.empty()))
        return false;

    bool direct_done =
        u.isAssist() || u.op == UopOp::Nop
        || fu.fetch_fault != GuestFault::None;
    int qidx = -1;
    if (!direct_done) {
        UopClass cls = u.schedCls();
        if (cls == UopClass::Fpu || cls == UopClass::FpDiv) {
            qidx = fp_queue_index;
        } else if (cls == UopClass::IntMul || cls == UopClass::IntDiv) {
            qidx = 0;  // the multiply/divide lane
        } else {
            // Least-occupied integer lane.
            qidx = 0;
            for (int q = 1; q < cfg.int_iq_count; q++) {
                if (queues[q].used < queues[qidx].used)
                    qidx = q;
            }
        }
        if (queues[qidx].used >= (int)queues[qidx].slots.size())
            return false;
        // SMT deadlock prevention: cap each thread's integer-queue
        // occupancy so a thread spinning in replays (e.g. waiting on
        // an interlock) cannot wedge every shared slot and starve the
        // lock holder out of dispatch.
        if (qidx != fp_queue_index && threads.size() > 1) {
            int total = cfg.int_iq_count * cfg.int_iq_size;
            int cap = std::max(2, total / (int)threads.size());
            if (t.int_iq_inflight >= cap)
                return false;
        }
    }
    if (u.isLoad() && t.ldq_used >= (int)t.ldq.size())
        return false;
    if (u.isStore() && t.stq_used >= (int)t.stq.size())
        return false;

    // Allocate the ROB slot (its index doubles as the checkpoint id).
    int idx = t.rob_tail;
    bool wants_checkpoint = (u.op == UopOp::BrCC || u.op == UopOp::Jmp);
    if (wants_checkpoint && t.checkpoint_used[idx])
        return false;

    t.rob_tail = robNext(t, idx);
    t.rob_used++;
    U64 seq = t.next_seq++;
    RobEntry &e = t.rob[idx];
    e = RobEntry{};
    e.uop = u;
    e.seq = seq;
    e.thread = tid;
    e.pred = fu.pred;
    e.predicted_next = fu.predicted_next;
    e.fault = fu.fetch_fault;
    e.fault_addr = GuestVirt(u.rip);

    // ---- rename sources ----
    auto lookup = [&](int reg) -> int {
        if (reg == REG_zero || reg == REG_none)
            return -1;
        if (reg == REG_zaps)
            return t.spec_rat[FLAG_RAT_BASE + 0];
        if (reg == REG_cf)
            return t.spec_rat[FLAG_RAT_BASE + 1];
        if (reg == REG_of)
            return t.spec_rat[FLAG_RAT_BASE + 2];
        return t.spec_rat[reg];
    };
    if (u.op == UopOp::CollCC) {
        // collcc reads the three *flag group* producers by definition
        // (its register operands name them, but intervening value-only
        // writers may have redirected the register map).
        e.src[0] = t.spec_rat[FLAG_RAT_BASE + 0];
        e.src[1] = t.spec_rat[FLAG_RAT_BASE + 1];
        e.src[2] = t.spec_rat[FLAG_RAT_BASE + 2];
    } else {
        e.src[0] = lookup(u.ra);
        e.src[1] = u.rb_imm ? -1 : lookup(u.rb);
        e.src[2] = lookup(u.rc);
    }
    U8 fgroups = u.schedFlagGroups();
    if (fgroups) {
        int g = (fgroups & SETFLAG_ZAPS) ? 0 : (fgroups & SETFLAG_CF) ? 1 : 2;
        e.src[3] = t.spec_rat[FLAG_RAT_BASE + g];
    }

    // ---- allocate destination ----
    if (needs_phys) {
        e.phys = allocPhys(fp);
        ptl_assert(e.phys >= 0);
        prf[e.phys].cluster =
            (S8)((qidx >= 0) ? queues[qidx].cluster : 0);
        if (writes_rd)
            t.spec_rat[u.rd] = (S16)e.phys;
        if (u.setflags & SETFLAG_ZAPS)
            t.spec_rat[FLAG_RAT_BASE + 0] = (S16)e.phys;
        if (u.setflags & SETFLAG_CF)
            t.spec_rat[FLAG_RAT_BASE + 1] = (S16)e.phys;
        if (u.setflags & SETFLAG_OF)
            t.spec_rat[FLAG_RAT_BASE + 2] = (S16)e.phys;
    }

    // ---- LSQ allocation ----
    if (u.isLoad() || u.isStore()) {
        std::vector<LsqEntry> &lsq = u.isLoad() ? t.ldq : t.stq;
        int slot = -1;
        for (size_t i = 0; i < lsq.size(); i++) {
            if (!lsq[i].valid) {
                slot = (int)i;
                break;
            }
        }
        ptl_assert(slot >= 0);
        lsq[slot] = LsqEntry{};
        lsq[slot].valid = true;
        lsq[slot].rob = idx;
        lsq[slot].seq = seq;
        lsq[slot].locked = u.locked;
        e.lsq = slot;
        (u.isLoad() ? t.ldq_used : t.stq_used)++;
    }

    // ---- checkpoint for recoverable branches ----
    if (wants_checkpoint) {
        RatCheckpoint &c = t.checkpoints[idx];
        std::memcpy(c.map, t.spec_rat, sizeof(c.map));
        c.ras_top = fu.ras_top;       // fetch-time snapshot
        c.history = fu.pred.history;
        t.checkpoint_used[idx] = true;
        e.checkpoint = idx;
    }

    // ---- initial scheduling state ----
    if (direct_done) {
        e.state = RobState::Done;
        if (e.phys >= 0) {
            prf[e.phys].ready = true;
            prf[e.phys].ready_cycle = now;
        }
    } else {
        e.state = RobState::InQueue;
        IssueQueue &iq = queues[qidx];
        e.cluster = iq.cluster;
        for (IqEntry &slot : iq.slots) {
            if (!slot.valid) {
                slot.valid = true;
                slot.thread = (S16)tid;
                slot.rob = (S16)idx;
                slot.seq = seq;
                // Seed the wakeup state: sources that already executed
                // set their ready bits here (folding their
                // bypass-adjusted ready times into wake_cycle); the
                // rest are completed by broadcastReady when their
                // producers finish. Rename runs after issue, so a
                // producer completing this very cycle is visible in
                // the PRF by now — no broadcast can be missed.
                slot.wake_cycle = SimCycle(0);
                int slot_idx = (int)(&slot - iq.slots.data());
                U8 mask = 0;
                for (int s = 0; s < 4; s++) {
                    int p = e.src[s];
                    slot.src[s] = (S16)p;
                    if (p < 0) {
                        mask |= (U8)(1 << s);
                        continue;
                    }
                    const PhysReg &r = prf[p];
                    if (r.ready) {
                        mask |= (U8)(1 << s);
                        SimCycle eff =
                            effectiveReadyCycle(r, iq.cluster);
                        if (eff > slot.wake_cycle)
                            slot.wake_cycle = eff;
                    } else {
                        addWaiter(p, qidx, slot_idx, s);
                    }
                }
                slot.ready_mask = mask;
                iq.used++;
                if (qidx != fp_queue_index)
                    t.int_iq_inflight++;
                break;
            }
        }
    }
    return true;
}

void
OooCore::stageRename(SimCycle now)
{
    int budget = cfg.frontend_width;
    int n = (int)threads.size();
    for (int k = 0; k < n && budget > 0; k++) {
        int tid = (next_rename_thread + k) % n;
        Thread &t = threads[tid];
        while (budget > 0 && !t.fetch_queue.empty()) {
            if (t.fetch_queue.front().ready_at > now)
                break;
            if (!renameOne(now, t, tid)) {
                st_rename_stall++;
                break;
            }
            t.fetch_queue.pop_front();
            budget--;
            cycle_activity = true;
        }
    }
    next_rename_thread = rotate(next_rename_thread);
}

}  // namespace ptl
