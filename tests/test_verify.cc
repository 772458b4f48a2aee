/**
 * Tests for the correctness-tooling layer (src/verify): prove that the
 * invariant checker detects deliberately injected corruption in every
 * structure family it audits (ROB, LSQ, PRF, issue queues/scoreboard,
 * MESI directory), and that the lockstep commit checker panics on an
 * architectural divergence from the functional reference.
 */

#include <gtest/gtest.h>

#include "core/ooo/ooocore.h"
#include "guest_harness.h"
#include "mem/coherence.h"
#include "verify/verify.h"

namespace ptl {
namespace {

SimConfig
verifyConfig()
{
    SimConfig cfg = SimConfig::preset("default");
    cfg.core = "ooo";
    return cfg;
}

/** A store/load churn loop that keeps the ROB, both LSQ halves and the
 *  issue queues populated for thousands of cycles. */
void
churnProgram(Assembler &a)
{
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 0);
    Label top = a.label();
    a.mov(R::rax, R::rcx);
    a.imul(R::rax, R::rax, 2654435761);
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rax);
    a.and_(R::rax, 255);
    a.add(R::rdx, Mem::idx(R::rbx, R::rax, 8));
    a.inc(R::rcx);
    a.cmp(R::rcx, 2048);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** Load the churn program and build the OoO core. */
void
startChurn(BareMachine &m)
{
    Assembler a(BareMachine::CODE_BASE);
    churnProgram(a);
    m.load(a);
    m.start();
}

OooCore &
oooCore(BareMachine &m)
{
    return static_cast<OooCore &>(m.core(0));
}

/**
 * Cycle the pipeline, offering `corrupt` a chance after each cycle
 * until it reports it found state to damage. Returns false if the
 * program drained without the corruption ever applying.
 */
template <typename Fn>
bool
corruptMidFlight(BareMachine &m, Fn &&corrupt, U64 max_cycles = 200000)
{
    while (m.now().raw() < max_cycles && !m.allIdle()) {
        m.tick();
        if (corrupt(oooCore(m)))
            return true;
    }
    return false;
}

/** Audit in Count mode and return the violation count. */
int
audit(BareMachine &m, InvariantChecker &chk)
{
    return chk.checkCore(oooCore(m), m.now());
}

TEST(VerifyTest, CleanPipelinePassesEveryCycleAudit)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    int violations = 0;
    while (rig.now().raw() < 200000 && !rig.allIdle()) {
        const bool audit_now = rig.now().raw() % 16 == 0;
        rig.tick();
        if (audit_now)
            violations += audit(rig, chk);
    }
    EXPECT_TRUE(rig.allIdle()) << "program never drained";
    EXPECT_EQ(violations, 0);
    EXPECT_GT(chk.counters().checks.value(), 0u);
    EXPECT_EQ(chk.counters().violations.value(), 0u);
}

TEST(VerifyTest, DetectsRobCountCorruption)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptRobCount(c, 0);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().rob_count.value(), 0u);
}

TEST(VerifyTest, DetectsRobAgeOrderCorruption)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptRobOrder(c, 0);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().rob_order.value(), 0u);
}

TEST(VerifyTest, DetectsLsqAgeCorruption)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptLsqAge(c, 0);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().lsq_age.value()
                  + chk.counters().lsq_state.value(),
              0u);
}

TEST(VerifyTest, DetectsPhysicalRegisterLeak)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptPrfLeak(c);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().prf_leak.value(), 0u);
}

TEST(VerifyTest, DetectsPhysicalRegisterDoubleFree)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptPrfDoubleFree(c);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().prf_double_free.value(), 0u);
}

TEST(VerifyTest, DetectsIssueQueueScoreboardBreak)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptIqReady(c);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().iq_state.value(), 0u);
}

TEST(VerifyTest, DetectsOrphanInterlock)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::plantOrphanInterlock(c);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(audit(rig, chk), 0);
    EXPECT_GT(chk.counters().lsq_state.value(), 0u);
}

TEST(VerifyTest, DetectsIllegalMesiDirectoryState)
{
    StatsTree stats;
    CoherenceController coherence(CoherenceKind::Moesi, 10, stats);

    // A legal directory audits clean.
    InvariantChecker chk(stats, "verify/", InvariantChecker::Action::Count);
    coherence.corruptStateForTest(0, GuestPhys(0x1000), LineState::Modified);
    EXPECT_EQ(chk.checkCoherence(coherence, SimCycle(0)), 0);

    // Two Modified holders of one line is never legal.
    coherence.corruptStateForTest(1, GuestPhys(0x1000), LineState::Modified);
    EXPECT_GT(chk.checkCoherence(coherence, SimCycle(0)), 0);
    EXPECT_GT(chk.counters().mesi.value(), 0u);

    // Exclusive coexisting with a sharer is never legal either.
    CoherenceController c2(CoherenceKind::Moesi, 10, stats);
    c2.corruptStateForTest(0, GuestPhys(0x2000), LineState::Exclusive);
    c2.corruptStateForTest(1, GuestPhys(0x2000), LineState::Shared);
    EXPECT_GT(chk.checkCoherence(c2, SimCycle(0)), 0);
}

TEST(VerifyTest, PanicModeDiesOnCorruption)
{
    BareMachine rig(verifyConfig());
    startChurn(rig);
    ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
        return VerifyTestHook::corruptPrfDoubleFree(c);
    }));
    InvariantChecker chk(rig.stats(), "verify/",
                         InvariantChecker::Action::Panic);
    EXPECT_DEATH(chk.checkCore(oooCore(rig), rig.now()), "double.free|free list");
}

TEST(VerifyTest, LockstepCatchesShadowRegisterDivergence)
{
    SimConfig cfg = verifyConfig();
    cfg.commit_checker = true;
    EXPECT_DEATH(
        {
            BareMachine rig(cfg);
            startChurn(rig);
            // Flip one architectural register bit in the reference's
            // shadow context; the next commits must detect that the
            // pipeline and the reference no longer agree.
            ASSERT_TRUE(corruptMidFlight(rig, [](OooCore &c) {
                return VerifyTestHook::skewShadowReg(c, 0, REG_rdx);
            }));
            for (int i = 0; i < 10000 && !rig.allIdle(); i++)
                rig.tick();
        },
        "lockstep divergence");
}

}  // namespace
}  // namespace ptl
