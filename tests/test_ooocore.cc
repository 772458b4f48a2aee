/**
 * Out-of-order core tests. The strongest property here mirrors the
 * paper's co-simulation self-validation: every program runs with the
 * commit checker enabled (each committed uop is re-verified against an
 * in-order architectural replay), and a parameterized equivalence
 * suite runs identical guest programs on the functional engine and the
 * OOO pipeline, requiring bit-identical final architectural state.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "core/ooo/ooocore.h"
#include "forwarding_core.h"
#include "guest_harness.h"
#include "verify/verify.h"

namespace ptl {
namespace {

SimConfig
oooConfig()
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.commit_checker = true;
    return cfg;
}

// ---------------------------------------------------------------------
// Equivalence: functional engine vs OOO pipeline
// ---------------------------------------------------------------------

struct Program
{
    const char *name;
    void (*body)(Assembler &);
};

void
progArithLoop(Assembler &a)
{
    a.mov(R::rax, 1);
    a.mov(R::rcx, 20);
    Label top = a.label();
    a.imul(R::rax, R::rcx);
    a.add(R::rax, 7);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
progMemoryChurn(Assembler &a)
{
    // Write then re-read a table with data-dependent addressing.
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 0);
    Label fill = a.label();
    a.mov(R::rax, R::rcx);
    a.imul(R::rax, R::rax, 2654435761);
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rax);
    a.inc(R::rcx);
    a.cmp(R::rcx, 256);
    a.jcc(COND_ne, fill);
    a.mov(R::rdx, 0);
    a.mov(R::rcx, 0);
    Label sum = a.label();
    a.mov(R::rax, Mem::idx(R::rbx, R::rcx, 8));
    a.add(R::rdx, R::rax);
    a.and_(R::rax, 255);
    a.add(R::rdx, Mem::idx(R::rbx, R::rax, 8));  // dependent load
    a.inc(R::rcx);
    a.cmp(R::rcx, 256);
    a.jcc(COND_ne, sum);
    a.hlt();
}

void
progCallsAndStack(Assembler &a)
{
    Label fib = a.newLabel(), start = a.newLabel();
    a.jmp(start);
    // fib(rdi) -> rax, recursive.
    a.bind(fib);
    a.cmp(R::rdi, 2);
    Label recurse = a.newLabel();
    a.jcc(COND_nb, recurse);
    a.mov(R::rax, R::rdi);
    a.ret();
    a.bind(recurse);
    a.push(R::rdi);
    a.sub(R::rdi, 1);
    a.call(fib);
    a.pop(R::rdi);
    a.push(R::rax);
    a.sub(R::rdi, 2);
    a.call(fib);
    a.pop(R::rcx);
    a.add(R::rax, R::rcx);
    a.ret();
    a.bind(start);
    a.mov(R::rdi, 12);
    a.call(fib);
    a.hlt();
}

void
progFlagsTorture(Assembler &a)
{
    // adc chains, inc/dec CF preservation, setcc/cmov, rotates.
    a.mov(R::rax, 0);
    a.mov(R::rbx, 0);
    a.mov(R::rcx, 100);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.imul(R::rdx, R::rdx, 0x9E3779B9);
    a.add(R::rax, R::rdx);          // sets CF sometimes
    a.adc(R::rbx, 0);               // accumulate carries
    a.inc(R::rax);                  // preserves CF
    a.adc(R::rbx, 0);
    a.setcc(COND_s, R::rsi);
    a.add(R::rbx, R::rsi);
    a.rol(R::rax, 7);
    a.cmp(R::rdx, R::rax);
    a.cmovcc(COND_b, R::rdx, R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
progStringAndDiv(Assembler &a)
{
    a.movImm64(R::rdi, BareMachine::DATA_BASE);
    a.mov(R::rax, 0x5A);
    a.mov(R::rcx, 777);
    a.cld();
    a.repStosb();
    a.movImm64(R::rsi, BareMachine::DATA_BASE);
    a.movImm64(R::rdi, BareMachine::DATA_BASE + 0x2000);
    a.mov(R::rcx, 777);
    a.repMovsb();
    a.movImm64(R::rax, 123456789123ULL);
    a.mov(R::rdx, 0);
    a.mov(R::rbx, 1000003);
    a.div(R::rbx);
    a.hlt();
}

void
progStoreLoadForwarding(Assembler &a)
{
    // Tight store->load dependencies through the stack.
    a.mov(R::rcx, 200);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.push(R::rcx);
    a.add(R::rax, Mem::at(R::rsp));   // forwarded from the push
    a.pop(R::rdx);
    a.mov(Mem::at(R::rsp, -16), R::rax);
    a.mov(R::rbx, Mem::at(R::rsp, -16));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
progSseMix(Assembler &a)
{
    a.mov(R::rax, 3);
    a.cvtsi2sd(X::xmm0, R::rax);
    a.mov(R::rcx, 50);
    Label top = a.label();
    a.mov(R::rax, R::rcx);
    a.cvtsi2sd(X::xmm1, R::rax);
    a.mulsd(X::xmm1, X::xmm1);
    a.addsd(X::xmm0, X::xmm1);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.sqrtsd(X::xmm0, X::xmm0);
    a.cvttsd2si(R::rbx, X::xmm0);
    a.hlt();
}

const Program kPrograms[] = {
    {"arith_loop", progArithLoop},
    {"memory_churn", progMemoryChurn},
    {"calls_and_stack", progCallsAndStack},
    {"flags_torture", progFlagsTorture},
    {"string_and_div", progStringAndDiv},
    {"store_load_forwarding", progStoreLoadForwarding},
    {"sse_mix", progSseMix},
};

class OooEquivalence : public ::testing::TestWithParam<size_t>
{
};

TEST_P(OooEquivalence, MatchesFunctionalEngine)
{
    const Program &prog = kPrograms[GetParam()];

    // Reference run on the functional engine.
    GuestRunner ref;
    {
        Assembler a(GuestRunner::CODE_BASE);
        prog.body(a);
        ref.load(a);
        ref.run(2'000'000);
    }

    // Pipelined run with the commit checker armed.
    BareMachine ooo(oooConfig());
    {
        Assembler a(BareMachine::CODE_BASE);
        prog.body(a);
        ooo.load(a);
        ooo.start();
        ooo.run(20'000'000);
    }

    for (int r = 0; r < 16; r++) {
        if (r == (int)R::rsp)
            continue;  // compared below
        ASSERT_EQ(ooo.vcpu(0).regs[r], ref.ctx.regs[r])
            << prog.name << ": GPR " << uopRegName(r);
    }
    EXPECT_EQ(ooo.vcpu(0).regs[REG_rsp] - (BareMachine::STACK_TOP - 64),
              ref.ctx.regs[REG_rsp] - (GuestRunner::STACK_TOP - 64))
        << prog.name << ": stack depth";
    for (int x = REG_xmm0; x <= REG_xmm15; x++)
        ASSERT_EQ(ooo.vcpu(0).regs[x], ref.ctx.regs[x])
            << prog.name << ": " << uopRegName(x);
    // Same dynamic instruction count.
    EXPECT_EQ(ooo.stats().get("core0/commit/insns"),
              ref.stats.get("commit/insns"))
        << prog.name;
    // Data region contents identical.
    for (U64 off = 0; off < 0x3000; off += 8) {
        ASSERT_EQ(ooo.readGuest(BareMachine::DATA_BASE + off, 8),
                  ref.readGuest(GuestRunner::DATA_BASE + off, 8))
            << prog.name << " data at +" << off;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, OooEquivalence,
    ::testing::Range<size_t>(0, sizeof(kPrograms) / sizeof(kPrograms[0])),
    [](const ::testing::TestParamInfo<size_t> &pinfo) {
        return kPrograms[pinfo.param].name;
    });

// ---------------------------------------------------------------------
// Microarchitectural behaviour
// ---------------------------------------------------------------------

TEST(OooCoreTest, AchievesIlpOnIndependentOps)
{
    // A long stream of independent single-cycle ops must commit at
    // well above 1 IPC on the 3-wide K8 configuration.
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    a.mov(R::r8, 1);
    a.mov(R::r9, 2);
    a.mov(R::r10, 3);
    a.mov(R::rcx, 50);          // warm iterations amortize cold caches
    Label top = a.label();
    for (int i = 0; i < 100; i++) {
        a.add(R::r8, 5);
        a.add(R::r9, 7);
        a.add(R::r10, 9);
    }
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    U64 cycles = r.run();
    U64 insns = r.stats().get("core0/commit/insns");
    double ipc = (double)insns / (double)cycles;
    EXPECT_GT(ipc, 1.5) << "cycles=" << cycles << " insns=" << insns;
    EXPECT_EQ(r.reg(R::r8), 1 + 5 * 100 * 50ULL);
}

TEST(OooCoreTest, DependencyChainLimitsIpc)
{
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    a.mov(R::rax, 1);
    for (int i = 0; i < 600; i++)
        a.imul(R::rax, R::rax, 3);  // serial 3-cycle chain
    a.hlt();
    r.load(a);
    r.start();
    U64 cycles = r.run();
    U64 insns = r.stats().get("core0/commit/insns");
    // Each imul takes lat_mul cycles back-to-back.
    EXPECT_GT((double)cycles / (double)insns, 2.0);
}

TEST(OooCoreTest, BranchMispredictsAreCounted)
{
    // Data-dependent unpredictable-ish branch pattern.
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    a.mov(R::rbx, 12345);
    a.mov(R::rcx, 2000);
    a.mov(R::rdx, 0);
    Label top = a.label();
    // xorshift step
    a.mov(R::rax, R::rbx);
    a.shl(R::rax, 13);
    a.xor_(R::rbx, R::rax);
    a.mov(R::rax, R::rbx);
    a.shr(R::rax, 7);
    a.xor_(R::rbx, R::rax);
    a.test(R::rbx, 1);
    Label skip = a.newLabel();
    a.jcc(COND_e, skip);
    a.inc(R::rdx);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    r.run();
    EXPECT_GT(r.stats().get("core0/branches/cond"), 3000ULL);
    EXPECT_GT(r.stats().get("core0/branches/mispredicted"), 100ULL);
    // The loop-closing branch trains perfectly, so the rate is < 50%.
    EXPECT_LT(r.stats().get("core0/branches/mispredicted"),
              r.stats().get("core0/branches/cond") / 2);
}

TEST(OooCoreTest, StoreToLoadForwardingCounted)
{
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    progStoreLoadForwarding(a);
    r.load(a);
    r.start();
    r.run();
    EXPECT_GT(r.stats().get("core0/lsq/forwards"), 100ULL);
}

TEST(OooCoreTest, DisambiguationUsesPhysicalAddresses)
{
    // Two virtual windows onto one physical frame: a store through one
    // mapping must be visible to an immediately following load through
    // the other. The LSQ disambiguates by physical address (like the
    // paper's LSQ), so the load either forwards from the store queue or
    // replays until the store commits; matching on virtual addresses
    // alone would let the load read the frame's stale contents.
    constexpr U64 ALIAS = 0x5000000;
    SimConfig cfg = oooConfig();
    cfg.load_hoisting = true;
    BareMachine r(cfg);
    Pfn mfn = r.addressSpace().walk(r.cr3(), GuestVirt(BareMachine::DATA_BASE)).mfn;
    r.addressSpace().map(r.cr3(), GuestVirt(ALIAS), mfn,
                 Pte::RW | Pte::US | Pte::NX);

    Assembler a(BareMachine::CODE_BASE);
    a.mov(R::rcx, 100);
    a.mov(R::r8, 0);
    Label top = a.label();
    // Slow store address (dependency chain) through one mapping, fast
    // load address through the other: the load hoists past the store
    // and must be squashed when the store resolves onto the frame.
    a.mov(R::rax, R::rdi);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.mov(Mem::at(R::rax), R::rcx);   // store through DATA_BASE
    a.mov(R::rdx, Mem::at(R::rsi));   // aliasing load via ALIAS
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.vcpu(0).regs[REG_rdi] = BareMachine::DATA_BASE + 0x40;
    r.vcpu(0).regs[REG_rsi] = ALIAS + 0x40;
    r.start();
    r.run();
    EXPECT_EQ(r.reg(R::r8), 5050ULL);
}

TEST(OooCoreTest, ReturnAddressStackPredictsReturns)
{
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    progCallsAndStack(a);
    r.load(a);
    r.start();
    r.run();
    U64 rets = r.stats().get("core0/branches/indirect");
    U64 miss = r.stats().get("core0/branches/indirect_mispredicted");
    EXPECT_GT(rets, 100ULL);
    // Top-pointer-repair RAS (as on real K8): wrong-path pops/pushes
    // after leaf-branch mispredicts corrupt some slots, so recursive
    // fib sees a nonzero but bounded return mispredict rate.
    EXPECT_LT((double)miss / (double)rets, 0.35);
}

TEST(OooCoreTest, LoadHoistingFlushesOnViolation)
{
    SimConfig cfg = oooConfig();
    cfg.load_hoisting = true;
    BareMachine r(cfg);
    Assembler a(BareMachine::CODE_BASE);
    // Store with a slow-to-resolve address followed by a load of the
    // same location: hoisted loads must be squashed and re-run.
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.movStoreImm32(Mem::at(R::rbx), 1111);
    a.mov(R::rcx, 100);
    a.mov(R::r8, 0);
    Label top = a.label();
    // Slow address: chain of multiplies producing rbx again.
    a.mov(R::rax, R::rbx);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.mov(Mem::at(R::rax), R::rcx);    // store (address late)
    a.mov(R::rdx, Mem::at(R::rbx));    // aliasing load (address early)
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    r.run();
    // Functional result must be exact despite speculation: sum of
    // rcx values 100..1.
    EXPECT_EQ(r.reg(R::r8), 5050ULL);
    EXPECT_GT(r.stats().get("core0/lsq/hoist_flushes"), 0ULL);
}

TEST(OooCoreTest, NoHoistingWaitsInstead)
{
    BareMachine r(oooConfig());  // K8 preset: hoisting off
    Assembler a(BareMachine::CODE_BASE);
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 50);
    a.mov(R::r8, 0);
    Label top = a.label();
    a.mov(Mem::at(R::rbx), R::rcx);
    a.mov(R::rdx, Mem::at(R::rbx));
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    r.run();
    EXPECT_EQ(r.reg(R::r8), 1275ULL);  // 50+49+...+1
    EXPECT_EQ(r.stats().get("core0/lsq/hoist_flushes"), 0ULL);
}

TEST(OooCoreTest, DivideFaultIsPrecise)
{
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    Label handler = a.newLabel();
    a.mov(R::rbx, 111);            // committed before the fault
    a.mov(R::rdx, 0);
    a.mov(R::rax, 5);
    a.mov(R::rcx, 0);
    a.div(R::rcx);                 // #DE
    a.mov(R::rbx, 999);            // must never commit
    a.hlt();
    a.bind(handler);
    a.pop(R::rsi);                 // fault word
    a.hlt();
    r.load(a);
    r.vcpu(0).event_callback = a.labelVa(handler);
    r.vcpu(0).kernel_sp = BareMachine::STACK_TOP - 0x1000;
    r.start();
    r.run();
    EXPECT_EQ(r.reg(R::rbx), 111ULL);
    EXPECT_EQ(r.reg(R::rsi) >> 48, (U64)GuestFault::DivideError);
}

TEST(OooCoreTest, SelfModifyingCodeFlushesPipeline)
{
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    Label again = a.newLabel(), done = a.newLabel();
    Label site = a.newLabel();
    a.mov(R::rbx, 0);
    a.bind(again);
    a.bind(site);
    a.mov(R::rax, 1);
    a.inc(R::rbx);
    a.cmp(R::rbx, 2);
    a.jcc(COND_e, done);
    a.movLabel(R::rdx, site);
    a.mov(R::rcx, 2);
    a.mov8(Mem::at(R::rdx, 1), R::rcx);
    a.jmp(again);
    a.bind(done);
    a.hlt();
    r.load(a);
    r.start();
    r.run();
    EXPECT_EQ(r.reg(R::rax), 2ULL);
    EXPECT_GT(r.stats().get("bbcache/smc_invalidations"), 0ULL);
}

TEST(OooCoreTest, EventDeliveryAtInstructionBoundary)
{
    BareMachine r(oooConfig());
    Assembler a(BareMachine::CODE_BASE);
    Label handler = a.newLabel(), spin = a.newLabel();
    a.mov(R::rax, 0);
    a.sti();
    a.bind(spin);
    a.inc(R::rax);
    a.cmp(R::rbx, 1);
    a.jcc(COND_ne, spin);
    a.hlt();
    a.bind(handler);
    a.add(R::rsp, 8);
    a.mov(R::rbx, 1);
    a.iretq();
    r.load(a);
    r.vcpu(0).event_callback = a.labelVa(handler);
    r.vcpu(0).kernel_sp = BareMachine::STACK_TOP - 0x1000;
    r.vcpu(0).regs[REG_rbx] = 0;
    r.start();
    // Run a while, then raise the event.
    for (U64 c = 0; c < 2000; c++)
        r.core(0).cycle(SimCycle(c));
    r.vcpu(0).event_pending = true;
    for (U64 c = 2000; c < 100000 && !r.core(0).allIdle(); c++)
        r.core(0).cycle(SimCycle(c));
    EXPECT_TRUE(r.core(0).allIdle());
    EXPECT_EQ(r.reg(R::rbx), 1ULL);
    EXPECT_GT(r.stats().get("core0/commit/events_delivered"), 0ULL);
}

TEST(OooCoreTest, DcacheMissesStallLoads)
{
    SimConfig cfg = oooConfig();
    BareMachine r(cfg);
    Assembler a(BareMachine::CODE_BASE);
    // Pointer-chase through a large stride to defeat the L1.
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 200);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 12);               // 4 KB stride: unique lines+pages
    a.add(R::rdx, R::rbx);
    a.add(R::rax, Mem::at(R::rdx));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    U64 cycles = r.run();
    EXPECT_GT(r.stats().get("core0/dcache/misses"), 150ULL);
    EXPECT_GT(r.stats().get("core0/dtlb/misses"), 100ULL);
    EXPECT_GT(r.stats().get("core0/walker/walks"), 100ULL);
    // The independent misses overlap through the 8 MSHRs (memory-level
    // parallelism), so the bound is mem_latency * misses / mshr_count.
    EXPECT_GT(cycles, 200ULL * 112 / 8);
}

// ---------------------------------------------------------------------
// Skip-ahead scheduling
// ---------------------------------------------------------------------

// Serial pointer-chase: every load address depends on the previous
// load's value, so each D-cache/TLB miss fully drains the pipeline and
// leaves long stretches of quiesced cycles for skip-ahead to jump.
void
progSerialMissChain(Assembler &a)
{
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 64);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 13);               // 8 KB stride: unique lines+pages
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);           // serialize on the previous load
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);           // memory is zero-filled: rax stays 0
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

TEST(OooCoreTest, SkipAheadCoversLongStalls)
{
    SimConfig cfg = oooConfig();     // commit checker stays on: every
    ASSERT_TRUE(cfg.skip_ahead);     // committed uop is lockstep-checked
    BareMachine r(cfg);
    Assembler a(BareMachine::CODE_BASE);
    progSerialMissChain(a);
    r.load(a);
    r.start();
    r.run();
    EXPECT_EQ(r.reg(R::rax), 0ULL);
    EXPECT_EQ(r.reg(R::rcx), 0ULL);
    EXPECT_GT(r.stats().get("core0/dcache/misses"), 50ULL);
    // The serial chain stalls the whole core for ~memory latency per
    // iteration; the fast path must absorb most of those cycles.
    EXPECT_GT(r.stats().get("core0/ooocore/skipped_cycles"), 1000ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/wakeup_broadcasts"), 0ULL);
    // Skipped cycles still count as simulated cycles.
    EXPECT_GT(r.stats().get("core0/cycles"),
              r.stats().get("core0/ooocore/skipped_cycles"));
}

/** One SMT core running `threads` VCPUs under fetch policy `policy`. */
void
smtInput(SimConfig &cfg, int threads, SmtPolicy policy)
{
    cfg.core = "smt";
    cfg.smt_threads = threads;
    cfg.vcpu_count = threads;
    cfg.smt_policy = policy;
}

TEST(OooCoreTest, SkipAheadIsDeterministic)
{
    // Identical guest program with skip-ahead on vs off must produce
    // bit-identical architectural results AND identical timing: same
    // final cycle count, same commit stream length. Only host work may
    // differ. (Per-stage stall counters are excluded by design: they
    // count evaluated cycles only, and skip-ahead evaluates fewer.)
    // Skip-ahead runs twice through BareMachine::run: behind a
    // forwarding core that hides sleepUntil/skipCycles, so the loop
    // calls cycle() on every cycle, and behind one that forwards them,
    // so the loop jumps over the quiet cycles; both must match.
    // Inputs beyond one thread: SMT under each fetch policy (the
    // quiesced fast path must keep the arbitration rotors where a
    // cycle-by-cycle run leaves them), two cores, and the per-cycle
    // auditor (which must not cap skipping).
    registerForwardingCores();
    struct Input
    {
        const char *name;
        void (*shape)(SimConfig &);
    };
    const Input inputs[] = {
        {"one thread", [](SimConfig &) {}},
        {"smt2 round-robin",
         [](SimConfig &c) { smtInput(c, 2, SmtPolicy::RoundRobin); }},
        {"smt2 icount",
         [](SimConfig &c) { smtInput(c, 2, SmtPolicy::Icount); }},
        {"smt4 round-robin",
         [](SimConfig &c) { smtInput(c, 4, SmtPolicy::RoundRobin); }},
        {"two cores", [](SimConfig &c) { c.vcpu_count = 2; }},
        {"auditor on", [](SimConfig &c) { c.verify = true; }},
    };
    // Run 0: skip-ahead off. Run 1: on, per-cycle loop. Run 2: on,
    // with the machine-level jump.
    const char *wrappers[3] = {"", "fwd.", "fwdjump."};
    for (const Input &in : inputs) {
        SCOPED_TRACE(in.name);
        // Everything that must match, per run: the cycle count, then
        // rax/rsp per VCPU, then insns/uops/branches/cycles per core.
        std::vector<U64> observed[3];
        U64 skipped[3] = {0, 0, 0};
        U64 jumped = 0;
        for (int run = 0; run < 3; run++) {
            SimConfig cfg = oooConfig();
            in.shape(cfg);
            cfg.skip_ahead = (run > 0);
            cfg.core = wrappers[run] + cfg.core;
            BareMachine r(cfg);
            Assembler a(BareMachine::CODE_BASE);
            progSerialMissChain(a);
            for (int v = 0; v < r.vcpuCount(); v++)
                r.load(a, v);
            r.start();
            const U64 skips_before = forwardedSkips();
            std::vector<U64> &o = observed[run];
            o.push_back(r.run());
            for (int v = 0; v < r.vcpuCount(); v++) {
                o.push_back(r.reg(R::rax, v));
                o.push_back(r.reg(R::rsp, v));
            }
            for (int c = 0; c < r.coreCount(); c++) {
                std::string core = "core" + std::to_string(c) + "/";
                for (const char *stat : {"commit/insns", "commit/uops",
                                         "branches/total", "cycles"})
                    o.push_back(r.stats().get(core + stat));
                skipped[run] +=
                    r.stats().get(core + "ooocore/skipped_cycles");
            }
            if (run == 2)
                jumped = forwardedSkips() - skips_before;
        }
        EXPECT_EQ(observed[0], observed[1]);
        EXPECT_EQ(observed[0], observed[2]);
        EXPECT_EQ(skipped[0], 0ULL);
        EXPECT_GT(skipped[1], 0ULL);
        EXPECT_EQ(skipped[1], skipped[2]);
        EXPECT_GT(jumped, 0ULL);
    }
}

/** Every core0/ counter of a run, by path, except the auditor's own
 *  (core0/verify/ exists only when PTLSIM_VERIFY attaches one). */
std::map<std::string, U64>
coreCounters(StatsTree &stats)
{
    std::map<std::string, U64> out;
    for (const std::string &p : stats.paths()) {
        if (p.rfind("core0/", 0) == 0 && p.rfind("core0/verify/", 0) != 0)
            out[p] = stats.get(p);
    }
    return out;
}

// ---------------------------------------------------------------------
// Issue-queue geometry and the SMT rotors
// ---------------------------------------------------------------------

TEST(OooCoreTest, FullSizeIssueQueueWakesEverySlot)
{
    // A 120-add dependent chain behind a load, on one 64-slot integer
    // lane: the chain fills every slot, the highest ones included, and
    // each must be woken by its producer's broadcast. A lost wakeup
    // shows up as the SMT deadlock rescue flushing the stuck thread.
    SimConfig cfg = oooConfig();
    cfg.int_iq_count = 1;
    cfg.int_iq_size = 64;
    BareMachine r(cfg);
    Assembler a(BareMachine::CODE_BASE);
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 50);
    Label top = a.label();
    a.mov(R::rax, Mem::at(R::rbx));
    for (int i = 0; i < 120; i++)
        a.add(R::rax, 1);
    a.mov(Mem::at(R::rbx), R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    U64 elapsed = r.run(100'000);
    EXPECT_EQ(r.reg(R::rax), 50ULL * 120);
    EXPECT_EQ(r.stats().get("core0/smt/deadlock_rescues"), 0ULL);
    EXPECT_LT(elapsed, 20'000ULL);
}

TEST(OooCoreTest, SmtRotorsStayInRange)
{
    // Per cycle, under SMT: every rotor stays a thread index.
    {
        SimConfig cfg = oooConfig();
        smtInput(cfg, 3, SmtPolicy::RoundRobin);
        BareMachine r(cfg);
        Assembler a(BareMachine::CODE_BASE);
        progSerialMissChain(a);
        for (int v = 0; v < r.vcpuCount(); v++)
            r.load(a, v);
        r.start();
        auto &core = dynamic_cast<OooCore &>(r.core(0));
        while (!r.allIdle()) {
            r.tick();
            for (int rotor : VerifyTestHook::rotors(core)) {
                ASSERT_GE(rotor, 0);
                ASSERT_LT(rotor, 3);
            }
        }
    }
    // In bulk, on one thread: a skip far past 2^31 cycles (where an
    // unbounded int rotor would overflow) leaves them at 0 and counts
    // every skipped cycle.
    SimConfig cfg = oooConfig();
    BareMachine r(cfg);
    Assembler a(BareMachine::CODE_BASE);
    progSerialMissChain(a);
    r.load(a);
    r.start();
    r.run();
    auto &core = dynamic_cast<OooCore &>(r.core(0));
    // The halted core arms an endless quiet window one cycle later.
    for (int i = 0; i < 4 && core.sleepUntil(r.now()) == r.now(); i++)
        r.tick();
    ASSERT_TRUE(core.sleepUntil(r.now()).never());
    const CycleDelta n = cycles(5ULL << 31);
    const U64 cycles_before = r.stats().get("core0/cycles");
    const U64 skipped_before = r.stats().get("core0/ooocore/skipped_cycles");
    core.skipCycles(r.now(), n);
    EXPECT_EQ(VerifyTestHook::rotors(core), (std::array<int, 3>{0, 0, 0}));
    EXPECT_EQ(r.stats().get("core0/cycles"), cycles_before + n.raw());
    EXPECT_EQ(r.stats().get("core0/ooocore/skipped_cycles"),
              skipped_before + n.raw());
}

// ---------------------------------------------------------------------
// Select order
// ---------------------------------------------------------------------

/** bench/bench_simspeed.cpp's measured kernel: a hash-and-update loop
 *  with real memory traffic and data-dependent branches. */
void
progHashKernel(Assembler &a)
{
    Label restart = a.newLabel();
    a.bind(restart);
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 20000);
    a.mov(R::rax, 12345);
    Label top = a.label();
    a.mov(R::rdx, R::rax);
    a.and_(R::rdx, 0xFFF8);
    a.mov(R::rsi, Mem::idx(R::rbx, R::rdx, 1));
    a.add(R::rax, R::rsi);
    a.imul(R::rax, R::rax, 0x9E3779B9);
    a.mov(Mem::idx(R::rbx, R::rdx, 1), R::rax);
    a.test(R::rax, 0x100);
    Label skip = a.newLabel();
    a.jcc(COND_e, skip);
    a.add(R::rax, 7);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.jmp(restart);   // runs forever; the test bounds cycles
}

/** Select under pressure: independent multiplies and a divide contend
 *  for the one multiplier and divider, a load forwards from the store
 *  just before it, a narrower load inside a wider store and a load
 *  behind a store whose address waits on the divide both replay, and
 *  a branch on hashed data mispredicts. */
void
progSelectContention(Assembler &a)
{
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 400);
    a.mov(R::rax, 0x12345);
    a.mov(R::rdi, 7);
    Label top = a.label();
    a.imul(R::rsi, R::rcx, 37);
    a.imul(R::r8, R::rcx, 91);
    a.imul(R::r9, R::rax, 13);
    a.mov(R::r10, R::rax);
    a.mov(R::rdx, 0);
    a.mov(R::rax, R::rcx);
    a.add(R::rax, 1000);
    a.div(R::rdi);
    a.mov(R::r11, R::rdx);
    a.mov(R::rax, R::r10);
    a.mov(Mem::at(R::rbx), R::rsi);
    a.add(R::rax, Mem::at(R::rbx));
    a.mov(Mem::at(R::rbx, 64), R::r8);
    a.mov32(R::r12, Mem::at(R::rbx, 66));
    a.add(R::rax, R::r12);
    a.mov(Mem::idx(R::rbx, R::r11, 8, 256), R::r9);
    a.add(R::rax, Mem::at(R::rbx, 320));
    a.test(R::r9, 0x10);
    Label skip = a.newLabel();
    a.jcc(COND_e, skip);
    a.xor_(R::rax, R::r8);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

struct PinnedCounter
{
    const char *path;
    U64 value;
};

/** Require exactly `golden` as the core0/ counters; on a mismatch,
 *  list this run's value of every differing path, in table form. */
void
expectCountersPinned(StatsTree &stats,
                     const std::vector<PinnedCounter> &golden)
{
    std::map<std::string, U64> want;
    for (const PinnedCounter &c : golden)
        want[c.path] = c.value;
    std::map<std::string, U64> got = coreCounters(stats);
    std::string diff;
    for (const auto &[path, value] : got) {
        auto it = want.find(path);
        if (it == want.end() || it->second != value)
            diff += strprintf("    {\"%s\", %llu},\n", path.c_str(),
                              (unsigned long long)value);
    }
    for (const auto &[path, value] : want) {
        if (!got.count(path))
            diff += "    missing: " + path + "\n";
    }
    EXPECT_TRUE(diff.empty()) << "core0 counters differ:\n" << diff;
}

// Every core0/ counter of each run below, recorded with the select
// loop that rescanned each queue once per issue port. Select picks the
// same uops in the same order, so the one-pass select must leave every
// counter (cycles, commits, replays, forwards, mispredicts, stalls,
// cache and predictor traffic) exactly as it did.
const std::vector<PinnedCounter> kHashKernelCounters = {
    {"core0/branches/cond", 1750},
    {"core0/branches/indirect", 0},
    {"core0/branches/indirect_mispredicted", 0},
    {"core0/branches/mispredicted", 332},
    {"core0/branches/total", 1819},
    {"core0/branchpred/btb_hits", 0},
    {"core0/branchpred/btb_misses", 0},
    {"core0/branchpred/predictions", 3529},
    {"core0/branchpred/ras_pops", 0},
    {"core0/branchpred/ras_pushes", 0},
    {"core0/checker/commits", 5342},
    {"core0/checker/lockstep_commits", 5342},
    {"core0/checker/lockstep_skips", 0},
    {"core0/checker/t0/branches/cond", 1018},
    {"core0/checker/t0/branches/indirect", 0},
    {"core0/checker/t0/branches/indirect_mispredicted", 0},
    {"core0/checker/t0/branches/mispredicted", 0},
    {"core0/checker/t0/branches/total", 1018},
    {"core0/checker/t0/commit/assists", 0},
    {"core0/checker/t0/commit/events_delivered", 0},
    {"core0/checker/t0/commit/faults_delivered", 0},
    {"core0/checker/t0/commit/insns", 5342},
    {"core0/checker/t0/commit/k8ops", 5342},
    {"core0/checker/t0/commit/loads", 509},
    {"core0/checker/t0/commit/stores", 509},
    {"core0/checker/t0/commit/uops", 5342},
    {"core0/checker/t0/profile/modeled_cycles", 0},
    {"core0/commit/assists", 0},
    {"core0/commit/events_delivered", 0},
    {"core0/commit/faults_delivered", 0},
    {"core0/commit/insns", 5342},
    {"core0/commit/loads", 509},
    {"core0/commit/stores", 509},
    {"core0/commit/uops", 5342},
    {"core0/cycles", 60000},
    {"core0/dcache/accesses", 1183},
    {"core0/dcache/bank_conflicts", 0},
    {"core0/dcache/misses", 407},
    {"core0/dcache/mshr_full", 0},
    {"core0/dcache/policy_evictions", 19},
    {"core0/dcache/prefetches", 0},
    {"core0/dtlb/accesses", 1019},
    {"core0/dtlb/hits", 987},
    {"core0/dtlb/l2_hits", 0},
    {"core0/dtlb/misses", 32},
    {"core0/icache/accesses", 3971},
    {"core0/icache/misses", 1},
    {"core0/icache/policy_evictions", 0},
    {"core0/itlb/accesses", 3971},
    {"core0/itlb/hits", 3970},
    {"core0/itlb/misses", 1},
    {"core0/l2/accesses", 408},
    {"core0/l2/misses", 406},
    {"core0/l2/policy_evictions", 0},
    {"core0/l3/accesses", 0},
    {"core0/l3/misses", 0},
    {"core0/l3/policy_evictions", 0},
    {"core0/lsq/forwards", 0},
    {"core0/lsq/hoist_flushes", 0},
    {"core0/lsq/replays", 0},
    {"core0/mem/accesses", 406},
    {"core0/mem/writebacks", 0},
    {"core0/membackend/reads", 407},
    {"core0/membackend/writes", 0},
    {"core0/ooocore/skipped_cycles", 50052},
    {"core0/ooocore/wakeup_broadcasts", 5025},
    {"core0/pipeline/fetch_stalls", 4019},
    {"core0/pipeline/flushes", 0},
    {"core0/pipeline/rename_stalls", 3317},
    {"core0/smt/deadlock_rescues", 0},
    {"core0/walker/loads", 132},
    {"core0/walker/walks", 33},
};
const std::vector<PinnedCounter> kContentionCounters = {
    {"core0/branches/cond", 817},
    {"core0/branches/indirect", 0},
    {"core0/branches/indirect_mispredicted", 0},
    {"core0/branches/mispredicted", 86},
    {"core0/branches/total", 1224},
    {"core0/branchpred/btb_hits", 0},
    {"core0/branchpred/btb_misses", 0},
    {"core0/branchpred/predictions", 858},
    {"core0/branchpred/ras_pops", 0},
    {"core0/branchpred/ras_pushes", 0},
    {"core0/checker/commits", 11170},
    {"core0/checker/lockstep_commits", 9170},
    {"core0/checker/lockstep_skips", 0},
    {"core0/checker/t0/branches/cond", 800},
    {"core0/checker/t0/branches/indirect", 0},
    {"core0/checker/t0/branches/indirect_mispredicted", 0},
    {"core0/checker/t0/branches/mispredicted", 0},
    {"core0/checker/t0/branches/total", 1200},
    {"core0/checker/t0/commit/assists", 0},
    {"core0/checker/t0/commit/events_delivered", 0},
    {"core0/checker/t0/commit/faults_delivered", 0},
    {"core0/checker/t0/commit/insns", 9170},
    {"core0/checker/t0/commit/k8ops", 10370},
    {"core0/checker/t0/commit/loads", 1200},
    {"core0/checker/t0/commit/stores", 1200},
    {"core0/checker/t0/commit/uops", 11170},
    {"core0/checker/t0/profile/modeled_cycles", 0},
    {"core0/commit/assists", 1},
    {"core0/commit/events_delivered", 0},
    {"core0/commit/faults_delivered", 0},
    {"core0/commit/insns", 9171},
    {"core0/commit/loads", 1200},
    {"core0/commit/stores", 1200},
    {"core0/commit/uops", 11171},
    {"core0/cycles", 8450},
    {"core0/dcache/accesses", 2009},
    {"core0/dcache/bank_conflicts", 164},
    {"core0/dcache/misses", 9},
    {"core0/dcache/mshr_full", 0},
    {"core0/dcache/policy_evictions", 0},
    {"core0/dcache/prefetches", 0},
    {"core0/dtlb/accesses", 13774},
    {"core0/dtlb/hits", 13773},
    {"core0/dtlb/l2_hits", 0},
    {"core0/dtlb/misses", 1},
    {"core0/icache/accesses", 1355},
    {"core0/icache/misses", 1},
    {"core0/icache/policy_evictions", 0},
    {"core0/itlb/accesses", 1355},
    {"core0/itlb/hits", 1354},
    {"core0/itlb/misses", 1},
    {"core0/l2/accesses", 10},
    {"core0/l2/misses", 10},
    {"core0/l2/policy_evictions", 0},
    {"core0/l3/accesses", 0},
    {"core0/l3/misses", 0},
    {"core0/l3/policy_evictions", 0},
    {"core0/lsq/forwards", 402},
    {"core0/lsq/hoist_flushes", 0},
    {"core0/lsq/replays", 11353},
    {"core0/mem/accesses", 10},
    {"core0/mem/writebacks", 0},
    {"core0/membackend/reads", 8},
    {"core0/membackend/writes", 3},
    {"core0/ooocore/skipped_cycles", 701},
    {"core0/ooocore/wakeup_broadcasts", 8866},
    {"core0/pipeline/fetch_stalls", 4973},
    {"core0/pipeline/flushes", 1},
    {"core0/pipeline/rename_stalls", 3750},
    {"core0/smt/deadlock_rescues", 0},
    {"core0/walker/loads", 8},
    {"core0/walker/walks", 2},
};
const std::vector<PinnedCounter> kZeroLatencyCounters = {
    {"core0/branches/cond", 817},
    {"core0/branches/indirect", 0},
    {"core0/branches/indirect_mispredicted", 0},
    {"core0/branches/mispredicted", 86},
    {"core0/branches/total", 1223},
    {"core0/branchpred/btb_hits", 0},
    {"core0/branchpred/btb_misses", 0},
    {"core0/branchpred/predictions", 857},
    {"core0/branchpred/ras_pops", 0},
    {"core0/branchpred/ras_pushes", 0},
    {"core0/checker/commits", 11170},
    {"core0/checker/lockstep_commits", 9170},
    {"core0/checker/lockstep_skips", 0},
    {"core0/checker/t0/branches/cond", 800},
    {"core0/checker/t0/branches/indirect", 0},
    {"core0/checker/t0/branches/indirect_mispredicted", 0},
    {"core0/checker/t0/branches/mispredicted", 0},
    {"core0/checker/t0/branches/total", 1200},
    {"core0/checker/t0/commit/assists", 0},
    {"core0/checker/t0/commit/events_delivered", 0},
    {"core0/checker/t0/commit/faults_delivered", 0},
    {"core0/checker/t0/commit/insns", 9170},
    {"core0/checker/t0/commit/k8ops", 10370},
    {"core0/checker/t0/commit/loads", 1200},
    {"core0/checker/t0/commit/stores", 1200},
    {"core0/checker/t0/commit/uops", 11170},
    {"core0/checker/t0/profile/modeled_cycles", 0},
    {"core0/commit/assists", 1},
    {"core0/commit/events_delivered", 0},
    {"core0/commit/faults_delivered", 0},
    {"core0/commit/insns", 9171},
    {"core0/commit/loads", 1200},
    {"core0/commit/stores", 1200},
    {"core0/commit/uops", 11171},
    {"core0/cycles", 8057},
    {"core0/dcache/accesses", 2009},
    {"core0/dcache/bank_conflicts", 9},
    {"core0/dcache/misses", 9},
    {"core0/dcache/mshr_full", 0},
    {"core0/dcache/policy_evictions", 0},
    {"core0/dcache/prefetches", 0},
    {"core0/dtlb/accesses", 13002},
    {"core0/dtlb/hits", 13001},
    {"core0/dtlb/l2_hits", 0},
    {"core0/dtlb/misses", 1},
    {"core0/icache/accesses", 1351},
    {"core0/icache/misses", 1},
    {"core0/icache/policy_evictions", 0},
    {"core0/itlb/accesses", 1351},
    {"core0/itlb/hits", 1350},
    {"core0/itlb/misses", 1},
    {"core0/l2/accesses", 10},
    {"core0/l2/misses", 10},
    {"core0/l2/policy_evictions", 0},
    {"core0/l3/accesses", 0},
    {"core0/l3/misses", 0},
    {"core0/l3/policy_evictions", 0},
    {"core0/lsq/forwards", 400},
    {"core0/lsq/hoist_flushes", 0},
    {"core0/lsq/replays", 10587},
    {"core0/mem/accesses", 10},
    {"core0/mem/writebacks", 0},
    {"core0/membackend/reads", 8},
    {"core0/membackend/writes", 3},
    {"core0/ooocore/skipped_cycles", 702},
    {"core0/ooocore/wakeup_broadcasts", 8855},
    {"core0/pipeline/fetch_stalls", 4372},
    {"core0/pipeline/flushes", 1},
    {"core0/pipeline/rename_stalls", 3192},
    {"core0/smt/deadlock_rescues", 0},
    {"core0/walker/loads", 8},
    {"core0/walker/walks", 2},
};
const std::vector<PinnedCounter> kContentionSmtCounters = {
    {"core0/branches/cond", 3203},
    {"core0/branches/indirect", 0},
    {"core0/branches/indirect_mispredicted", 0},
    {"core0/branches/mispredicted", 1520},
    {"core0/branches/total", 4803},
    {"core0/branchpred/btb_hits", 0},
    {"core0/branchpred/btb_misses", 0},
    {"core0/branchpred/predictions", 3600},
    {"core0/branchpred/ras_pops", 0},
    {"core0/branchpred/ras_pushes", 0},
    {"core0/checker/commits", 44680},
    {"core0/checker/lockstep_commits", 0},
    {"core0/checker/lockstep_skips", 0},
    {"core0/commit/assists", 4},
    {"core0/commit/events_delivered", 0},
    {"core0/commit/faults_delivered", 0},
    {"core0/commit/insns", 36684},
    {"core0/commit/loads", 4800},
    {"core0/commit/stores", 4800},
    {"core0/commit/uops", 44684},
    {"core0/cycles", 22020},
    {"core0/dcache/accesses", 8009},
    {"core0/dcache/bank_conflicts", 458},
    {"core0/dcache/misses", 9},
    {"core0/dcache/mshr_full", 0},
    {"core0/dcache/policy_evictions", 0},
    {"core0/dcache/prefetches", 0},
    {"core0/dtlb/accesses", 29811},
    {"core0/dtlb/hits", 29810},
    {"core0/dtlb/l2_hits", 0},
    {"core0/dtlb/misses", 1},
    {"core0/icache/accesses", 6741},
    {"core0/icache/misses", 1},
    {"core0/icache/policy_evictions", 0},
    {"core0/itlb/accesses", 6741},
    {"core0/itlb/hits", 6740},
    {"core0/itlb/misses", 1},
    {"core0/l2/accesses", 10},
    {"core0/l2/misses", 10},
    {"core0/l2/policy_evictions", 0},
    {"core0/l3/accesses", 0},
    {"core0/l3/misses", 0},
    {"core0/l3/policy_evictions", 0},
    {"core0/lsq/forwards", 1600},
    {"core0/lsq/hoist_flushes", 0},
    {"core0/lsq/replays", 20211},
    {"core0/mem/accesses", 10},
    {"core0/mem/writebacks", 0},
    {"core0/membackend/reads", 8},
    {"core0/membackend/writes", 3},
    {"core0/ooocore/skipped_cycles", 106},
    {"core0/ooocore/wakeup_broadcasts", 35163},
    {"core0/pipeline/fetch_stalls", 5730},
    {"core0/pipeline/flushes", 4},
    {"core0/pipeline/rename_stalls", 25347},
    {"core0/smt/deadlock_rescues", 0},
    {"core0/walker/loads", 8},
    {"core0/walker/walks", 2},
};

TEST(OooCoreTest, SelectOrderIsPinned)
{
    {
        SCOPED_TRACE("hash kernel");
        BareMachine r(oooConfig());
        Assembler a(BareMachine::CODE_BASE);
        progHashKernel(a);
        r.load(a);
        r.start();
        for (int i = 0; i < 60'000; i++)
            r.tick();
        expectCountersPinned(r.stats(), kHashKernelCounters);
    }
    {
        SCOPED_TRACE("contention");
        BareMachine r(oooConfig());
        Assembler a(BareMachine::CODE_BASE);
        progSelectContention(a);
        r.load(a);
        r.start();
        r.run();
        expectCountersPinned(r.stats(), kContentionCounters);
    }
    {
        // A zero-latency ALU result wakes its consumers in the cycle
        // it issues, so the candidate set grows mid-select.
        SCOPED_TRACE("contention, zero-latency ALU");
        SimConfig cfg = oooConfig();
        cfg.lat_alu = 0;
        BareMachine r(cfg);
        Assembler a(BareMachine::CODE_BASE);
        progSelectContention(a);
        r.load(a);
        r.start();
        r.run();
        expectCountersPinned(r.stats(), kZeroLatencyCounters);
    }
    {
        // Threads number their uops separately, so equal ages meet
        // in one queue: the tie goes to the lower slot.
        SCOPED_TRACE("contention, smt4");
        SimConfig cfg = oooConfig();
        smtInput(cfg, 4, SmtPolicy::RoundRobin);
        BareMachine r(cfg);
        Assembler a(BareMachine::CODE_BASE);
        progSelectContention(a);
        for (int v = 0; v < r.vcpuCount(); v++)
            r.load(a, v);
        r.start();
        r.run();
        expectCountersPinned(r.stats(), kContentionSmtCounters);
    }
}

}  // namespace
}  // namespace ptl
