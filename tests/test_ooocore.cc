/**
 * Out-of-order core tests. The strongest property here mirrors the
 * paper's co-simulation self-validation: every program runs with the
 * commit checker enabled (each committed uop is re-verified against an
 * in-order architectural replay), and a parameterized equivalence
 * suite runs identical guest programs on the functional engine and the
 * OOO pipeline, requiring bit-identical final architectural state.
 */

#include <gtest/gtest.h>

#include "guest_harness.h"

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
    // Inputs beyond one thread: SMT under each fetch policy (the
    // quiesced fast path must keep the arbitration rotors where a
    // cycle-by-cycle run leaves them), two cores, and the per-cycle
    // auditor (which must not cap skipping).
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
    for (const Input &in : inputs) {
        SCOPED_TRACE(in.name);
        // Everything that must match, per run: the cycle count, then
        // rax/rsp per VCPU, then insns/uops/branches/cycles per core.
        std::vector<U64> observed[2];
        U64 skipped[2] = {0, 0};
        for (int skip = 0; skip < 2; skip++) {
            SimConfig cfg = oooConfig();
            in.shape(cfg);
            cfg.skip_ahead = (skip == 1);
            BareMachine r(cfg);
            Assembler a(BareMachine::CODE_BASE);
            progSerialMissChain(a);
            for (int v = 0; v < r.vcpuCount(); v++)
                r.load(a, v);
            r.start();
            std::vector<U64> &o = observed[skip];
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
                skipped[skip] +=
                    r.stats().get(core + "ooocore/skipped_cycles");
            }
        }
        EXPECT_EQ(observed[0], observed[1]);
        EXPECT_EQ(skipped[0], 0ULL);
        EXPECT_GT(skipped[1], 0ULL);
    }
}

}  // namespace
}  // namespace ptl
