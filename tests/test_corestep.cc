/**
 * The machine's cycle loop jumps over the cycles every core proves
 * quiet (sys/corestep.h). These tests pin that the jump changes
 * nothing simulated: each domain runs on the bare core model and
 * behind a forwarding core that hides sleepUntil/skipCycles, so that
 * the loop calls cycle() on every cycle as it did before it could
 * jump. The final cycle, the run result, the whole stats tree (cycles
 * in mode, events fired, every core counter) and the snapshot series
 * must agree.
 */

#include <gtest/gtest.h>

#include "forwarding_core.h"
#include "workload/rsyncbench.h"

namespace ptl {
namespace {

/** What a run leaves behind that must not depend on how the loop
 *  advanced time. */
struct Outcome
{
    U64 final_cycle = 0;
    bool shutdown = false;
    bool stalled = false;
    U64 exit_code = 0;
    std::map<std::string, U64> counters;
    std::vector<std::pair<U64, std::vector<U64>>> snapshots;
};

Outcome
outcomeOf(Machine &m, bool shutdown, bool stalled, U64 exit_code)
{
    Outcome o;
    o.final_cycle = m.timeKeeper().cycle().raw();
    o.shutdown = shutdown;
    o.stalled = stalled;
    o.exit_code = exit_code;
    StatsTree &s = m.stats();
    for (const std::string &p : s.paths())
        o.counters[p] = s.get(p);
    for (size_t i = 0; i < s.snapshotCount(); i++)
        o.snapshots.push_back({s.snapshot(i).cycle.raw(),
                               s.snapshot(i).values});
    return o;
}

void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_EQ(a.final_cycle, b.final_cycle);
    EXPECT_EQ(a.shutdown, b.shutdown);
    EXPECT_EQ(a.stalled, b.stalled);
    EXPECT_EQ(a.exit_code, b.exit_code);
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (const auto &[path, value] : a.counters) {
        auto it = b.counters.find(path);
        ASSERT_NE(it, b.counters.end()) << path;
        EXPECT_EQ(value, it->second) << path;
    }
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (size_t i = 0; i < a.snapshots.size(); i++)
        EXPECT_EQ(a.snapshots[i], b.snapshots[i]) << "snapshot " << i;
}

// ---------------------------------------------------------------------
// The paper's rsync-over-ssh domain, shrunk.
// ---------------------------------------------------------------------

Outcome
runRsync(const std::string &core)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = core;
    cfg.core_freq_hz = 50'000'000;
    cfg.timer_hz = 1000;
    cfg.snapshot_interval = 200'000;
    FileSetParams files;
    files.file_count = 4;
    files.mean_file_bytes = 2000;
    files.max_file_bytes = 4096;
    files.seed = 7;
    RsyncBench bench(cfg, files);
    RsyncBench::Result r = bench.run(3'000'000'000ULL);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.mismatches, 0ULL);
    return outcomeOf(bench.machine(), r.shutdown, false, r.mismatches);
}

TEST(CoreStep, RsyncDomainMatchesPerCycleLoop)
{
    registerForwardingCores();
    for (const char *core : {"ooo", "seq"}) {
        SCOPED_TRACE(core);
        Outcome jumped = runRsync(core);
        Outcome stepped = runRsync(std::string("fwd.") + core);
        expectSameOutcome(jumped, stepped);
        EXPECT_GT(jumped.counters["external/cycles_in_mode/user"], 0ULL);
    }
}

// ---------------------------------------------------------------------
// Two VCPUs without a guest kernel: each follows a serial chain of
// cache and TLB misses for its own number of steps, then halts, so
// for a while one core runs while the other is blocked.
// ---------------------------------------------------------------------

constexpr U64 kCode = 0x400000;
constexpr U64 kData = 0x600000;
constexpr U64 kStackTop = 0x800000;

Outcome
runTwoVcpus(const std::string &core, bool smt)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = core;
    cfg.vcpu_count = 2;
    cfg.smt_threads = smt ? 2 : 1;
    cfg.guest_mem_bytes = 16 << 20;
    cfg.snapshot_interval = 1'000;
    Machine m(cfg);
    AddressSpace &as = m.addressSpace();
    Pfn cr3 = as.createRoot();
    as.mapRange(cr3, GuestVirt(kCode), 16 * PAGE_SIZE, Pte::RW | Pte::US);
    as.mapRange(cr3, GuestVirt(kData), 64 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);
    as.mapRange(cr3, GuestVirt(kStackTop - 16 * PAGE_SIZE), 16 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);

    Assembler a(kCode);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 12);               // one page per step
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);           // serialize on the previous load
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);           // memory is zero: rax stays 0
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.mov(Mem::at(R::rdi), R::rcx);
    a.hlt();
    std::vector<U8> image = a.finalize();
    for (size_t i = 0; i < image.size(); i++) {
        Context &c0 = m.vcpu(0);
        c0.cr3 = cr3;
        GuestAccess acc = guestTranslate(as, c0, GuestVirt(kCode + i),
                                         MemAccess::Write);
        m.physMem().writeBytes(acc.paddr, &image[i], 1);
    }
    for (int v = 0; v < 2; v++) {
        Context &ctx = m.vcpu(v);
        ctx.cr3 = cr3;
        ctx.kernel_mode = true;
        ctx.rip = GuestVirt(kCode);
        ctx.regs[REG_rsp] = kStackTop - 64 - (U64)v * 0x1000;
        ctx.regs[REG_rbx] = kData;
        ctx.regs[REG_rcx] = v == 0 ? 60 : 25;
        ctx.regs[REG_rdi] = kData + 0x100 + (U64)v * 8;
        ctx.running = true;
    }
    m.finalizeCores();
    Machine::RunResult r = m.run(50'000'000);
    EXPECT_TRUE(r.stalled);   // both halted, nothing left to wake them
    return outcomeOf(m, r.shutdown, r.stalled, r.exit_code);
}

TEST(CoreStep, TwoVcpuDomainMatchesPerCycleLoop)
{
    registerForwardingCores();
    struct Input
    {
        const char *core;
        bool smt;
    };
    for (const Input &in : {Input{"ooo", false}, Input{"smt", true},
                            Input{"seq", false}}) {
        SCOPED_TRACE(in.core);
        Outcome direct = runTwoVcpus(in.core, in.smt);
        Outcome stepped = runTwoVcpus(std::string("fwd.") + in.core, in.smt);
        const U64 before = forwardedSkips();
        Outcome jumped = runTwoVcpus(std::string("fwdjump.") + in.core,
                                     in.smt);
        expectSameOutcome(direct, stepped);
        expectSameOutcome(direct, jumped);
        // The loop really jumped (the forwarding core saw the spans).
        EXPECT_GT(forwardedSkips() - before, 0ULL);
        EXPECT_GT(direct.snapshots.size(), 2u);
    }
}

}  // namespace
}  // namespace ptl
