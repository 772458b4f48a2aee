/**
 * SMT example: two hardware threads on one K8-like core hammer a
 * shared counter with LOCK-prefixed instructions — the cross-thread
 * interlock semantics of Section 4.4 ("PTLsim faithfully models all
 * lock contention in terms of real interlocked x86 instructions").
 * Userspace-only simulators with "pseudo-SMT" cannot run this: the
 * threads genuinely share memory and the interlock controller
 * arbitrates the locked read-modify-writes.
 *
 *   $ ./smt_contention
 */

#include <cstdio>

#include "sys/baremachine.h"

using namespace ptl;

namespace {

constexpr int ITERS = 2000;

}  // namespace

int
main()
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "smt";
    cfg.smt_threads = 2;
    cfg.vcpu_count = 2;
    BareMachine m(cfg);

    // Each thread adds (thread_id + 1) to the shared counter with
    // `lock xadd`, ITERS times, and also bumps a private counter.
    Assembler a(BareMachine::CODE_BASE);
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, ITERS);
    a.mov(R::rdx, R::rdi);
    a.inc(R::rdx);
    Label top = a.label();
    a.mov(R::rax, R::rdx);
    a.lockXadd(Mem::at(R::rbx), R::rax);
    a.inc(Mem::idx(R::rbx, R::rdi, 8, 64));   // private progress slot
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    for (int t = 0; t < 2; t++) {
        m.load(a, t);
        m.vcpu(t).regs[REG_rdi] = (U64)t;      // thread id
    }
    m.start();
    const U64 cycle = m.run(100'000'000);

    const U64 shared = m.readGuest(BareMachine::DATA_BASE, 8);
    const U64 p0 = m.readGuest(BareMachine::DATA_BASE + 0x40, 8);
    const U64 p1 = m.readGuest(BareMachine::DATA_BASE + 0x48, 8);
    const U64 expected = (U64)ITERS * 3;  // 1 + 2 per round
    const bool ok = shared == expected && p0 == ITERS && p1 == ITERS;

    StatsTree &stats = m.stats();
    std::printf("two SMT threads x %d locked xadds\n", ITERS);
    std::printf("shared counter = %llu (expected %llu) %s\n",
                (unsigned long long)shared,
                (unsigned long long)expected,
                shared == expected ? "ATOMIC" : "LOST UPDATES!");
    std::printf("per-thread progress: T0=%llu T1=%llu\n",
                (unsigned long long)p0, (unsigned long long)p1);
    std::printf("cycles: %llu; committed insns: %llu (both threads)\n",
                (unsigned long long)cycle,
                (unsigned long long)stats.get("core0/commit/insns"));
    std::printf("interlock acquires: %llu, lsq replays (incl. lock "
                "contention): %llu\n",
                (unsigned long long)stats.get("interlock/acquires"),
                (unsigned long long)stats.get("core0/lsq/replays"));
    return ok ? 0 : 1;
}
