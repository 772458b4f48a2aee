/**
 * Quickstart: assemble a guest program with the in-tree x86-64
 * assembler, run it on the K8-configured out-of-order core, and read
 * the statistics tree — the minimal end-to-end use of the library.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "sys/baremachine.h"

using namespace ptl;

int
main()
{
    // 1. A bare-metal guest machine built from the K8 config: physical
    //    memory, real 4-level x86-64 page tables mapping code, data and
    //    a stack (see sys/baremachine.h for the layout), the
    //    decoded-code cache and the statistics tree.
    BareMachine m(SimConfig::preset("k8"));

    // 2. Assemble a program: sum of squares of 1..100, kept in memory.
    Assembler a(BareMachine::CODE_BASE);
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 100);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.imul(R::rdx, R::rcx);
    a.add(R::rax, R::rdx);
    a.mov(Mem::at(R::rbx), R::rax);      // running total in memory
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();

    // 3. Load it, instantiate the K8-configured out-of-order core from
    //    the plug-in registry, and clock it until the program halts.
    m.load(a);
    m.start();
    const U64 cycle = m.run(1'000'000);

    // 4. Results: architectural state + the PTLstats counter tree.
    const U64 result = m.readGuest(BareMachine::DATA_BASE, 8);
    StatsTree &stats = m.stats();
    std::printf("sum of squares 1..100 = %llu (expected 338350)\n",
                (unsigned long long)result);
    std::printf("rax = %llu\n", (unsigned long long)m.reg(R::rax));
    std::printf("\nsimulated %llu cycles, IPC %.2f\n",
                (unsigned long long)cycle,
                (double)stats.get("core0/commit/insns") / (double)cycle);
    std::printf("\nselected statistics:\n%s",
                stats.renderTable("core0/commit/").c_str());
    std::printf("%s", stats.renderTable("core0/branches/").c_str());
    std::printf("%s", stats.renderTable("bbcache/").c_str());
    return result == 338350 ? 0 : 1;
}
