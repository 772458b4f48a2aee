/**
 * @file
 * A bare-metal machine: the rig for running assembled code on a core.
 *
 * Everything Machine builds below the guest OS, minus the OS: guest
 * physical memory, one page-table root, the basic block cache, the
 * interlock controller, kernel-mode VCPUs and the config-selected
 * cores (assembled by the same helper Machine uses), with no kernel,
 * devices, hypervisor or event queue. It is built from a SimConfig
 * alone (guest_mem_bytes, seed, shuffle_mfns, vcpu_count, smt_threads,
 * core, coherence, verify) and is itself the SystemInterface its
 * cores see: hlt parks a VCPU, and a run ends once every VCPU parked.
 * Unit tests, microbenchmarks and examples all drive this one type.
 *
 * Canonical layout, shared by every VCPU:
 *
 *   CODE   [0x400000, 0x500000)   RW, user
 *   DATA   [0x600000, 0x700000)   RW, NX
 *   guard   0x700000              one unmapped page: data overruns fault
 *   STACK  [0x701000, 0x800000)   RW, NX; VCPU i starts with
 *                                 rsp = STACK_TOP - 64 - i * 64 KB
 */

#ifndef PTLSIM_SYS_BAREMACHINE_H_
#define PTLSIM_SYS_BAREMACHINE_H_

#include <memory>
#include <vector>

#include "sys/coreassembly.h"
#include "xasm/assembler.h"

namespace ptl {

class BareMachine : public SystemInterface
{
  public:
    static constexpr U64 CODE_BASE = 0x400000;
    static constexpr U64 DATA_BASE = 0x600000;
    static constexpr U64 STACK_TOP = 0x800000;

    explicit BareMachine(const SimConfig &config);
    ~BareMachine() override;

    BareMachine(const BareMachine &) = delete;
    BareMachine &operator=(const BareMachine &) = delete;

    // ---- subsystem access ----
    PhysMem &physMem() { return mem; }
    AddressSpace &addressSpace() { return aspace; }
    StatsTree &stats() { return stats_tree; }
    BasicBlockCache &bbCache() { return bbcache; }
    Pfn cr3() const { return root; }
    Context &vcpu(int i) { return *contexts[i]; }
    int vcpuCount() const { return (int)contexts.size(); }
    /** Valid after start(). */
    CoreModel &core(int i) { return *core_set.cores[i]; }
    int coreCount() const { return (int)core_set.cores.size(); }
    /** nullptr for one core under instant visibility. */
    CoherenceController *coherence() { return core_set.coherence.get(); }
    /** The cycle the next tick() simulates. */
    SimCycle now() const { return clock; }

    /**
     * Write the assembled image at its base VA (the first time this
     * assembler is loaded) and point VCPU `vcpu` at `entry`, or at the
     * image base when `entry` is 0.
     */
    void load(Assembler &assembler, int vcpu = 0, U64 entry = 0);

    /** Build the cores, once every load() is done. */
    void start();

    bool allIdle() const;

    /** Advance every core by one cycle, in core order. */
    void tick();

    /**
     * Tick until every VCPU halts; panics if that takes more than
     * `max_cycles`. Returns the cycles simulated by this call.
     */
    U64 run(U64 max_cycles = 3'000'000);

    /**
     * run(), but after each tick jump straight to the earliest
     * CoreModel::sleepUntil() instead of ticking quiesced cycles one
     * by one (the Machine busy loop's skip-ahead contract).
     */
    U64 runWithSleep(U64 max_cycles);

    void writeGuest(U64 va, const void *data, size_t n);
    U64 readGuest(U64 va, unsigned bytes);
    U64 reg(R r, int vcpu = 0) const { return contexts[vcpu]->regs[(int)r]; }

    // ---- SystemInterface: bare metal, no OS behind the gates ----
    U64 hypercall(Context &, U64, U64, U64, U64) override { return 0; }
    /** A deterministic stand-in TSC: +100 per read. */
    U64 readTsc(const Context &) override { return tsc += 100; }
    void vcpuBlock(Context &ctx) override { ctx.running = false; }
    U64 ptlcall(Context &, U64, U64, U64) override { return 0; }
    void notifyCodeWrite(Pfn mfn) override { bbcache.invalidateMfn(mfn); }
    bool isCodeMfn(Pfn mfn) const override { return bbcache.isCodeMfn(mfn); }

  private:
    U64 runUntilIdle(U64 max_cycles, bool sleep);

    SimConfig cfg;
    StatsTree stats_tree;
    PhysMem mem;
    AddressSpace aspace;
    BasicBlockCache bbcache;
    InterlockController interlock_ctrl;
    Pfn root;
    std::vector<std::unique_ptr<Context>> contexts;
    CoreSet core_set;
    SimCycle clock;
    U64 tsc = 0;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_BAREMACHINE_H_
