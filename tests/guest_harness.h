/**
 * @file
 * Shared test fixtures over the bare-metal rig (sys/baremachine.h):
 * a BareMachine that records the guest's hypercalls and ptlcalls, and
 * GuestRunner, which runs assembled code on the functional engine.
 * Core-model tests drive a BareMachine directly.
 */

#ifndef PTLSIM_TESTS_GUEST_HARNESS_H_
#define PTLSIM_TESTS_GUEST_HARNESS_H_

#include <memory>
#include <vector>

#include "core/seqcore.h"
#include "lib/logging.h"
#include "sys/baremachine.h"

namespace ptl {

/** A BareMachine that records every hypercall and ptlcall. */
class RecordingMachine : public BareMachine
{
  public:
    using BareMachine::BareMachine;

    U64
    hypercall(Context &, U64 nr, U64 a1, U64 a2, U64 a3) override
    {
        hypercalls.push_back({nr, a1, a2, a3});
        return hypercall_result;
    }

    U64
    ptlcall(Context &, U64 op, U64, U64) override
    {
        ptlcalls.push_back(op);
        return 0;
    }

    struct Call { U64 nr, a1, a2, a3; };
    std::vector<Call> hypercalls;
    std::vector<U64> ptlcalls;
    U64 hypercall_result = 0;
};

/** Assemble-and-run fixture: the functional engine on VCPU 0 of a
 *  32 MB recording BareMachine, with translation shadow walks on. */
class GuestRunner
{
  public:
    static constexpr U64 CODE_BASE = BareMachine::CODE_BASE;
    static constexpr U64 DATA_BASE = BareMachine::DATA_BASE;
    static constexpr U64 STACK_TOP = BareMachine::STACK_TOP;

    static SimConfig
    config()
    {
        SimConfig cfg;
        cfg.guest_mem_bytes = 32 << 20;
        cfg.seed = 7;
        cfg.verify = true;
        return cfg;
    }

    GuestRunner()
        : sys(config()), mem(sys.physMem()), aspace(sys.addressSpace()),
          stats(sys.stats()), bbcache(sys.bbCache()), ctx(sys.vcpu(0)),
          cr3(sys.cr3()),
          engine(std::make_unique<FunctionalEngine>(ctx, aspace, bbcache,
                                                    sys, stats, ""))
    {
    }

    void load(Assembler &assembler) { sys.load(assembler); }

    void
    writeGuest(U64 va, const void *data, size_t n)
    {
        sys.writeGuest(va, data, n);
    }

    U64 readGuest(U64 va, unsigned bytes) { return sys.readGuest(va, bytes); }

    /** Run until the VCPU blocks (hlt) or `max_insns` is exceeded. */
    int
    run(int max_insns = 100000)
    {
        int executed = 0;
        while (ctx.running && executed < max_insns) {
            FunctionalEngine::StepResult r =
                engine->stepInsn(SimCycle((U64)executed));
            executed += r.insns;
            if (r.idle)
                break;
        }
        ptl_assert(executed < max_insns);
        return executed;
    }

    U64 reg(R r) const { return sys.reg(r); }

    RecordingMachine sys;
    PhysMem &mem;
    AddressSpace &aspace;
    StatsTree &stats;
    BasicBlockCache &bbcache;
    Context &ctx;
    Pfn cr3;
    std::unique_ptr<FunctionalEngine> engine;
};

}  // namespace ptl

#endif  // PTLSIM_TESTS_GUEST_HARNESS_H_
