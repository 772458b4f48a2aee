#include "sys/baremachine.h"

#include <algorithm>

#include "lib/logging.h"

namespace ptl {

namespace {

constexpr U64 REGION_BYTES = 256 * PAGE_SIZE;

}  // namespace

BareMachine::BareMachine(const SimConfig &config)
    : cfg(config), mem(cfg.guest_mem_bytes, cfg.seed, cfg.shuffle_mfns),
      aspace(mem),
      bbcache(stats_tree.counter("bbcache/hits"),
              stats_tree.counter("bbcache/misses"),
              stats_tree.counter("bbcache/smc_invalidations")),
      interlock_ctrl(stats_tree)
{
    cfg.validate();
    aspace.attachStats(stats_tree);
    gateShadowWalk(cfg, aspace);
    root = aspace.createRoot();
    aspace.mapRange(root, GuestVirt(CODE_BASE), REGION_BYTES,
                    Pte::RW | Pte::US);
    aspace.mapRange(root, GuestVirt(DATA_BASE), REGION_BYTES,
                    Pte::RW | Pte::US | Pte::NX);
    aspace.mapRange(root, GuestVirt(STACK_TOP - REGION_BYTES + PAGE_SIZE),
                    REGION_BYTES - PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);
    for (int i = 0; i < cfg.vcpu_count; i++) {
        contexts.push_back(std::make_unique<Context>());
        Context &ctx = *contexts.back();
        ctx.vcpu_id = i;
        ctx.cr3 = root;
        ctx.kernel_mode = true;   // bare metal: hlt is legal
        ctx.regs[REG_rsp] = STACK_TOP - 64 - (U64)i * 0x10000;
    }
}

BareMachine::~BareMachine() = default;

void
BareMachine::load(Assembler &assembler, int vcpu, U64 entry)
{
    if (!assembler.isFinalized()) {
        std::vector<U8> image = assembler.finalize();
        writeGuest(assembler.baseVa(), image.data(), image.size());
    }
    contexts[vcpu]->rip = GuestVirt(entry ? entry : assembler.baseVa());
}

void
BareMachine::start()
{
    ptl_assert(core_set.cores.empty());
    core_set = assembleCores(cfg, contexts, aspace, bbcache, *this,
                             interlock_ctrl, stats_tree);
}

bool
BareMachine::allIdle() const
{
    return std::all_of(core_set.cores.begin(), core_set.cores.end(),
                       [](const auto &core) { return core->allIdle(); });
}

void
BareMachine::tick()
{
    for (auto &core : core_set.cores)
        core->cycle(clock);
    ++clock;
}

U64
BareMachine::run(U64 max_cycles)
{
    return runUntilIdle(max_cycles, false);
}

U64
BareMachine::runWithSleep(U64 max_cycles)
{
    return runUntilIdle(max_cycles, true);
}

U64
BareMachine::runUntilIdle(U64 max_cycles, bool sleep)
{
    ptl_assert(!core_set.cores.empty());
    const SimCycle start = clock;
    const SimCycle deadline = start + cycles(max_cycles);
    while (clock < deadline && !allIdle()) {
        tick();
        if (!sleep)
            continue;
        SimCycle wake = CYCLE_NEVER;
        for (auto &core : core_set.cores)
            wake = std::min(wake, core->sleepUntil(clock));
        if (!wake.never() && wake > clock)
            clock = std::min(wake, deadline);
    }
    ptl_assert(allIdle());
    return (clock - start).raw();
}

void
BareMachine::writeGuest(U64 va, const void *data, size_t n)
{
    GuestCopy g = guestCopyOut(aspace, *contexts[0], GuestVirt(va), data, n);
    ptl_assert(g.ok());
}

U64
BareMachine::readGuest(U64 va, unsigned bytes)
{
    U64 v = 0;
    GuestAccess a = guestRead(aspace, *contexts[0], GuestVirt(va), bytes, v);
    ptl_assert(a.ok());
    return v;
}

}  // namespace ptl
