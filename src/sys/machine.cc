#include "sys/machine.h"

#include "lib/logging.h"

namespace ptl {

Machine::Machine(const SimConfig &config)
    : cfg(config), time(config.core_freq_hz), eventq(stats_tree),
      st_cycles_user(stats_tree.counter("external/cycles_in_mode/user")),
      st_cycles_kernel(
          stats_tree.counter("external/cycles_in_mode/kernel")),
      st_cycles_idle(stats_tree.counter("external/cycles_in_mode/idle")),
      st_cycles_native(
          stats_tree.counter("external/cycles_in_mode/native")),
      st_mode_switches(stats_tree.counter("external/mode_switches"))
{
    cfg.validate();
    physmem = std::make_unique<PhysMem>(cfg.guest_mem_bytes, cfg.seed,
                                        cfg.shuffle_mfns);
    aspace = std::make_unique<AddressSpace>(*physmem);
    aspace->attachStats(stats_tree);
    gateShadowWalk(cfg, *aspace);
    bbcache = std::make_unique<BasicBlockCache>(
        stats_tree.counter("bbcache/hits"),
        stats_tree.counter("bbcache/misses"),
        stats_tree.counter("bbcache/smc_invalidations"));

    std::vector<Context *> vcpu_ptrs;
    for (int i = 0; i < cfg.vcpu_count; i++) {
        contexts.push_back(std::make_unique<Context>());
        contexts.back()->vcpu_id = i;
        vcpu_ptrs.push_back(contexts.back().get());
    }
    events = std::make_unique<EventChannels>(vcpu_ptrs, eventq,
                                             stats_tree);
    console_dev = std::make_unique<Console>(stats_tree);
    disk_dev = std::make_unique<VirtualDisk>(*events, eventq, time,
                                             cfg.disk_latency_us, *aspace,
                                             stats_tree);
    net_dev = std::make_unique<VirtualNet>(*events, eventq, time,
                                           cfg.net_latency_us, 8,
                                           stats_tree);
    hv = std::make_unique<Hypervisor>(time, *events, *console_dev,
                                      *disk_dev, *net_dev, *aspace,
                                      *bbcache, stats_tree);
    interlock_ctrl = std::make_unique<InterlockController>(stats_tree);

    for (int i = 0; i < cfg.vcpu_count; i++) {
        native_engines.push_back(std::make_unique<FunctionalEngine>(
            *contexts[i], *aspace, *bbcache, *hv, stats_tree,
            "native/vcpu" + std::to_string(i) + "/"));
    }

    // CR3 switches and SMC invalidations must flush core-side state.
    hv->setCr3SwitchHook([this](Context & /*ctx*/) {
        for (auto &core : core_set.cores) {
            core->flushPipeline();
            core->flushTlbs();
        }
        for (auto &engine : native_engines)
            engine->reposition();
        for (MemoryHierarchy *h : extra_tlb_flush)
            h->flushTlbs();
    });
    hv->setCodeWriteHook([this](Pfn /*mfn*/) {
        for (auto &core : core_set.cores)
            core->flushPipeline();
    });

    // Mode-switch / snapshot / shutdown requests raised mid-cycle are
    // handled at the next cycle boundary, exactly where the old master
    // loop's per-cycle flag poll sat. One pending control event covers
    // any number of same-cycle requests.
    hv->setAttentionHook([this] {
        if (control_armed)
            return;
        control_armed = true;
        EventQueue::Options opts;
        opts.name = "control";
        opts.kind = EVK_CONTROL;
        eventq.schedule(time.cycle() + cycles(1), EVPRI_CONTROL,
                        [this](SimCycle now) { onControlEvent(now); }, opts);
    });
}

Machine::~Machine() = default;

void
Machine::finalizeCores()
{
    ptl_assert(core_set.cores.empty());
    core_set = assembleCores(cfg, contexts, *aspace, *bbcache, *hv,
                             *interlock_ctrl, stats_tree);
}

void
Machine::setMode(Mode mode)
{
    if (mode == run_mode)
        return;
    st_mode_switches++;
    run_mode = mode;
    // Strict continuity (Section 4.1): all in-flight state is squashed
    // at an instruction boundary; architectural state lives in the
    // Contexts, so the other engine resumes seamlessly.
    for (auto &core : core_set.cores)
        core->flushPipeline();
    for (auto &engine : native_engines)
        engine->reposition();
}

void
Machine::recordDevices(DeviceTrace *trace)
{
    disk_dev->attachTrace(trace);
    net_dev->attachTrace(trace);
}

void
Machine::attachReplayer(TraceReplayer *r)
{
    replayer = r;
    armReplayer();
}

void
Machine::armReplayer()
{
    if (!replayer || replayer->finished())
        return;
    EventQueue::Options opts;
    opts.name = "replay";
    // One event per distinct record cycle; the callback injects every
    // record due and re-arms for the next stamp.
    eventq.schedule(replayer->nextDue(), EVPRI_REPLAY,
                    [this](SimCycle now) {
                        replayer->processDue(now);
                        armReplayer();
                    },
                    opts);
}

void
Machine::armSnapshot()
{
    EventQueue::Options opts;
    opts.name = "snapshot";
    opts.kind = EVK_SNAPSHOT;
    // A snapshot alone must not keep an otherwise-dead domain alive
    // (the old loop broke out as stalled before considering the
    // snapshot cadence).
    opts.wakes = false;
    snapshot_event = eventq.schedule(
        last_snapshot + cycles(cfg.snapshot_interval), EVPRI_SNAPSHOT,
        [this](SimCycle now) {
            // Time never runs past the queue head, so `now` is exactly
            // the armed boundary; priority 0 orders the snapshot ahead
            // of deliveries due the same cycle (legacy interval edge).
            last_snapshot = now;
            stats_tree.takeSnapshot(now);
            armSnapshot();
        },
        opts);
}

void
Machine::onControlEvent(SimCycle now)
{
    control_armed = false;
    if (hv->nativeSwitchRequested())
        setMode(Mode::Native);
    else if (hv->simSwitchRequested())
        setMode(Mode::Simulation);
    if (hv->snapshotRequested())
        stats_tree.takeSnapshot(now);
    hv->clearModeRequests();
}

void
Machine::rearmAfterRestore(SimCycle last_snapshot_cycle)
{
    eventq.clear();
    control_armed = false;
    snapshot_event = {};
    hv->clearModeRequests();
    hv->clearShutdown();
    last_snapshot = last_snapshot_cycle;
    armSnapshot();
    armReplayer();
}

bool
Machine::allVcpusIdle() const
{
    for (const auto &ctx : contexts) {
        if (ctx->running)
            return false;
    }
    return true;
}

void
Machine::accountModeCycles(CycleDelta elapsed)
{
    const U64 n = elapsed.raw();
    // Figure 2 accounting keys off VCPU 0, matching the paper's
    // single-VCPU benchmark domain.
    const Context &ctx = *contexts[0];
    if (!ctx.running)
        st_cycles_idle += n;
    else if (ctx.kernel_mode)
        st_cycles_kernel += n;
    else
        st_cycles_user += n;
    if (run_mode == Mode::Native)
        st_cycles_native += n;
}

void
Machine::runNativeSlice(SimCycle limit)
{
    // Native mode: the fast functional engine at the configured native
    // IPC. Run in small instruction batches so events still land at
    // the right cycles. VCPUs notionally run in parallel on the bare
    // machine, so each gets the full per-slice instruction budget and
    // the slice costs as many cycles as its furthest-ahead VCPU; the
    // round-robin start cursor rotates so no VCPU permanently sees
    // events (or the trigger check) first.
    CycleDelta budget = limit - time.cycle();
    U64 max_insns =
        std::max<U64>(1, budget.raw() * cfg.native_ipc_x1000 / 1000);
    max_insns = std::min<U64>(max_insns, 64);

    const size_t n = contexts.size();
    native_insns.assign(n, 0);
    native_parked.assign(n, 0);
    bool stop = false;
    for (U64 i = 0; i < max_insns && !stop; i++) {
        bool stepped = false;
        for (size_t k = 0; k < n; k++) {
            size_t v = (native_rr + k) % n;
            Context &ctx = *contexts[v];
            if (native_parked[v] || !ctx.running)
                continue;
            FunctionalEngine::StepResult r =
                native_engines[v]->stepInsn(time.cycle());
            native_insns[v] += (U64)r.insns + (r.event_delivered ? 1 : 0);
            stepped = true;
            if (r.idle || r.blocked_now) {
                // Out of work for this slice; others keep running.
                native_parked[v] = 1;
                continue;
            }
            if (rip_trigger && ctx.rip == GuestVirt(*rip_trigger)) {
                // Trigger point hit: seamlessly drop into simulation
                // mode at this exact instruction boundary (Section
                // 2.3).
                rip_trigger.reset();
                setMode(Mode::Simulation);
                stop = true;
                break;
            }
            if (hv->shutdownRequested() || hv->simSwitchRequested()) {
                stop = true;
                break;
            }
        }
        if (!stepped)
            break;
    }
    native_rr = n ? (native_rr + 1) % n : 0;

    U64 lead_insns = 0;
    for (U64 c : native_insns)
        lead_insns = std::max(lead_insns, c);
    CycleDelta spent = cycles(
        std::max<U64>(1, lead_insns * 1000 / cfg.native_ipc_x1000));
    spent = std::min(spent, std::max(cycles(1), budget));
    accountModeCycles(spent);
    time.advance(spent);
}

void
Machine::flushCores()
{
    // Full microarchitectural quiesce: pipelines, TLBs, cache tags,
    // predictors, and absolute-cycle timing stamps (checkpoint restore
    // may have rolled virtual time backwards). Capture and restore
    // both come through here so the two sides resume identically.
    for (auto &core : core_set.cores)
        core->resetMicroarch(time.cycle());
    for (auto &engine : native_engines)
        engine->reposition();
}

U64
Machine::totalCommittedInsns() const
{
    U64 total = 0;
    for (size_t c = 0; c < core_set.cores.size(); c++) {
        total += stats_tree.get("core" + std::to_string(c)
                                + "/commit/insns");
    }
    for (size_t v = 0; v < native_engines.size(); v++) {
        total += stats_tree.get("native/vcpu" + std::to_string(v)
                                + "/commit/insns");
    }
    return total;
}

Machine::RunResult
Machine::run(U64 max_cycles)
{
    RunResult result;
    const SimCycle start = time.cycle();
    const SimCycle deadline = start + cycles(max_cycles);
    if (last_snapshot == SimCycle(0) && stats_tree.snapshotCount() == 0) {
        stats_tree.takeSnapshot(time.cycle());
        last_snapshot = time.cycle();
    }
    if (!snapshot_event.valid())
        armSnapshot();

    while (time.cycle() < deadline && !hv->shutdownRequested()) {
        // Fire everything due now: timer deliveries, device
        // completions, trace injection, the periodic snapshot, and
        // deferred control requests — in the fixed (cycle, priority,
        // seq) order that reproduces the old loop-top sequence.
        SimCycle now = time.cycle();
        eventq.runDue(now);
        if (hv->shutdownRequested())
            break;

        if (allVcpusIdle()) {
            if (eventq.wakePendingCount() == 0) {
                // Nothing will ever wake the domain again.
                result.stalled = true;
                break;
            }
            // Fast-forward straight to the next scheduled event (the
            // queue head already includes the snapshot cadence).
            SimCycle target = std::min(eventq.nextDue(), deadline);
            target = std::max(target, now + cycles(1));
            accountModeCycles(target - now);
            time.advance(target - now);
            continue;
        }

        if (run_mode == Mode::Native) {
            SimCycle limit = std::min(
                deadline, std::max(eventq.nextDue(), now + cycles(1)));
            runNativeSlice(std::max(limit, now + cycles(1)));
        } else {
            // The hot loop: advance each core by one cycle, round
            // robin, until the queue head comes due. The per-cycle
            // overhead beyond the cores themselves is one O(1) heap
            // peek and the VCPU idle scan.
            do {
                accountModeCycles(cycles(1));
                SimCycle c = time.cycle();
                for (auto &core : core_set.cores)
                    core->cycle(c);
                time.tick();
            } while (time.cycle() < deadline
                     && time.cycle() < eventq.nextDue()
                     && !allVcpusIdle());
        }
    }

    result.cycles = (time.cycle() - start).raw();
    result.shutdown = hv->shutdownRequested();
    result.exit_code = hv->exitCode();
    return result;
}

}  // namespace ptl
