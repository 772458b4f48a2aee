/**
 * Native-mode co-simulation tests: mode switching (ptlcall, triggers,
 * command lists), seamless-transition validation, divergence binary
 * search, TSC continuity, and checkpoint / device-trace machinery.
 */

#include <gtest/gtest.h>

#include "kernel/guestkernel.h"
#include "kernel/guestlib.h"
#include "native/cosim.h"
#include "native/triggers.h"
#include "sys/checkpoint.h"

namespace ptl {
namespace {

/** Build a bare-metal deterministic machine (no kernel, no timer)
 *  running `body` and halting. `patch` may alter the image. */
std::unique_ptr<Machine>
bareMachine(void (*body)(Assembler &), U64 patch_va = 0, U8 patch_byte = 0)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.commit_checker = true;
    cfg.guest_mem_bytes = 16 << 20;
    auto m = std::make_unique<Machine>(cfg);
    AddressSpace &as = m->addressSpace();
    Pfn cr3 = as.createRoot();
    as.mapRange(cr3, GuestVirt(0x400000), 64 * PAGE_SIZE,
                Pte::RW | Pte::US);
    as.mapRange(cr3, GuestVirt(0x600000), 64 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);
    as.mapRange(cr3, GuestVirt(0x7F0000), 16 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);

    Assembler a(0x400000);
    body(a);
    std::vector<U8> image = a.finalize();
    Context &ctx = m->vcpu(0);
    ctx.cr3 = cr3;
    ctx.kernel_mode = true;
    ctx.rip = GuestVirt(0x400000);
    ctx.regs[REG_rsp] = 0x7FF000;
    for (size_t i = 0; i < image.size(); i++) {
        GuestAccess acc =
            guestTranslate(as, ctx, GuestVirt(0x400000 + i),
                           MemAccess::Write);
        m->physMem().writeBytes(acc.paddr, &image[i], 1);
    }
    if (patch_va) {
        GuestAccess acc =
            guestTranslate(as, ctx, GuestVirt(patch_va), MemAccess::Write);
        m->physMem().writeBytes(acc.paddr, &patch_byte, 1);
    }
    m->finalizeCores();
    return m;
}

void
computeBody(Assembler &a)
{
    a.mov(R::rax, 1);
    a.mov(R::rcx, 400);
    Label top = a.label();
    a.imul(R::rax, R::rax, 6364136223846793005LL & 0x7fffffff);
    a.add(R::rax, 1442695040888963407LL & 0x7fffffff);
    a.movImm64(R::rbx, 0x600000);
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

TEST(Native, PureNativeRunMatchesSimulation)
{
    auto sim = bareMachine(computeBody);
    sim->run(10'000'000);
    auto native = bareMachine(computeBody);
    native->setMode(Machine::Mode::Native);
    native->run(10'000'000);
    ContextDiff diff = compareContexts(sim->vcpu(0), native->vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
    EXPECT_EQ(hashGuestMemory(sim->physMem()),
              hashGuestMemory(native->physMem()));
    // Native mode is much faster in simulated wall-clock terms too:
    // it retires ~native_ipc instructions per cycle.
    EXPECT_LT(native->timeKeeper().cycle(), sim->timeKeeper().cycle());
}

TEST(Native, ModeSwitchingIsSeamless)
{
    MachineFactory factory = [] { return bareMachine(computeBody); };
    CosimResult r = validateModeSwitching(
        factory, Machine::Mode::Simulation, /*switch_cycles=*/700);
    EXPECT_TRUE(r.equal) << r.diff;
    EXPECT_GT(r.switches, 3ULL);
}

TEST(Native, ModeSwitchingSeamlessVsNativeReference)
{
    MachineFactory factory = [] { return bareMachine(computeBody); };
    CosimResult r = validateModeSwitching(
        factory, Machine::Mode::Native, /*switch_cycles=*/333);
    EXPECT_TRUE(r.equal) << r.diff;
}

TEST(Native, DivergenceBinarySearchFindsPatchedInstruction)
{
    // Factory B patches the immediate of the 30th loop iteration...
    // simpler: patch the initial "mov rax, 1" immediate to 2; states
    // diverge at the very first instruction.
    MachineFactory fa = [] { return bareMachine(computeBody); };
    MachineFactory fb = [] {
        return bareMachine(computeBody, 0x400001, 0x02);
    };
    U64 diverge = findDivergenceInsn(fa, fb, 512);
    EXPECT_EQ(diverge, 1ULL);

    // Identical factories never diverge.
    EXPECT_EQ(findDivergenceInsn(fa, fa, 256), ~0ULL);
}

TEST(Native, RipTriggerSwitchesToSimulation)
{
    auto m = bareMachine(computeBody);
    m->setMode(Machine::Mode::Native);
    // Trigger at the loop head (runs after the two setup insns).
    m->setRipTrigger(0x400000 + 5 + 5);  // after mov rax / mov rcx
    m->run(5'000'000);
    // Machine finished in simulation mode (trigger fired early on).
    EXPECT_EQ(m->mode(), Machine::Mode::Simulation);
    EXPECT_GT(m->stats().get("external/mode_switches"), 0ULL);
    EXPECT_GT(m->stats().get("core0/commit/insns"), 1000ULL);
}

TEST(Native, CommandListStopInsns)
{
    auto m = bareMachine(computeBody);
    CommandRunner runner(*m);
    runner.run("-run -stopinsns 100");
    U64 insns = m->totalCommittedInsns();
    EXPECT_GE(insns, 100ULL);
    EXPECT_LT(insns, 200ULL);   // bounded promptly
}

TEST(Native, CommandListPhases)
{
    auto m = bareMachine(computeBody);
    CommandRunner runner(*m);
    // Simulate 50 insns, go native for 120 insns, back to sim to finish.
    runner.run("-core ooo -run -stopinsns 50 : -native -stopinsns 120 "
               ": -run");
    EXPECT_GT(m->stats().get("external/mode_switches"), 1ULL);
    EXPECT_GT(m->stats().get("external/cycles_in_mode/native"), 0ULL);
    EXPECT_FALSE(m->vcpu(0).running);  // ran to the hlt
}

TEST(Native, CommandListParsing)
{
    auto phases = parseCommandList(
        "-core smt -run -stopinsns 10m : -native");
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_TRUE(phases[0].to_sim);
    EXPECT_EQ(phases[0].core, "smt");
    EXPECT_EQ(phases[0].stop_insns, 10'000'000ULL);
    EXPECT_TRUE(phases[1].to_native);
    EXPECT_EQ(parseScaledCount("64k"), 64'000ULL);
    EXPECT_EQ(parseScaledCount("2b"), 2'000'000'000ULL);
    EXPECT_EQ(parseScaledCount("123"), 123ULL);
}

TEST(Native, TscIsMonotonicAcrossModeSwitches)
{
    // Guest reads TSC, requests native mode via ptlcall, reads again,
    // requests simulation, reads a third time: strictly increasing.
    auto m = bareMachine([](Assembler &a) {
        a.rdtsc();
        a.shl(R::rdx, 32);
        a.or_(R::rax, R::rdx);
        a.mov(R::r12, R::rax);          // t1
        a.mov(R::rax, (U64)PTLCALL_SWITCH_TO_NATIVE);
        a.ptlcall();
        a.mov(R::rcx, 200);
        Label spin1 = a.label();
        a.dec(R::rcx);
        a.jcc(COND_ne, spin1);
        a.rdtsc();
        a.shl(R::rdx, 32);
        a.or_(R::rax, R::rdx);
        a.mov(R::r13, R::rax);          // t2
        a.mov(R::rax, (U64)PTLCALL_SWITCH_TO_SIM);
        a.ptlcall();
        a.mov(R::rcx, 200);
        Label spin2 = a.label();
        a.dec(R::rcx);
        a.jcc(COND_ne, spin2);
        a.rdtsc();
        a.shl(R::rdx, 32);
        a.or_(R::rax, R::rdx);
        a.mov(R::r14, R::rax);          // t3
        a.hlt();
    });
    m->run(10'000'000);
    U64 t1 = m->vcpu(0).regs[REG_r12];
    U64 t2 = m->vcpu(0).regs[REG_r13];
    U64 t3 = m->vcpu(0).regs[REG_r14];
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
    EXPECT_GT(m->stats().get("external/mode_switches"), 1ULL);
}

TEST(Native, CheckpointRestoreReproducesRun)
{
    auto m = bareMachine(computeBody);
    // Run a little, checkpoint, finish, record state; restore and
    // finish again: identical end state.
    m->run(500);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    m->run(10'000'000);
    U64 hash1 = hashGuestMemory(m->physMem());
    Context end1 = m->vcpu(0);

    restoreCheckpoint(*m, ckpt);
    EXPECT_EQ(m->timeKeeper().cycle(), ckpt.cycle);
    m->run(10'000'000);
    EXPECT_EQ(hashGuestMemory(m->physMem()), hash1);
    ContextDiff diff = compareContexts(end1, m->vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
}

SimConfig
diskConfig()
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.core_freq_hz = 10'000'000;
    cfg.guest_mem_bytes = 32 << 20;
    return cfg;
}

/** Boot the guest kernel with one task that reads two disk sectors
 *  into USER_DATA_VA (blocking until the disk interrupt) and exits
 *  with the first data word. Returns the task's CR3. */
Pfn
bootDiskReader(Machine &machine)
{
    KernelBuilder builder(machine.addressSpace(), machine.vcpu(0),
                          machine.timerPeriodCycles());
    Assembler &ua = builder.userAsm();
    GuestLib lib(ua);
    Label entry = ua.newLabel(), skip = ua.newLabel();
    ua.jmp(skip);
    lib.emitRuntime();
    ua.bind(skip);
    ua.bind(entry);
    ua.mov(R::rdi, 0);
    ua.mov(R::rsi, 2);
    ua.movImm64(R::rdx, USER_DATA_VA);
    lib.syscall(GSYS_disk_read);
    ua.movImm64(R::rbx, USER_DATA_VA);
    ua.mov(R::rdi, Mem::at(R::rbx));
    lib.syscall(GSYS_exit);
    builder.setInitTask(ua.labelVa(entry), 0);
    builder.build();
    machine.finalizeCores();
    return builder.taskCr3(0);
}

U64
readUserData(Machine &machine, Pfn cr3)
{
    Context probe;
    probe.cr3 = cr3;
    probe.kernel_mode = true;
    U64 v = 0;
    guestRead(machine.addressSpace(), probe, GuestVirt(USER_DATA_VA), 8, v);
    return v;
}

/** Run the disk reader on a disk of 0x3C bytes, recording every
 *  device completion into `trace`. */
Machine::RunResult
recordDiskRead(DeviceTrace &trace)
{
    Machine machine(diskConfig());
    bootDiskReader(machine);
    std::vector<U8> image(16 * DISK_SECTOR_BYTES, 0x3C);
    machine.disk().setImage(image);
    machine.recordDevices(&trace);
    return machine.run(100'000'000);
}

TEST(Native, DeviceTraceRecordsDiskDma)
{
    DeviceTrace trace;
    recordDiskRead(trace);

    // The DMA completion (payload + interrupt) was recorded.
    bool found = false;
    for (const TraceRecord &r : trace.all()) {
        if (r.port == PORT_DISK && r.dma_va == USER_DATA_VA
            && r.dma_data.size() == 2 * DISK_SECTOR_BYTES
            && r.dma_data[0] == 0x3C)
            found = true;
    }
    EXPECT_TRUE(found);

    // Replay injects the same DMA + event into a fresh domain image.
    Machine replay_machine(diskConfig());
    KernelBuilder rb(replay_machine.addressSpace(), replay_machine.vcpu(0),
                     replay_machine.timerPeriodCycles());
    rb.userAsm().hlt();
    rb.setInitTask(USER_TEXT_VA, 0);
    rb.build();
    TraceReplayer replayer(trace, replay_machine.eventChannels(),
                           replay_machine.addressSpace());
    // Fix the replayed CR3 context by construction: same builder
    // layout gives the same mappings.
    int injected = replayer.processDue(SimCycle(~0ULL - 1));
    EXPECT_GE(injected, 1);
    EXPECT_EQ(readUserData(replay_machine, rb.taskCr3(0)) & 0xFF, 0x3CULL);
}

/**
 * Timed replay through the machine loop (Section 4.2): the same guest
 * runs on a machine whose disk has no image, so its read request goes
 * nowhere and only the replayed DMA + interrupt can wake it. The task
 * blocks, the idle fast-forward jumps to the replay event, and the
 * payload and interrupt must arrive exactly at the recorded cycle —
 * also on a machine restored from a checkpoint taken before it, where
 * the restore has dropped the queue and re-armed the replayer.
 */
TEST(Native, AttachedReplayerInjectsAtRecordedCycle)
{
    DeviceTrace trace;
    Machine::RunResult recorded = recordDiskRead(trace);
    ASSERT_TRUE(recorded.shutdown);
    ASSERT_EQ(trace.size(), 1u);
    const SimCycle due = trace.all()[0].cycle;
    const U64 payload = 0x3C3C3C3C3C3C3C3CULL;
    ASSERT_EQ(recorded.exit_code, payload);

    for (bool restore : {false, true}) {
        SCOPED_TRACE(restore ? "after a checkpoint restore" : "fresh");
        Machine m(diskConfig());
        Pfn cr3 = bootDiskReader(m);
        TraceReplayer replayer(trace, m.eventChannels(), m.addressSpace());
        m.attachReplayer(&replayer);
        if (restore) {
            // Capture partway to the record, run on (still short of
            // it), then roll back: the replay event must be re-armed.
            m.run((due - m.timeKeeper().cycle()).raw() / 2);
            MachineCheckpoint ckpt = captureCheckpoint(m);
            m.run((due - m.timeKeeper().cycle()).raw() / 2);
            restoreCheckpoint(m, ckpt);
            ASSERT_EQ(m.timeKeeper().cycle(), ckpt.cycle);
        }
        // Up to the recorded cycle: the task is blocked on the disk,
        // and neither the payload nor the interrupt has arrived.
        Machine::RunResult before =
            m.run((due - m.timeKeeper().cycle()).raw());
        ASSERT_FALSE(before.shutdown);
        ASSERT_EQ(m.timeKeeper().cycle(), due);
        EXPECT_FALSE(m.vcpu(0).running);
        EXPECT_EQ(readUserData(m, cr3), 0ULL);
        EXPECT_EQ(m.eventChannels().pendingMasks()[0] & (1u << PORT_DISK),
                  0u);
        // The recorded cycle itself: both land and wake the VCPU.
        m.run(1);
        EXPECT_EQ(readUserData(m, cr3), payload);
        EXPECT_TRUE(m.vcpu(0).running);
        EXPECT_TRUE(replayer.finished());
        // The woken task reads the payload and exits with it.
        Machine::RunResult after = m.run(100'000'000);
        ASSERT_TRUE(after.shutdown);
        EXPECT_EQ(after.exit_code, payload);
    }
}

}  // namespace
}  // namespace ptl
