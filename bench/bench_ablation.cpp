/**
 * Ablation benchmarks for the design choices DESIGN.md calls out
 * (google-benchmark; the interesting output is the user counters,
 * which report *simulated* cycles — the architectural effect — while
 * the wall-clock column shows the simulation-speed effect):
 *
 *  - basic block cache: the paper notes the BB cache "simply exists to
 *    speed up the simulation"; ablated by invalidating translations
 *    every block, forcing re-decode (architecturally invisible:
 *    committed instruction counts must match).
 *  - branch predictor family: bimodal vs gshare vs hybrid vs static,
 *    measured as simulated cycles to finish a branchy kernel.
 *  - load hoisting on/off (the K8 preset disables it).
 *  - instant-visibility vs MOESI coherence on a two-core ping-pong.
 */

#include <benchmark/benchmark.h>

#include "sys/baremachine.h"

namespace ptl {
namespace {

constexpr U64 CODE_BASE = BareMachine::CODE_BASE;
constexpr U64 DATA_BASE = BareMachine::DATA_BASE;

/** k8 with an OoO core per VCPU. */
SimConfig
ablationConfig(int ncores = 1)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.vcpu_count = ncores;
    return cfg;
}

/** Point every VCPU at the image base and build the cores. */
void
loadAndStart(BareMachine &m, Assembler &a)
{
    for (int v = 0; v < m.vcpuCount(); v++)
        m.load(a, v);
    m.start();
}

void
branchyKernel(Assembler &a)
{
    a.mov(R::rbx, 99);
    a.mov(R::rcx, 30000);
    a.mov(R::rdx, 0);
    Label top = a.label();
    a.mov(R::rax, R::rbx);
    a.shl(R::rax, 13);
    a.xor_(R::rbx, R::rax);
    a.mov(R::rax, R::rbx);
    a.shr(R::rax, 7);
    a.xor_(R::rbx, R::rax);
    a.test(R::rbx, 3);
    Label skip = a.newLabel();
    a.jcc(COND_ne, skip);
    a.inc(R::rdx);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
BM_BbCacheOn(benchmark::State &state)
{
    U64 cycles = 0, insns = 0;
    for (auto _ : state) {
        BareMachine m(ablationConfig());
        Assembler a(CODE_BASE);
        branchyKernel(a);
        loadAndStart(m, a);
        cycles = m.run(2'000'000'000);
        insns = m.stats().get("core0/commit/insns");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["guest_insns"] = (double)insns;
}

void
BM_BbCacheThrashed(benchmark::State &state)
{
    U64 cycles = 0, insns = 0;
    for (auto _ : state) {
        BareMachine m(ablationConfig());
        Assembler a(CODE_BASE);
        branchyKernel(a);
        loadAndStart(m, a);
        while (!m.allIdle()) {
            m.tick();
            if (m.now().raw() % 64 == 0)
                m.bbCache().invalidateAll();   // re-decode constantly
        }
        cycles = m.now().raw();
        insns = m.stats().get("core0/commit/insns");
    }
    // Architecturally invisible: same instructions commit; only the
    // host-time column (simulation speed) degrades.
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["guest_insns"] = (double)insns;
}

void
predictorAblation(benchmark::State &state, PredictorKind kind)
{
    U64 cycles = 0, mispredicts = 0;
    for (auto _ : state) {
        SimConfig cfg = ablationConfig();
        cfg.predictor = kind;
        BareMachine m(cfg);
        Assembler a(CODE_BASE);
        branchyKernel(a);
        loadAndStart(m, a);
        cycles = m.run(2'000'000'000);
        mispredicts = m.stats().get("core0/branches/mispredicted");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["mispredicts"] = (double)mispredicts;
}

/** Serialized pointer-chase: every load address depends on the
 *  previous load's value, so the pipeline drains on each D-miss and
 *  skip-ahead has long quiesced stretches to jump. */
void
missChainKernel(Assembler &a)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 2000);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.and_(R::rdx, 63);
    a.shl(R::rdx, 13);               // 8 KB stride over a 512 KB window
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);           // serialize on the previous load
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);           // zero-filled memory: rax stays 0
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** Skip-ahead on/off must be architecturally invisible — identical
 *  sim_cycles — while the wall-clock column shows the speedup from
 *  not evaluating quiesced stall cycles. evaluated_cycles reports how
 *  many cycles actually ran through the pipeline stages; the rest were
 *  jumped via sleepUntil. */
void
skipAheadAblation(benchmark::State &state, bool skip)
{
    U64 cycles = 0, evaluated = 0;
    for (auto _ : state) {
        // Machine setup (guest memory init) dwarfs the simulation
        // itself here; measure only the run loop.
        state.PauseTiming();
        SimConfig cfg = ablationConfig();
        cfg.skip_ahead = skip;
        auto m = std::make_unique<BareMachine>(cfg);
        Assembler a(CODE_BASE);
        missChainKernel(a);
        loadAndStart(*m, a);
        state.ResumeTiming();
        cycles = m->runWithSleep(2'000'000'000);
        state.PauseTiming();
        evaluated = m->stats().get("core0/cycles");
        m.reset();
        state.ResumeTiming();
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["evaluated_cycles"] = (double)evaluated;
}

void
BM_SkipAheadOn(benchmark::State &state)
{
    skipAheadAblation(state, true);
}
void
BM_SkipAheadOff(benchmark::State &state)
{
    skipAheadAblation(state, false);
}

void
BM_PredictorHybrid(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::Hybrid);
}
void
BM_PredictorGshare(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::Gshare);
}
void
BM_PredictorBimodal(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::Bimodal);
}
void
BM_PredictorNotTaken(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::NotTaken);
}

void
hoistKernel(Assembler &a)
{
    // Stores with slowly-resolving addresses followed by independent
    // loads: hoisting lets the loads start early.
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 20000);
    Label top = a.label();
    a.mov(R::rax, R::rbx);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.mov(Mem::at(R::rax, 0x100), R::rcx);      // slow-address store
    a.mov(R::rdx, Mem::at(R::rbx, 0x200));      // independent load
    a.add(R::rdx, Mem::at(R::rbx, 0x208));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
hoistAblation(benchmark::State &state, bool hoisting)
{
    U64 cycles = 0, flushes = 0;
    for (auto _ : state) {
        SimConfig cfg = ablationConfig();
        cfg.load_hoisting = hoisting;
        BareMachine m(cfg);
        Assembler a(CODE_BASE);
        hoistKernel(a);
        loadAndStart(m, a);
        cycles = m.run(2'000'000'000);
        flushes = m.stats().get("core0/lsq/hoist_flushes");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["hoist_flushes"] = (double)flushes;
}

void
BM_LoadHoistingOn(benchmark::State &state)
{
    hoistAblation(state, true);
}
void
BM_LoadHoistingOff(benchmark::State &state)
{
    hoistAblation(state, false);
}

void
coherenceAblation(benchmark::State &state, CoherenceKind kind)
{
    U64 cycles = 0, xfers = 0;
    for (auto _ : state) {
        SimConfig cfg = ablationConfig(2);
        cfg.coherence = kind;
        BareMachine m(cfg);
        Assembler a(CODE_BASE);
        // Two cores ping-pong one line with locked increments.
        a.movImm64(R::rbx, DATA_BASE);
        a.mov(R::rcx, 2000);
        Label top = a.label();
        a.lockInc(Mem::at(R::rbx));
        a.dec(R::rcx);
        a.jcc(COND_ne, top);
        a.hlt();
        loadAndStart(m, a);
        cycles = m.run(2'000'000'000);
        xfers = m.stats().get("coherence/cache_to_cache_transfers");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["c2c_transfers"] = (double)xfers;
}

void
BM_CoherenceInstant(benchmark::State &state)
{
    coherenceAblation(state, CoherenceKind::InstantVisibility);
}
void
BM_CoherenceMoesi(benchmark::State &state)
{
    coherenceAblation(state, CoherenceKind::Moesi);
}

BENCHMARK(BM_BbCacheOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BbCacheThrashed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkipAheadOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkipAheadOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorHybrid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorGshare)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorBimodal)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorNotTaken)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadHoistingOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadHoistingOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoherenceInstant)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoherenceMoesi)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ptl

BENCHMARK_MAIN();
