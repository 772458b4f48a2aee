/**
 * @file
 * Fast perf smoke test (`ctest -L perf`): runs the bench_simspeed
 * compute kernel briefly on the out-of-order core with the per-cycle
 * invariant checker enabled and (in PTL_VERIFY builds) the translation
 * cache's shadow-walk verification live. Catches a translation-cache
 * or pipeline regression in seconds, without the full benchmark run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "guest_harness.h"

namespace ptl {
namespace {

/** The bench_simspeed hash-and-update kernel, bounded to `iterations`
 *  instead of endless: real memory traffic and data-dependent
 *  branches. */
void
hashKernel(Assembler &a, U64 iterations)
{
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, iterations);
    a.mov(R::rax, 12345);
    Label top = a.label();
    a.mov(R::rdx, R::rax);
    a.and_(R::rdx, 0xFFF8);
    a.mov(R::rsi, Mem::idx(R::rbx, R::rdx, 1));
    a.add(R::rax, R::rsi);
    a.imul(R::rax, R::rax, 0x9E3779B9);
    a.mov(Mem::idx(R::rbx, R::rdx, 1), R::rax);
    a.test(R::rax, 0x100);
    Label skip = a.newLabel();
    a.jcc(COND_e, skip);
    a.add(R::rax, 7);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

TEST(PerfSmoke, BenchKernelShortRunUnderVerification)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.verify = true;
    cfg.verify_interval = 1;
    BareMachine r(cfg);

    Assembler a(BareMachine::CODE_BASE);
    hashKernel(a, 5000);
    r.load(a);
    r.start();
    r.run(2'000'000);

    // The loop ran to completion and the functional path served the
    // vast majority of its translations from the cache.
    EXPECT_EQ(r.reg(R::rcx), 0ULL);
    const TranslationCache &tc = r.addressSpace().transCache();
    EXPECT_GT(tc.hits(), 10'000ULL);
    EXPECT_LT(tc.misses(), tc.hits() / 10);
#if PTL_VERIFY
    ASSERT_TRUE(tc.shadowEnabled());
    EXPECT_GT(r.stats().get("transcache/shadow_checks"), 0ULL);
    // The invariant checker actually audited the pipeline.
    EXPECT_GT(r.stats().get("core0/verify/checks"), 0ULL);
#endif
}

/** The hot-path machinery must actually engage on a stall-heavy
 *  run: skip-ahead absorbs quiesced cycles, select skips clean
 *  queues, and completions broadcast to waiting consumers. */
TEST(PerfSmoke, SchedulerFastPathsEngage)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    BareMachine r(cfg);
    Assembler a(BareMachine::CODE_BASE);
    // Serialized pointer-chase: each load depends on the previous one.
    a.movImm64(R::rbx, BareMachine::DATA_BASE);
    a.mov(R::rcx, 64);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 13);
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.start();
    r.run();
    EXPECT_GT(r.stats().get("core0/ooocore/skipped_cycles"), 0ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/select_fast_skips"), 0ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/wakeup_broadcasts"), 0ULL);
}

// Sanitizer instrumentation slows simulation ~5x; the wall-clock
// bound below must only run in plain release builds. CMake defines
// PTL_PERF_SANITIZED for any PTL_SANITIZE preset; the compiler-macro
// checks catch sanitizers injected via raw flags.
#if !defined(PTL_PERF_SANITIZED)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PTL_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(undefined_behavior_sanitizer)
#define PTL_PERF_SANITIZED 1
#endif
#endif
#endif

/**
 * The recorded OoO:seqcore speed ratio. The gate compares this ratio,
 * not an absolute insns/s figure: both engines run in the same
 * process on the same host, so host speed and load cancel out. It is
 * the median of 12 standalone runs of this test on a 4-vCPU x86-64
 * VM, 0.26 both in the default RelWithDebInfo build (PTL_VERIFY=ON)
 * and in the release preset (Release, PTL_VERIFY=OFF); single runs
 * spread over 0.22-0.29. The google-benchmark BM_OooCore:BM_SeqCore
 * ratio is lower (0.19-0.22) and is not comparable: another kernel
 * loop, another binary.
 */
constexpr double RECORDED_OOO_SEQ_RATIO = 0.26;

/** Host CPU seconds consumed by this thread: unlike wall time, it
 *  excludes the time a loaded host keeps the test descheduled. */
double
threadCpuSeconds()
{
    timespec t;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/** The best guest insns/s over a series of slices, one slice per
 *  call so the caller can interleave engines. */
class SpeedProbe
{
  public:
    explicit SpeedProbe(const char *core) : m([core] {
        SimConfig cfg = SimConfig::preset("k8");
        cfg.core = core;
        return cfg;
    }())
    {
        Assembler a(BareMachine::CODE_BASE);
        hashKernel(a, 1ULL << 30);   // outlasts every slice
        m.load(a);
        m.start();
    }

    void
    slice(U64 slice_cycles)
    {
        const U64 insns0 = m.stats().get("core0/commit/insns");
        const double t0 = threadCpuSeconds();
        for (U64 c = 0; c < slice_cycles; c++)
            m.tick();
        const double secs = threadCpuSeconds() - t0;
        const U64 insns = m.stats().get("core0/commit/insns") - insns0;
        ASSERT_GT(insns, 0ULL);
        best = std::max(best, (double)insns / secs);
    }

    BareMachine m;
    double best = 0;
};

/**
 * Regression bound: OoO simulation speed relative to the seq core
 * must stay within 20% of the recorded ratio. Both engines run the
 * bench kernel in interleaved slices timed in thread CPU time, and
 * each keeps its best slice, so host load during one slice does not
 * decide the outcome. Wall-clock is only meaningful in an optimized,
 * uninstrumented build, so debug and sanitizer builds skip.
 */
TEST(PerfSmoke, OooThroughputWithin20PercentOfRecorded)
{
#if !defined(NDEBUG) || defined(PTL_PERF_SANITIZED)
    GTEST_SKIP() << "wall-clock bound requires a plain release build";
#else
    SpeedProbe ooo("ooo"), seq("seq");
    for (int i = 0; i < 20; i++) {
        ooo.slice(20'000);
        seq.slice(50'000);
    }
    const double ratio = ooo.best / seq.best;
    std::printf("OoO %.0f insns/s, seq %.0f insns/s, ratio %.3f "
                "(recorded %.2f)\n", ooo.best, seq.best, ratio,
                RECORDED_OOO_SEQ_RATIO);
    EXPECT_GE(ratio, 0.8 * RECORDED_OOO_SEQ_RATIO)
        << "OoO simulation speed regressed >20% relative to the seq core";
#endif
}

}  // namespace
}  // namespace ptl
