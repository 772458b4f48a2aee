/**
 * Figure 2 regeneration: "Time lapse graph of cycles spent in each CPU
 * mode (user, kernel, idle)", with the rsync benchmark's phases
 * (a)-(g) annotated from the ptlcall markers.
 *
 * The paper stresses that a substantial share of cycles lands in the
 * kernel (~15%) or idle waiting for I/O (~27%) — time a userspace-only
 * simulator cannot account for. The shape checks assert exactly that.
 */

#include <cinttypes>

#include "bench_util.h"

using namespace ptl;

int
main(int argc, char **argv)
{
    BenchScale scale = BenchScale::fromArgs(argc, argv);
    printRunBanner("Figure 2: time lapse of cycles per CPU mode", scale);

    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    // The paper snapshots every 2.2M cycles (1000/s at 2.2 GHz);
    // scale the cadence so the run produces ~100+ snapshots.
    cfg.snapshot_interval = 500'000;
    RsyncBench bench(cfg, scale.params);
    RsyncBench::Result r = bench.run();
    if (!r.shutdown || r.mismatches != 0) {
        std::printf("FATAL: benchmark failed (mismatches=%" PRIu64 ")\n",
                    r.mismatches);
        return 1;
    }

    StatsTree &s = bench.machine().stats();
    auto user = s.deltaSeries("external/cycles_in_mode/user");
    auto kernel = s.deltaSeries("external/cycles_in_mode/kernel");
    auto idle = s.deltaSeries("external/cycles_in_mode/idle");
    const auto &marks = bench.machine().hypervisor().markers();

    auto phase_at = [&](SimCycle cycle) -> char {
        char tag = ' ';
        for (const PtlMarker &m : marks) {
            if (m.cycle <= cycle) {
                switch (m.id) {
                  case PHASE_A_STARTUP: tag = 'a'; break;
                  case PHASE_B_SSH_CONNECT: tag = 'b'; break;
                  case PHASE_C_CLIENT_LIST: tag = 'c'; break;
                  case PHASE_D_SERVER_LIST: tag = 'd'; break;
                  case PHASE_E_DELTAS: tag = 'e'; break;
                  case PHASE_F_TRANSMIT: tag = 'f'; break;
                  case PHASE_G_SHUTDOWN: tag = 'g'; break;
                }
            }
        }
        return tag;
    };

    std::printf("\nsnapshot interval: %" PRIu64 " cycles; %zu intervals\n",
                cfg.snapshot_interval, user.size());
    std::printf("%5s %5s  %6s %6s %6s  %s\n", "snap", "phase", "user%",
                "kern%", "idle%", "bar (u=user k=kernel .=idle)");
    U64 tot_user = 0, tot_kernel = 0, tot_idle = 0;
    for (size_t i = 0; i < user.size(); i++) {
        U64 total = user[i] + kernel[i] + idle[i];
        if (total == 0)
            continue;
        double up = 100.0 * user[i] / total;
        double kp = 100.0 * kernel[i] / total;
        double ip = 100.0 * idle[i] / total;
        tot_user += user[i];
        tot_kernel += kernel[i];
        tot_idle += idle[i];
        char bar[41];
        int un = (int)(up * 40 / 100.0 + 0.5);
        int kn = (int)(kp * 40 / 100.0 + 0.5);
        if (un + kn > 40)
            kn = 40 - un;
        int j = 0;
        for (; j < un; j++) bar[j] = 'u';
        for (; j < un + kn; j++) bar[j] = 'k';
        for (; j < 40; j++) bar[j] = '.';
        bar[40] = 0;
        std::printf("%5zu   (%c)  %5.1f%% %5.1f%% %5.1f%%  |%s|\n", i,
                    phase_at(s.snapshot(i + 1).cycle), up, kp, ip, bar);
    }

    U64 total = tot_user + tot_kernel + tot_idle;
    double up = 100.0 * tot_user / total;
    double kp = 100.0 * tot_kernel / total;
    double ip = 100.0 * tot_idle / total;
    std::printf("\noverall: user %.1f%%  kernel %.1f%%  idle %.1f%%  "
                "(paper: kernel ~15%%, idle ~27%%)\n", up, kp, ip);
    std::printf("phase markers:\n");
    for (const PtlMarker &m : marks)
        std::printf("  cycle %12" PRIu64 "  phase %llx\n", m.cycle.raw(),
                    (unsigned long long)m.id);

    bool ok = true;
    auto expect = [&](bool cond, const char *what) {
        std::printf("shape check: %-46s %s\n", what,
                    cond ? "PASS" : "FAIL");
        ok &= cond;
    };
    expect(kp > 4.0, "kernel time is a visible fraction (paper ~15%)");
    expect(ip > 5.0, "idle/IO-wait time is visible (paper ~27%)");
    expect(up > 25.0, "user computation dominates the rest");
    expect(marks.size() >= 7, "all benchmark phases (a)-(g) marked");
    std::printf("\n%s\n", ok ? "FIGURE 2 SHAPE: PASS"
                             : "FIGURE 2 SHAPE: FAIL");
    return ok ? 0 : 1;
}
