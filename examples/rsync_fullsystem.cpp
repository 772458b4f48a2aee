/**
 * Full-system example: boot the paravirtual guest kernel and run the
 * paper's rsync-over-ssh client/server benchmark (Section 5) on the
 * out-of-order core, then print the phase timeline and the key
 * statistics PTLstats would report.
 *
 *   $ ./rsync_fullsystem [--files N]
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "workload/k8preset.h"

using namespace ptl;

int
main(int argc, char **argv)
{
    FileSetParams files;
    files.file_count = 40;
    files.mean_file_bytes = 6144;
    for (int i = 1; i + 1 < argc; i++) {
        if (std::strcmp(argv[i], "--files") == 0)
            files.file_count = std::atoi(argv[i + 1]);
    }

    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.snapshot_interval = 1'000'000;
    std::printf("building the domain: %d files per group...\n",
                files.file_count);
    RsyncBench bench(cfg, files);
    std::printf("file set: old %llu bytes, new %llu bytes\n",
                (unsigned long long)bench.fileSet().total_old_bytes,
                (unsigned long long)bench.fileSet().total_new_bytes);

    std::printf("booting and running (K8-configured OOO core)...\n");
    RsyncBench::Result r = bench.run();
    std::printf("domain shut down: %s; mismatched files: %" PRIu64 "\n",
                r.shutdown ? "yes" : "NO", r.mismatches);

    Machine &m = bench.machine();
    StatsTree &s = m.stats();
    std::printf("\nphase timeline (ptlcall markers):\n");
    const char *names[] = {"", "", "", "", "", "", "(g) shutdown", "",
                           "", "", "(a) startup/page-in",
                           "(b) ssh connect", "(c) client file list",
                           "(d) server file list", "(e) compute deltas",
                           "(f) transmit data"};
    for (const PtlMarker &mark : m.hypervisor().markers()) {
        const char *name =
            (mark.id < 16) ? names[mark.id] : "user marker";
        std::printf("  cycle %12" PRIu64 "  %s\n", mark.cycle.raw(), name);
    }

    U64 user = s.get("external/cycles_in_mode/user");
    U64 kernel = s.get("external/cycles_in_mode/kernel");
    U64 idle = s.get("external/cycles_in_mode/idle");
    U64 total = user + kernel + idle;
    std::printf("\ncycles: %" PRIu64 " total — user %.1f%%, kernel "
                "%.1f%%, idle %.1f%%\n",
                total, 100.0 * user / total, 100.0 * kernel / total,
                100.0 * idle / total);
    std::printf("x86 insns committed: %" PRIu64 " (IPC %.2f)\n",
                s.get("core0/commit/insns"),
                (double)s.get("core0/commit/insns") / total);
    std::printf("uops: %" PRIu64 "  loads: %" PRIu64 "  stores: %"
                PRIu64 "\n",
                s.get("core0/commit/uops"), s.get("core0/commit/loads"),
                s.get("core0/commit/stores"));
    std::printf("branches: %" PRIu64 " cond, %.2f%% mispredicted\n",
                s.get("core0/branches/cond"),
                100.0 * s.get("core0/branches/mispredicted")
                    / std::max<U64>(1, s.get("core0/branches/cond")));
    std::printf("L1D: %" PRIu64 " accesses, %.2f%% miss; DTLB: %.3f%% "
                "miss (%" PRIu64 " walks)\n",
                s.get("core0/dcache/accesses"),
                100.0 * s.get("core0/dcache/misses")
                    / std::max<U64>(1, s.get("core0/dcache/accesses")),
                100.0 * s.get("core0/dtlb/misses")
                    / std::max<U64>(1, s.get("core0/dtlb/accesses")),
                s.get("core0/walker/walks"));
    std::printf("syscall path: %" PRIu64 " assists; events delivered: %"
                PRIu64 "; CR3 switches: %" PRIu64 "\n",
                s.get("core0/commit/assists"),
                s.get("core0/commit/events_delivered"),
                s.get("hypervisor/cr3_switches"));
    std::printf("network: %" PRIu64 " packets, %" PRIu64 " bytes "
                "(vs %llu bytes of file data)\n",
                s.get("net/packets"), s.get("net/bytes"),
                (unsigned long long)bench.fileSet().total_new_bytes);
    std::printf("snapshots taken: %zu\n", s.snapshotCount());
    return (r.shutdown && r.mismatches == 0) ? 0 : 1;
}
