/**
 * Simulator-speed benchmark driver.
 *
 * Boots whole guest domains through the public Machine / RsyncBench /
 * KernelBuilder API and reports host-side speed per workload:
 *
 *   perfbench --workload rsync_ooo --seed 7 --seconds 10 --trace 0
 *
 * With --trace 0 it repeats one domain (built from the seed) a fixed
 * number of times per workload, with --seconds as a cap, and prints the
 * end-to-end metrics: the run time with each slice at its fastest over
 * the repeats, and the median set-up time. With --trace 1 it runs pairs
 * of domains on the same
 * input, one plain and one through the tracing wrapper core
 * (tracing.h), checks that both simulate the identical program, and
 * prints per-layer metrics. The last stdout line is always one JSON
 * object:
 *
 *   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
 *
 * See README.md for the workloads and the metric map.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "memchase.h"
#include "tracing.h"
#include "lib/logging.h"
#include "lib/rng.h"
#include "workload/rsyncbench.h"

using namespace ptl;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Kind { Rsync, MemChase };

/**
 * `domains` is how many domains an untraced run makes (a traced run
 * makes a third as many pairs). It is fixed, so that a faster and a
 * slower build take the same number of samples of each slice; it was
 * chosen to fill about 30 s on the host the bounds were set on.
 * --seconds only caps it: no domain starts that would, at the pace of
 * the slowest so far, end after it.
 */
struct Workload
{
    const char *name;
    Kind kind;
    const char *core;
    size_t domains;
};

const Workload kWorkloads[] = {
    {"rsync_ooo", Kind::Rsync, "ooo", 12},
    {"rsync_seq", Kind::Rsync, "seq", 28},
    {"memchase_ooo", Kind::MemChase, "ooo", 90},
};

/**
 * Domain sizes; `tiny` is the self-test size. A domain's simulated
 * cycles are quantized to guest timer ticks: shutdown waits for a later
 * tick. The rsync size keeps every seed's work well inside one tick on
 * each core (4 ticks on OoO, 5 on seq), so sim_cycles_per_s does not
 * jump by a tick from seed to seed.
 */
struct Sizes
{
    int rsync_files = 10;
    U64 rsync_mean_file_bytes = 6144;
    int rsync_changed_files = 6;        ///< files the new copy edits
    double rsync_changed_share = 0.6;   ///< their bytes / nominal bytes
    U64 chase_bytes = 8 << 20;
    U64 chase_steps = 50'000;
};

Sizes
sizesFor(bool tiny)
{
    Sizes s;
    if (tiny) {
        s.rsync_files = 2;
        s.rsync_mean_file_bytes = 2048;
        s.rsync_changed_files = 1;
        s.rsync_changed_share = 0.5;
        s.chase_bytes = 1 << 20;
        s.chase_steps = 5'000;
    }
    return s;
}

/** The generated inputs of one run (identical for every domain of it). */
struct Inputs
{
    FileSetParams files;
    MemChaseParams chase;
};

/** Files whose new copy differs from the old one, and their new bytes. */
std::pair<int, U64>
changedFiles(const FileSet &fs)
{
    ArchiveView before = ArchiveView::parse(fs.old_archive);
    ArchiveView after = ArchiveView::parse(fs.new_archive);
    int files = 0;
    U64 bytes = 0;
    for (size_t i = 0; i < after.entries.size(); i++) {
        const ArchiveView::Entry &a = before.entries[i], &b = after.entries[i];
        auto old_begin = fs.old_archive.begin() + (std::ptrdiff_t)a.offset;
        auto new_begin = fs.new_archive.begin() + (std::ptrdiff_t)b.offset;
        if (a.length != b.length
            || !std::equal(old_begin, old_begin + (std::ptrdiff_t)a.length,
                           new_begin)) {
            files++;
            bytes += b.length;
        }
    }
    return {files, bytes};
}

double
relativeError(double value, double target)
{
    return std::fabs(value - target) / target;
}

/**
 * Derive a run's inputs from its seed. The rsync file-set generator
 * draws file sizes, which files change, and how, at random. With a few
 * files, the host work of a domain then varies by 40% between seeds at
 * near-equal instruction counts, because the delta search costs far
 * more on changed bytes than on unchanged ones. The benchmark fixes the
 * amount of work instead: it draws candidate file-set seeds from the run
 * seed and keeps the first whose new archive is within 3% of its nominal
 * size (file count x mean), with exactly `rsync_changed_files` changed
 * files holding `rsync_changed_share` of the nominal bytes (within 5%).
 * Content, edit positions and the size mix still differ per seed.
 */
Inputs
makeInputs(const Workload &w, const Sizes &sizes, U64 seed)
{
    Inputs in;
    Rng rng(seed);   // the only source of input variation
    if (w.kind == Kind::Rsync) {
        in.files.file_count = sizes.rsync_files;
        in.files.mean_file_bytes = sizes.rsync_mean_file_bytes;
        const double nominal =
            (double)sizes.rsync_files * (double)sizes.rsync_mean_file_bytes;
        for (int tries = 0; tries < 1'000'000; tries++) {
            in.files.seed = rng.next();
            FileSet fs = generateFileSet(in.files);
            auto [files, bytes] = changedFiles(fs);
            if (relativeError((double)fs.total_new_bytes, nominal) <= 0.03
                && files == sizes.rsync_changed_files
                && relativeError((double)bytes,
                                 sizes.rsync_changed_share * nominal)
                       <= 0.05)
                return in;
        }
        fatal("no rsync file set meets the size and change targets");
    } else {
        in.chase.working_set_bytes = sizes.chase_bytes;
        in.chase.steps = sizes.chase_steps;
        in.chase.chain_seed = rng.next();
    }
    return in;
}

SimConfig
configFor(const Workload &w, bool traced)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = traced ? tracedCoreName(w.core) : std::string(w.core);
    if (w.kind == Kind::MemChase)
        cfg.applyMemoryJson(R"({"version": "1", "backend": "banked"})");
    return cfg;
}

// ---------------------------------------------------------------------
// One domain: build, run in slices, check
// ---------------------------------------------------------------------

constexpr U64 kSliceCycles = 10'000;
constexpr U64 kMaxCycles = 4'000'000'000ULL;

/** Per-slice folded spans of a traced run. */
struct Slice
{
    char phase = 'a';
    U64 start_ticks = 0, end_ticks = 0;
    U64 sim_cycles = 0;
    LayerTotals layers;  ///< deltas within this slice
};

struct DomainResult
{
    bool ok = false;
    std::string failure;
    double setup_s = 0;
    double run_s = 0;         ///< first Machine::run to shutdown
    std::vector<double> slice_s;   ///< wall seconds of each run() slice
    U64 sim_cycles = 0;
    U64 insns = 0;
    std::map<std::string, U64> stats;
    // Traced runs only.
    std::vector<Slice> slices;
    double ns_per_tick = 0;
};

/** Counters the per-layer metrics read after each run. */
const char *const kStatPaths[] = {
    "core0/commit/uops", "core0/commit/loads",
    "core0/cycles", "core0/ooocore/skipped_cycles",
    "core0/ooocore/select_fast_skips", "core0/ooocore/wakeup_broadcasts",
    "core0/lsq/replays", "core0/pipeline/flushes",
    "core0/branches/cond", "core0/branches/mispredicted",
    "core0/dcache/accesses", "core0/dcache/misses",
    "core0/dcache/mshr_full", "core0/l2/accesses", "core0/l2/misses",
    "core0/dtlb/accesses", "core0/dtlb/misses", "core0/walker/walks",
    "core0/membackend/reads", "core0/membackend/writes",
    "external/cycles_in_mode/user", "external/cycles_in_mode/kernel",
    "external/cycles_in_mode/idle", "eventq/fired",
    "hypervisor/cr3_switches",
    "bbcache/hits", "bbcache/misses", "transcache/hits",
    "transcache/misses",
};

/** Phase letter for a ptlcall marker id, or 0 for a non-phase marker. */
char
phaseOf(U64 marker)
{
    if (marker >= PHASE_A_STARTUP && marker <= PHASE_F_TRANSMIT)
        return (char)('a' + (marker - PHASE_A_STARTUP));
    if (marker == PHASE_G_SHUTDOWN)
        return 'g';
    return 0;
}

/** The phase of the latest marker; boot (before marker a) counts as a. */
char
currentPhase(const Hypervisor &hv)
{
    const auto &marks = hv.markers();
    for (auto it = marks.rbegin(); it != marks.rend(); ++it) {
        if (char p = phaseOf(it->id))
            return p;
    }
    return 'a';
}

/** Owns whichever domain a workload builds. */
struct Domain
{
    std::unique_ptr<RsyncBench> rsync;
    std::unique_ptr<MemChase> chase;
    U64 expected_exit = 0;

    Machine &machine() { return rsync ? rsync->machine() : chase->machine(); }
};

DomainResult
runDomain(const Workload &w, const Inputs &in, bool traced,
          U64 checksum_skew)
{
    DomainResult out;
    SimConfig cfg = configFor(w, traced);
    Clock::time_point t0 = Clock::now();
    Domain d;
    if (w.kind == Kind::Rsync) {
        d.rsync = std::make_unique<RsyncBench>(cfg, in.files);
        d.expected_exit = 0;   // the server's mismatch count
    } else {
        d.chase = std::make_unique<MemChase>(cfg, in.chase);
        d.expected_exit = d.chase->expectedChecksum() + checksum_skew;
    }
    out.setup_s = secondsSince(t0);

    Machine &m = d.machine();
    LayerTotals &lt = layerTotals();
    lt = LayerTotals{};
    Machine::RunResult r;
    U64 total = 0;
    t0 = Clock::now();
    const U64 tick0 = traceTicks();
    for (;;) {
        Slice s;
        if (traced) {
            s.layers = lt;
            s.start_ticks = traceTicks();
        }
        Clock::time_point slice0 = Clock::now();
        r = m.run(kSliceCycles);
        out.slice_s.push_back(secondsSince(slice0));
        if (traced) {
            s.end_ticks = traceTicks();
            s.phase = currentPhase(m.hypervisor());
            s.sim_cycles = r.cycles;
            s.layers.core_calls = lt.core_calls - s.layers.core_calls;
            s.layers.core_ticks = lt.core_ticks - s.layers.core_ticks;
            s.layers.sys_calls = lt.sys_calls - s.layers.sys_calls;
            s.layers.sys_ticks = lt.sys_ticks - s.layers.sys_ticks;
            out.slices.push_back(s);
        }
        total += r.cycles;
        if (r.shutdown || r.stalled || total >= kMaxCycles)
            break;
    }
    const U64 ticks = traceTicks() - tick0;
    out.run_s = secondsSince(t0);
    if (ticks)
        out.ns_per_tick = out.run_s * 1e9 / (double)ticks;

    out.sim_cycles = m.timeKeeper().cycle().raw();
    out.insns = m.totalCommittedInsns();
    for (const char *path : kStatPaths)
        out.stats[path] = m.stats().get(path);

    char why[160];
    if (!r.shutdown) {
        std::snprintf(why, sizeof why, "domain did not shut down (%s)",
                      r.stalled ? "stalled" : "cycle limit");
        out.failure = why;
    } else if (r.exit_code != d.expected_exit) {
        std::snprintf(why, sizeof why,
                      "exit code %#" PRIx64 ", expected %#" PRIx64,
                      r.exit_code, d.expected_exit);
        out.failure = why;
    }
    out.ok = out.failure.empty();
    std::fprintf(stderr,
                 "perfbench: %s%s domain: setup %.4f s, run %.4f s, %" PRIu64
                 " cycles, %" PRIu64 " insns%s%s\n",
                 w.name, traced ? " traced" : "", out.setup_s, out.run_s,
                 out.sim_cycles, out.insns, out.ok ? "" : ", FAILED: ",
                 out.failure.c_str());
    return out;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Metric name -> (samples, unit); reported as the sample median. */
class MetricSet
{
  public:
    void
    add(const std::string &name, const char *unit, double value)
    {
        Entry &e = entries_[name];
        e.unit = unit;
        e.values.push_back(std::isfinite(value) ? value : 0.0);
    }

    std::string
    json() const
    {
        std::string s = "{";
        bool first = true;
        for (const auto &[name, e] : entries_) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                          first ? "" : ", ", name.c_str(),
                          median(e.values), e.unit.c_str());
            s += buf;
            first = false;
        }
        return s + "}";
    }

  private:
    struct Entry
    {
        std::string unit;
        std::vector<double> values;
    };
    std::map<std::string, Entry> entries_;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;   // ru_maxrss is in KiB
}

/**
 * Run time of a run's domains with each slice taken at its fastest.
 * Every domain of a run simulates the identical program, so slice i is
 * the same work in each. Contention from other tenants of a shared host
 * only ever adds time, and comes and goes faster than a domain runs, so
 * the per-slice minimum over the repeats is a far steadier estimate of
 * the program's own cost than any one domain's time (see README.md).
 */
double
bestSliceTime(const std::vector<DomainResult> &runs)
{
    std::vector<double> best;
    for (const DomainResult &d : runs) {
        best.resize(std::max(best.size(), d.slice_s.size()), HUGE_VAL);
        for (size_t i = 0; i < d.slice_s.size(); i++)
            best[i] = std::min(best[i], d.slice_s[i]);
    }
    double total = 0;
    for (double b : best)
        total += b;
    return total;
}

/** End-to-end metrics over the plain domains of a run. */
void
addEndToEnd(MetricSet &ms, const std::vector<DomainResult> &plain)
{
    const DomainResult &d = plain.front();
    const double run_s = bestSliceTime(plain);
    ms.add("run_s", "s", run_s);
    ms.add("sim_cycles_per_s", "1/s", ratio((double)d.sim_cycles, run_s));
    ms.add("guest_insns_per_s", "1/s", ratio((double)d.insns, run_s));
    for (const DomainResult &d : plain)
        ms.add("setup_s", "s", d.setup_s);   // reported as the median
    ms.add("peak_rss_mb", "MB", peakRssMb());
}

/** Per-layer metrics of one traced domain. */
void
addPerLayer(MetricSet &ms, const DomainResult &t)
{
    auto st = [&](const char *path) { return (double)t.stats.at(path); };
    const double tick_s = t.ns_per_tick * 1e-9;

    LayerTotals sum;
    double run_ticks = 0;
    std::map<char, std::pair<double, double>> phases;  // host_s, cycles
    for (const Slice &s : t.slices) {
        double ticks = (double)(s.end_ticks - s.start_ticks);
        run_ticks += ticks;
        sum.core_calls += s.layers.core_calls;
        sum.core_ticks += s.layers.core_ticks;
        sum.sys_calls += s.layers.sys_calls;
        sum.sys_ticks += s.layers.sys_ticks;
        phases[s.phase].first += ticks * tick_s;
        phases[s.phase].second += (double)s.sim_cycles;
    }
    const double run_host = run_ticks * tick_s;
    const double core_host = (double)sum.core_ticks * tick_s;
    const double sys_host = (double)sum.sys_ticks * tick_s;

    ms.add("core.cycle.calls", "count", (double)sum.core_calls);
    ms.add("core.cycle.host_s", "s", core_host);
    ms.add("core.cycle.self_s", "s", core_host - sys_host);
    ms.add("core.cycle.host_ns", "ns",
           ratio(core_host * 1e9, (double)sum.core_calls));
    ms.add("sys.run.host_s", "s", run_host);
    ms.add("sys.loop.self_s", "s", run_host - core_host);
    ms.add("sys.hypercall.calls", "count", (double)sum.sys_calls);
    ms.add("sys.hypercall.host_s", "s", sys_host);
    ms.add("core.cycle.run_share", "ratio", ratio(core_host, run_host));

    const double busy = st("external/cycles_in_mode/user")
                        + st("external/cycles_in_mode/kernel");
    const double idle = st("external/cycles_in_mode/idle");
    ms.add("core.ooo.skipped_share", "ratio",
           ratio(st("core0/ooocore/skipped_cycles"), st("core0/cycles")));
    ms.add("core.ooo.select_fast_skips", "count",
           st("core0/ooocore/select_fast_skips"));
    ms.add("core.ooo.wakeup_broadcasts", "count",
           st("core0/ooocore/wakeup_broadcasts"));
    ms.add("core.lsq.replays_per_load", "ratio",
           ratio(st("core0/lsq/replays"), st("core0/commit/loads")));
    ms.add("core.pipeline.flushes", "count", st("core0/pipeline/flushes"));
    ms.add("core.ipc", "insn/cycle", ratio((double)t.insns, busy));
    ms.add("sys.idle_share", "ratio", ratio(idle, busy + idle));
    ms.add("sys.eventq.fired", "count", st("eventq/fired"));
    ms.add("sys.hypervisor.cr3_switches", "count",
           st("hypervisor/cr3_switches"));
    ms.add("decode.bbcache.hit_ratio", "ratio",
           ratio(st("bbcache/hits"),
                 st("bbcache/hits") + st("bbcache/misses")));
    ms.add("decode.bbcache.misses", "count", st("bbcache/misses"));
    ms.add("mem.transcache.hit_ratio", "ratio",
           ratio(st("transcache/hits"),
                 st("transcache/hits") + st("transcache/misses")));
    ms.add("mem.dcache.miss_ratio", "ratio",
           ratio(st("core0/dcache/misses"), st("core0/dcache/accesses")));
    ms.add("mem.l2.miss_ratio", "ratio",
           ratio(st("core0/l2/misses"), st("core0/l2/accesses")));
    ms.add("mem.dtlb.miss_ratio", "ratio",
           ratio(st("core0/dtlb/misses"), st("core0/dtlb/accesses")));
    ms.add("mem.walker.walks", "count", st("core0/walker/walks"));
    ms.add("mem.backend.requests", "count",
           st("core0/membackend/reads") + st("core0/membackend/writes"));
    ms.add("mem.dcache.mshr_full", "count", st("core0/dcache/mshr_full"));
    ms.add("branch.mispredict_ratio", "ratio",
           ratio(st("core0/branches/mispredicted"), st("core0/branches/cond")));
    for (char p = 'a'; p <= 'g'; p++) {
        std::string base = std::string("phase.") + p;
        ms.add(base + ".host_s", "s", phases[p].first);
        ms.add(base + ".sim_cycles", "count", phases[p].second);
    }
    ms.add("model.sim_cycles", "count", (double)t.sim_cycles);
    ms.add("model.insns", "count", (double)t.insns);
    ms.add("model.uops", "count", st("core0/commit/uops"));
}

// ---------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------

std::string
firstLine(const char *path, const char *key = nullptr)
{
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (!key)
            return line;
        if (line.rfind(key, 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unavailable";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if ((unsigned char)c >= 0x20)
            out += c;
    }
    return out;
}

/** Reasons this build or environment measures a different program. */
std::vector<std::string>
instrumentation()
{
    std::vector<std::string> why;
    if (std::strlen(PERFBENCH_SANITIZE) > 0)
        why.push_back(std::string("sanitizer on: ") + PERFBENCH_SANITIZE);
    for (const char *var : {"PTLSIM_VERIFY", "PTLSIM_TRACE"}) {
        if (std::getenv(var))
            why.push_back(std::string(var) + " is set");
    }
    return why;
}

std::string
provenanceJson(const std::string &commit, const std::string &digest)
{
    std::ostringstream o;
    o << "{\"provenance\": {"
      << "\"cpu_model\": \""
      << jsonEscape(firstLine("/proc/cpuinfo", "model name")) << "\", "
      << "\"nproc\": " << std::thread::hardware_concurrency() << ", "
      << "\"scaling_governor\": \""
      << jsonEscape(firstLine(
             "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
      << "\", "
      << "\"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER) << "\", "
      << "\"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", "
      << "\"ptl_verify\": " << (PTL_VERIFY ? "true" : "false") << ", "
      << "\"sanitize\": \"" << PERFBENCH_SANITIZE << "\", "
      << "\"git_commit\": \"" << jsonEscape(commit) << "\", "
      << "\"source_sha256\": \"" << jsonEscape(digest) << "\"}}";
    return o.str();
}

// ---------------------------------------------------------------------
// Trace file
// ---------------------------------------------------------------------

void
writeTrace(const std::string &path, const std::string &provenance,
           const Workload &w, U64 seed,
           const std::vector<DomainResult> &traced)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                     path.c_str());
        return;
    }
    // One span per Machine::run slice; core.cycle and sys.hypercall are
    // folded into it as child totals (sys.hypercall nests in core.cycle).
    f << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
      << ", " << provenance.substr(1, provenance.size() - 2)
      << ", \"domains\": [";
    for (size_t i = 0; i < traced.size(); i++) {
        const DomainResult &d = traced[i];
        const U64 base = d.slices.empty() ? 0 : d.slices[0].start_ticks;
        const double k = d.ns_per_tick;
        f << (i ? ", " : "") << "{\"spans\": [";
        for (size_t j = 0; j < d.slices.size(); j++) {
            const Slice &s = d.slices[j];
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\": \"sys.run\", \"id\": %zu, \"phase\": \"%c\", "
                "\"start_ns\": %.0f, \"end_ns\": %.0f, \"sim_cycles\": %"
                PRIu64 ", \"children\": ["
                "{\"name\": \"core.cycle\", \"parent\": \"sys.run\", "
                "\"calls\": %" PRIu64 ", \"ns\": %.0f}, "
                "{\"name\": \"sys.hypercall\", \"parent\": \"core.cycle\", "
                "\"calls\": %" PRIu64 ", \"ns\": %.0f}]}",
                j ? ",\n" : "\n", j, s.phase,
                (double)(s.start_ticks - base) * k,
                (double)(s.end_ticks - base) * k, s.sim_cycles,
                s.layers.core_calls, (double)s.layers.core_ticks * k,
                s.layers.sys_calls, (double)s.layers.sys_ticks * k);
            f << buf;
        }
        f << "]}";
    }
    f << "]}\n";
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    U64 seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    U64 checksum_skew = 0;
    std::string trace_out;
    std::string commit = "unknown";
    std::string digest = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload rsync_ooo|rsync_seq|memchase_ooo "
                 "--seed N --seconds S --trace 0|1\n"
                 "       [--tiny] [--checksum-skew K] [--trace-out FILE]\n"
                 "       [--commit SHA] [--source-digest SHA256]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--checksum-skew") {
            o.checksum_skew = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else if (a == "--commit") {
            o.commit = v;
        } else if (a == "--source-digest") {
            o.digest = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end && *end)
            usage(("bad number for " + a).c_str());
    }
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

/** Domains (or traced pairs) a run always makes, whatever its cap. */
constexpr size_t kMinRepeats = 3;

}  // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (opt.workload == cand.name)
            w = &cand;
    }
    if (!w)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    const std::string provenance = provenanceJson(opt.commit, opt.digest);
    std::printf("%s\n", provenance.c_str());
    std::vector<std::string> instrumented = instrumentation();
    for (const std::string &why : instrumented)
        std::fprintf(stderr, "perfbench: INSTRUMENTED BUILD: %s\n",
                     why.c_str());
    if (!instrumented.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report timings from "
                             "an instrumented build\n");
        return 3;
    }

    registerTracingCores();
    const Sizes sizes = sizesFor(opt.tiny);
    const Inputs inputs = makeInputs(*w, sizes, opt.seed);

    MetricSet metrics;
    int attempted = 0, failed = 0;
    auto check = [&](const DomainResult &d, const char *label) {
        attempted++;
        if (!d.ok) {
            failed++;
            std::fprintf(stderr, "perfbench: %s %s run failed: %s\n",
                         w->name, label, d.failure.c_str());
        }
    };

    size_t repeats = opt.tiny ? kMinRepeats : w->domains;
    if (opt.trace)
        repeats = std::max(kMinRepeats, repeats / 3);
    std::vector<DomainResult> plain_runs, traced_runs;
    Clock::time_point start = Clock::now();
    double slowest = 0;   // wall seconds of the longest repeat so far
    for (size_t rep = 0; rep < repeats
                         && (rep < kMinRepeats
                             || secondsSince(start) + slowest <= opt.seconds);
         rep++) {
        Clock::time_point rep0 = Clock::now();
        DomainResult plain = runDomain(*w, inputs, false, opt.checksum_skew);
        check(plain, "plain");
        plain_runs.push_back(std::move(plain));
        if (opt.trace) {
            const DomainResult &twin = plain_runs.back();
            DomainResult traced =
                runDomain(*w, inputs, true, opt.checksum_skew);
            if (traced.ok
                && (traced.sim_cycles != twin.sim_cycles
                    || traced.insns != twin.insns
                    || traced.stats.at("core0/commit/uops")
                           != twin.stats.at("core0/commit/uops"))) {
                char why[160];
                std::snprintf(why, sizeof why,
                              "simulated a different program than the plain "
                              "run: cycles %" PRIu64 "/%" PRIu64
                              ", insns %" PRIu64 "/%" PRIu64,
                              traced.sim_cycles, twin.sim_cycles,
                              traced.insns, twin.insns);
                traced.ok = false;
                traced.failure = why;
            }
            check(traced, "traced");
            addPerLayer(metrics, traced);
            traced_runs.push_back(std::move(traced));
        }
        slowest = std::max(slowest, secondsSince(rep0));
    }
    if (!opt.trace) {
        addEndToEnd(metrics, plain_runs);
    } else {
        // Compared like run_s, so host contention does not masquerade
        // as tracing cost.
        metrics.add("trace.overhead_pct", "%",
                    100.0 * (ratio(bestSliceTime(traced_runs),
                                   bestSliceTime(plain_runs)) - 1));
        if (!opt.trace_out.empty())
            writeTrace(opt.trace_out, provenance, *w, opt.seed, traced_runs);
    }

    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics.json().c_str());
    return 0;
}
