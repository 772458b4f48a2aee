/** Tests for lib/: bitops, RNG determinism, configuration presets and JSON. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "lib/bitops.h"
#include "lib/config.h"
#include "lib/rng.h"

namespace ptl {
namespace {

TEST(Bitops, BitsAndMasks)
{
    EXPECT_EQ(bits(0xdeadbeefcafebabeULL, 0, 8), 0xbeULL);
    EXPECT_EQ(bits(0xdeadbeefcafebabeULL, 56, 8), 0xdeULL);
    EXPECT_EQ(bits(0xffULL, 4, 64), 0xfULL);
    EXPECT_EQ(lowMask(0), 0ULL);
    EXPECT_EQ(lowMask(1), 1ULL);
    EXPECT_EQ(lowMask(64), ~0ULL);
    EXPECT_EQ(byteMask(1), 0xffULL);
    EXPECT_EQ(byteMask(8), ~0ULL);
    EXPECT_TRUE(bit(0x8000000000000000ULL, 63));
    EXPECT_FALSE(bit(0x8000000000000000ULL, 62));
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0x80, 1), 0xffffffffffffff80ULL);
    EXPECT_EQ(signExtend(0x7f, 1), 0x7fULL);
    EXPECT_EQ(signExtend(0x8000, 2), 0xffffffffffff8000ULL);
    EXPECT_EQ(signExtend(0xffffffff, 4), ~0ULL);
    EXPECT_EQ(signExtend(0x7fffffff, 4), 0x7fffffffULL);
    EXPECT_EQ(signExtend(0x123, 8), 0x123ULL);
}

TEST(Bitops, Pow2AndAlign)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(log2Exact(4096), 12u);
    EXPECT_EQ(alignUp(4095, 4096), 4096ULL);
    EXPECT_EQ(alignUp(4096, 4096), 4096ULL);
    EXPECT_EQ(alignDown(4097, 4096), 4096ULL);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; i++)
        ASSERT_LT(r.below(17), 17ULL);
}

TEST(Config, K8PresetMatchesPaperSection5)
{
    SimConfig c = SimConfig::preset("k8");
    EXPECT_EQ(c.rob_size, 72);
    EXPECT_EQ(c.ldq_size, 44);
    EXPECT_EQ(c.stq_size, 44);
    EXPECT_EQ(c.int_iq_count, 3);
    EXPECT_EQ(c.int_iq_size, 8);
    EXPECT_EQ(c.fp_iq_size, 36);
    EXPECT_EQ(c.fp_cluster_delay, 2);
    EXPECT_EQ(c.int_prf_size, 128);
    EXPECT_FALSE(c.load_hoisting);
    EXPECT_TRUE(c.enforce_banking);
    EXPECT_EQ(c.l1d.size_bytes, 64u << 10);
    EXPECT_EQ(c.l1d.ways, 2);
    EXPECT_EQ(c.l1d.banks, 8);
    EXPECT_EQ(c.l2.size_bytes, 1u << 20);
    EXPECT_EQ(c.l2.ways, 16);
    EXPECT_EQ(c.l2.latency, 10);
    EXPECT_EQ(c.mem_latency, 112);
    EXPECT_EQ(c.dtlb_entries, 32);
    EXPECT_EQ(c.predictor, PredictorKind::Gshare);
    EXPECT_EQ(c.gshare_entries, 16384);
    EXPECT_NO_FATAL_FAILURE(c.validate());
}

TEST(Config, K8NativeReferenceHasRealK8Tlb)
{
    SimConfig c = SimConfig::preset("k8-native");
    EXPECT_EQ(c.tlb2_entries, 1024);
    EXPECT_EQ(c.tlb2_ways, 4);
    EXPECT_TRUE(c.pde_cache);
    // Everything else identical to the simulated-model preset.
    EXPECT_EQ(c.rob_size, 72);
    EXPECT_EQ(c.dtlb_entries, 32);
}

TEST(Config, ApplyOptionOverrides)
{
    SimConfig c = SimConfig::preset("default");
    c.applyJson(R"({"version": "1", "rob_size": "64", "predictor": "bimodal",
                    "load_hoisting": "off", "l1d": {"size": "32768"},
                    "coherence": "moesi"})");
    EXPECT_EQ(c.rob_size, 64);
    EXPECT_EQ(c.predictor, PredictorKind::Bimodal);
    EXPECT_FALSE(c.load_hoisting);
    EXPECT_EQ(c.l1d.size_bytes, 32768u);
    EXPECT_EQ(c.coherence, CoherenceKind::Moesi);
}

/**
 * The settable key set, pinned: every key of the schema, each with a
 * value that differs from its default. A knob added to the table and
 * missing here keeps its default; one dropped from the table is an
 * unknown key. Either way JsonKeySetIsPinned fails.
 */
const char *const kEveryKeyChanged = R"({"version": "1",
    "core_freq_hz": "3000000000", "vcpu_count": "2",
    "snapshot_interval": "1000000", "timer_hz": "250",
    "guest_mem_bytes": "33554432", "seed": "7", "shuffle_mfns": "false",
    "core": "seq", "smt_threads": "2", "fetch_width": "4",
    "frontend_width": "4", "issue_width_per_cluster": "4",
    "commit_width": "4", "fetch_queue_size": "32", "rob_size": "128",
    "ldq_size": "48", "stq_size": "32", "int_prf_size": "256",
    "fp_prf_size": "96", "int_iq_count": "1", "int_iq_size": "32",
    "fp_iq_size": "24", "fp_cluster_delay": "0", "frontend_stages": "5",
    "mispredict_penalty": "14", "load_hoisting": "true",
    "enforce_banking": "false", "skip_ahead": "false", "lat_alu": "2",
    "lat_mul": "4", "lat_div": "40", "lat_fp": "5", "lat_ld": "4",
    "l1i": {"size": "32768", "ways": "4", "repl": "random"},
    "l1d": {"size": "32768", "ways": "8", "latency": "4", "banks": "1",
            "repl": "tree-plru"},
    "l2": {"size": "2097152", "ways": "8", "latency": "12",
           "repl": "random"},
    "l3": {"size": "8388608", "ways": "8", "latency": "30",
           "repl": "tree-plru"},
    "mem_latency": "200", "backend": "hybrid",
    "dram": {"banks": "16", "row_bytes": "4096", "t_cas": "20",
             "t_rcd": "30", "t_rp": "30"},
    "edram": {"size": "2097152", "ways": "4", "line_bytes": "128",
              "latency": "12"},
    "pcm": {"read_latency": "200", "write_latency": "600",
            "deferred_writes": "4"},
    "dtlb_entries": "64", "itlb_entries": "64", "tlb2_entries": "1024",
    "tlb2_ways": "8", "pde_cache": "true", "hw_prefetch": "true",
    "coherence": "moesi", "interconnect_latency": "30",
    "predictor": "gshare", "gshare_entries": "8192", "gshare_history": "10",
    "bimodal_entries": "2048", "meta_entries": "2048", "btb_entries": "2048",
    "btb_ways": "2", "ras_entries": "32", "smt_policy": "icount",
    "smt_deadlock_timeout": "10000", "native_ipc_x1000": "1500",
    "commit_checker": "true", "verify": "true", "verify_interval": "16",
    "net_latency_us": "100", "disk_latency_us": "500",
    "mask_external_interrupts": "false"})";

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(Config, JsonKeySetIsPinned)
{
    SimConfig all;
    all.applyJson(kEveryKeyChanged);
    std::vector<std::string> changed = lines(all.toJson());
    std::vector<std::string> defaults = lines(SimConfig().toJson());
    ASSERT_EQ(changed.size(), defaults.size());
    // toJson() writes one key per line. Each key's value goes in alone
    // and comes back out on that key's line, moving no other line.
    std::string group;  // the open `"l2": {` line, if any
    for (size_t i = 2; i + 1 < changed.size(); i++) {
        const std::string &line = changed[i];
        if (line.back() == '{') {
            group = line;
            continue;
        }
        if (line.find('}') != std::string::npos) {
            group.clear();
            continue;
        }
        EXPECT_NE(line, defaults[i]);
        std::string entry = line.substr(0, line.find_last_not_of(',') + 1);
        SimConfig one;
        one.applyJson("{\"version\": \"1\", "
                      + (group.empty() ? entry : group + entry + "}") + "}");
        std::vector<std::string> expect = defaults;
        expect[i] = line;
        EXPECT_EQ(lines(one.toJson()), expect) << line;
    }
    // Round trip: the written document reads back to the same config.
    SimConfig back;
    back.applyJson(all.toJson());
    EXPECT_EQ(back.toJson(), all.toJson());
}

// ---------------------------------------------------------------------
// Strict values: a value that does not parse whole for its field's
// type is fatal and names the key, instead of loading a wrong number.
// ---------------------------------------------------------------------

TEST(ConfigErrors, NonNumericValueIsRejected)
{
    EXPECT_DEATH(SimConfig().applyJson(
                     R"({"version": "1", "l2": {"latency": "fast"}})"),
                 "key 'l2.latency': 'fast' is not an integer");
}

TEST(ConfigErrors, TrailingCharactersAreRejected)
{
    EXPECT_DEATH(SimConfig().applyJson(
                     R"({"version": "1", "dram": {"t_cas": "72x"}})"),
                 "key 'dram.t_cas': '72x' is not an integer");
}

TEST(ConfigErrors, NegativeUnsignedIsRejected)
{
    EXPECT_DEATH(SimConfig().applyJson(
                     R"({"version": "1", "l2": {"size": "-1"}})"),
                 "key 'l2.size': '-1' is not an unsigned integer");
}

TEST(ConfigErrors, IntOverflowIsRejected)
{
    EXPECT_DEATH(SimConfig().applyJson(
                     R"({"version": "1", "dram": {"banks": "4294967296"}})"),
                 "key 'dram.banks': 4294967296 is out of range");
}

TEST(ConfigErrors, IssueQueueGeometryIsBounded)
{
    // The OoO wakeup lists pack a slot into 6 bits and a queue into 8.
    auto with = [](void (*edit)(SimConfig &)) {
        SimConfig cfg = SimConfig::preset("k8");
        edit(cfg);
        return cfg;
    };
    EXPECT_DEATH(with([](SimConfig &c) { c.int_iq_size = 65; }).validate(),
                 "int_iq_size 65 out of range \\[1, 64\\]");
    EXPECT_DEATH(with([](SimConfig &c) { c.int_iq_size = 0; }).validate(),
                 "int_iq_size 0 out of range");
    EXPECT_DEATH(with([](SimConfig &c) { c.fp_iq_size = 100; }).validate(),
                 "fp_iq_size 100 out of range \\[1, 64\\]");
    EXPECT_DEATH(with([](SimConfig &c) { c.int_iq_count = 255; }).validate(),
                 "int_iq_count 255 out of range \\[1, 254\\]");
    // The largest legal shape passes.
    with([](SimConfig &c) {
        c.int_iq_size = 64;
        c.fp_iq_size = 64;
        c.int_iq_count = 254;
    }).validate();
}

TEST(Config, CacheGeometryDerivesSets)
{
    CacheParams p{64 << 10, 2, 64, 3, 8, 8};
    EXPECT_EQ(p.sets(), 512);
    CacheParams l2{1 << 20, 16, 64, 10, 16, 1};
    EXPECT_EQ(l2.sets(), 1024);
    CacheParams off{0, 16, 64, 10, 16, 1};
    EXPECT_EQ(off.sets(), 0);
}

}  // namespace
}  // namespace ptl
