#include "lib/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "lib/logging.h"

namespace ptl {

int
CacheParams::sets() const
{
    if (size_bytes == 0)
        return 0;
    U64 lines = size_bytes / line_bytes;
    if (lines % ways != 0)
        fatal("cache geometry: %llu lines not divisible by %d ways",
              (unsigned long long)lines, ways);
    U64 sets = lines / ways;
    if (!isPow2(sets))
        fatal("cache geometry: set count %llu not a power of two",
              (unsigned long long)sets);
    return (int)sets;
}

SimConfig
SimConfig::preset(const std::string &name)
{
    SimConfig c;
    if (name == "default") {
        // A generic modern 4-wide OOO core, PTLsim's out-of-box shape.
        c.fetch_width = 4;
        c.frontend_width = 4;
        c.issue_width_per_cluster = 4;
        c.commit_width = 4;
        c.rob_size = 128;
        c.ldq_size = 48;
        c.stq_size = 48;
        c.int_iq_count = 1;
        c.int_iq_size = 32;
        c.fp_iq_size = 32;
        c.fp_cluster_delay = 0;
        c.load_hoisting = true;
        c.enforce_banking = false;
        c.l1d.banks = 1;
        return c;
    }
    if (name == "k8") {
        // Section 5: PTLsim configured like a 2.2 GHz AMD Athlon 64 (K8).
        // 72-entry ROB, 44-entry LDQ/STQ, three 8-entry integer issue
        // queues, 36-entry FP queue two cycles away, 128-entry register
        // files sized so the ROB is the bottleneck, no load hoisting,
        // 8-bank L1D, 64K 2-way L1 caches, 1M 16-way L2 at 10 cycles,
        // memory at 112 cycles, 32-entry DTLB/ITLB, 16K gshare predictor.
        // The SimConfig defaults are this machine; only the predictor
        // family differs.
        c.predictor = PredictorKind::Gshare;
        return c;
    }
    if (name == "k8-native") {
        // The reference-machine trial of Table 1: identical guest-visible
        // machine, but structure models matching real K8 silicon — the
        // two-level TLB (32 L1 + 1024-entry 4-way L2 + PDE cache) and the
        // hardware prefetcher that PTLsim's model lacks.
        SimConfig c2 = preset("k8");
        c2.tlb2_entries = 1024;
        c2.tlb2_ways = 4;
        c2.pde_cache = true;
        c2.hw_prefetch = true;
        return c2;
    }
    fatal("unknown config preset '%s'", name.c_str());
}

namespace {

/** A pointer to one settable SimConfig field, whatever its type. */
using FieldRef = std::variant<int *, U64 *, bool *, std::string *,
                              PredictorKind *, CoherenceKind *, SmtPolicy *,
                              ReplKind *, MemBackendKind *>;

/** One schema row: a version-1 JSON key and the field it sets. */
struct Field
{
    const char *key;
    FieldRef (*ref)(SimConfig &c);
};

// FIELD rows use the field name as the key. KEY rows spell it out:
// the memory keys keep their version-1 names, where "group.name" is
// one level of nesting in the JSON text. A group's rows stay
// contiguous so toJson() can nest them.
#define FIELD(member) KEY(#member, member)
#define KEY(key, member) \
    {key, [](SimConfig &c) -> FieldRef { return &c.member; }}

const Field kFields[] = {
    FIELD(core_freq_hz),
    FIELD(vcpu_count),
    FIELD(snapshot_interval),
    FIELD(timer_hz),
    FIELD(guest_mem_bytes),
    FIELD(seed),
    FIELD(shuffle_mfns),
    FIELD(core),
    FIELD(smt_threads),
    FIELD(fetch_width),
    FIELD(frontend_width),
    FIELD(issue_width_per_cluster),
    FIELD(commit_width),
    FIELD(fetch_queue_size),
    FIELD(rob_size),
    FIELD(ldq_size),
    FIELD(stq_size),
    FIELD(int_prf_size),
    FIELD(fp_prf_size),
    FIELD(int_iq_count),
    FIELD(int_iq_size),
    FIELD(fp_iq_size),
    FIELD(fp_cluster_delay),
    FIELD(frontend_stages),
    FIELD(mispredict_penalty),
    FIELD(load_hoisting),
    FIELD(enforce_banking),
    FIELD(skip_ahead),
    FIELD(lat_alu),
    FIELD(lat_mul),
    FIELD(lat_div),
    FIELD(lat_fp),
    FIELD(lat_ld),
    KEY("l1i.size", l1i.size_bytes),
    KEY("l1i.ways", l1i.ways),
    KEY("l1i.repl", l1i.repl),
    KEY("l1d.size", l1d.size_bytes),
    KEY("l1d.ways", l1d.ways),
    KEY("l1d.latency", l1d.latency),
    KEY("l1d.banks", l1d.banks),
    KEY("l1d.repl", l1d.repl),
    KEY("l2.size", l2.size_bytes),
    KEY("l2.ways", l2.ways),
    KEY("l2.latency", l2.latency),
    KEY("l2.repl", l2.repl),
    KEY("l3.size", l3.size_bytes),
    KEY("l3.ways", l3.ways),
    KEY("l3.latency", l3.latency),
    KEY("l3.repl", l3.repl),
    FIELD(mem_latency),
    KEY("backend", membackend.kind),
    KEY("dram.banks", membackend.dram_banks),
    KEY("dram.row_bytes", membackend.row_bytes),
    KEY("dram.t_cas", membackend.t_cas),
    KEY("dram.t_rcd", membackend.t_rcd),
    KEY("dram.t_rp", membackend.t_rp),
    KEY("edram.size", membackend.edram_size_bytes),
    KEY("edram.ways", membackend.edram_ways),
    KEY("edram.line_bytes", membackend.edram_line_bytes),
    KEY("edram.latency", membackend.edram_latency),
    KEY("pcm.read_latency", membackend.pcm_read_latency),
    KEY("pcm.write_latency", membackend.pcm_write_latency),
    KEY("pcm.deferred_writes", membackend.deferred_writes),
    FIELD(dtlb_entries),
    FIELD(itlb_entries),
    FIELD(tlb2_entries),
    FIELD(tlb2_ways),
    FIELD(pde_cache),
    FIELD(hw_prefetch),
    FIELD(coherence),
    FIELD(interconnect_latency),
    FIELD(predictor),
    FIELD(gshare_entries),
    FIELD(gshare_history),
    FIELD(bimodal_entries),
    FIELD(meta_entries),
    FIELD(btb_entries),
    FIELD(btb_ways),
    FIELD(ras_entries),
    FIELD(smt_policy),
    FIELD(smt_deadlock_timeout),
    FIELD(native_ipc_x1000),
    FIELD(commit_checker),
    FIELD(verify),
    FIELD(verify_interval),
    FIELD(net_latency_us),
    FIELD(disk_latency_us),
    FIELD(mask_external_interrupts),
};

#undef FIELD
#undef KEY

// Enum value names, indexed by enumerator (declaration order in
// config.h); each value has exactly one.
constexpr const char *kPredictorNames[] = {"bimodal", "gshare", "hybrid",
                                           "taken", "nottaken"};
constexpr const char *kCoherenceNames[] = {"instant", "moesi"};
constexpr const char *kSmtPolicyNames[] = {"roundrobin", "icount"};
constexpr const char *kReplNames[] = {"lru", "tree-plru", "random"};
constexpr const char *kBackendNames[] = {"fixed", "banked", "hybrid"};

using Names = std::span<const char *const>;
Names names(PredictorKind *) { return kPredictorNames; }
Names names(CoherenceKind *) { return kCoherenceNames; }
Names names(SmtPolicy *) { return kSmtPolicyNames; }
Names names(ReplKind *) { return kReplNames; }
Names names(MemBackendKind *) { return kBackendNames; }

// ---- value text -> field (strict: the whole text must parse) ----

/** An int or U64 field: strtoull syntax (0x hex, leading-0 octal),
 *  no trailing characters, in range for the field, and no sign for
 *  U64. */
template <std::integral T>
void
parseValue(const char *key, const std::string &v, T *dst)
{
    bool neg = std::is_signed_v<T> && v[0] == '-';
    errno = 0;
    char *end = nullptr;
    unsigned long long mag = std::strtoull(v.c_str() + neg, &end, 0);
    if (!std::isdigit((unsigned char)v[neg]) || *end != '\0')
        fatal("config JSON: key '%s': '%s' is not %s", key, v.c_str(),
              std::is_signed_v<T> ? "an integer" : "an unsigned integer");
    if (errno == ERANGE || mag > (U64)std::numeric_limits<T>::max() + neg)
        fatal("config JSON: key '%s': %s is out of range", key, v.c_str());
    *dst = (T)(neg ? 0 - mag : mag);
}

void
parseValue(const char *key, const std::string &v, bool *dst)
{
    if (v == "1" || v == "true" || v == "on")
        *dst = true;
    else if (v == "0" || v == "false" || v == "off")
        *dst = false;
    else
        fatal("config JSON: key '%s': bad boolean '%s'", key, v.c_str());
}

void
parseValue(const char *, const std::string &v, std::string *dst)
{
    *dst = v;
}

template <typename E>
    requires std::is_enum_v<E>
void
parseValue(const char *key, const std::string &v, E *dst)
{
    Names n = names(dst);
    auto it = std::ranges::find(n, v);
    if (it == n.end())
        fatal("config JSON: key '%s': unknown value '%s'", key, v.c_str());
    *dst = (E)(it - n.begin());
}

// ---- field -> value text (what parseValue reads back) ----

std::string formatValue(bool *p) { return *p ? "true" : "false"; }
std::string formatValue(std::string *p) { return *p; }

template <std::integral T>
std::string
formatValue(T *p)
{
    return std::to_string(*p);
}

template <typename E>
    requires std::is_enum_v<E>
std::string
formatValue(E *p)
{
    return names(p)[(size_t)*p];
}

/** One (path, value) pair from a config document. */
using Pair = std::pair<std::string, std::string>;

/**
 * Minimal JSON reader for config documents: one object,
 * string/number/bool scalars, at most one level of nested objects.
 * Emits (path, value) pairs with nested keys joined as "group.key".
 * No external dependency — the toolchain image carries no JSON
 * library and the schema is deliberately tiny.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s(text) {}

    std::vector<Pair>
    parse()
    {
        std::vector<Pair> out;
        skipWs();
        expect('{');
        parseObject("", out, /*depth=*/0);
        skipWs();
        if (pos != s.size())
            fatal("config JSON: trailing garbage at offset %zu", pos);
        return out;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t'
                                  || s[pos] == '\n' || s[pos] == '\r'))
            pos++;
    }

    void
    expect(char c)
    {
        if (pos >= s.size() || s[pos] != c)
            fatal("config JSON: expected '%c' at offset %zu", c, pos);
        pos++;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                fatal("config JSON: escapes are not supported");
            out += s[pos++];
        }
        expect('"');
        return out;
    }

    std::string
    parseScalar()
    {
        if (s[pos] == '"')
            return parseString();
        size_t start = pos;
        while (pos < s.size() && (std::isalnum((unsigned char)s[pos])
                                  || s[pos] == '-' || s[pos] == '+'
                                  || s[pos] == '.' || s[pos] == '_'))
            pos++;
        if (pos == start)
            fatal("config JSON: expected a value at offset %zu", pos);
        return s.substr(start, pos - start);
    }

    void
    parseObject(const std::string &prefix,
                std::vector<Pair> &out,
                int depth)
    {
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            pos++;
            return;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            // A dotted key would be a second spelling of a nested one.
            std::string path = prefix.empty() ? key : prefix + "." + key;
            if (key.find('.') != std::string::npos)
                fatal("config JSON: unknown key '%s'", path.c_str());
            if (pos < s.size() && s[pos] == '{') {
                if (depth >= 1)
                    fatal("config JSON: object nesting too deep at '%s'",
                          path.c_str());
                pos++;
                parseObject(path, out, depth + 1);
            } else {
                out.emplace_back(path, parseScalar());
            }
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                pos++;
                continue;
            }
            expect('}');
            return;
        }
    }

    const std::string &s;
    size_t pos = 0;
};

}  // namespace

void
SimConfig::applyJson(const std::string &json)
{
    auto pairs = JsonReader(json).parse();
    auto version = std::ranges::find(pairs, "version", &Pair::first);
    if (version == pairs.end())
        fatal("config JSON: missing required \"version\" key");
    if (version->second != "1")
        fatal("config JSON: unsupported version '%s' "
              "(this build reads version 1)", version->second.c_str());
    for (const auto &[path, value] : pairs) {
        if (path == "version")
            continue;
        const Field *f = std::ranges::find(kFields, path, &Field::key);
        if (f == std::end(kFields))
            fatal("config JSON: unknown key '%s'", path.c_str());
        std::visit([&](auto *dst) { parseValue(f->key, value, dst); },
                   f->ref(*this));
    }
}

std::string
SimConfig::toJson() const
{
    SimConfig c = *this;  // the row accessors take a mutable config
    std::string out = "{\n  \"version\": \"1\"";
    std::string open;  // the group whose object is open ("" = none)
    for (const Field &f : kFields) {
        std::string key = f.key;
        size_t dot = key.find('.');
        std::string group = dot == std::string::npos ? "" : key.substr(0, dot);
        if (group != open && !open.empty())
            out += "\n  }";
        if (group != open && !group.empty())
            out += ",\n  \"" + group + "\": {\n    ";
        else
            out += group.empty() ? ",\n  " : ",\n    ";
        open = group;
        std::string value =
            std::visit([](auto *p) { return formatValue(p); }, f.ref(c));
        std::string name = group.empty() ? key : key.substr(dot + 1);
        out += "\"" + name + "\": \"" + value + "\"";
    }
    return out + (open.empty() ? "" : "\n  }") + "\n}\n";
}

void
SimConfig::validate() const
{
    if (vcpu_count < 1 || vcpu_count > 32)
        fatal("vcpu_count %d out of range [1, 32]", vcpu_count);
    if (smt_threads < 1 || smt_threads > 16)
        fatal("smt_threads %d out of range [1, 16] (paper limit)", smt_threads);
    if (rob_size < 4 || ldq_size < 2 || stq_size < 2)
        fatal("pipeline structure sizes too small");
    if (int_prf_size < rob_size / 2)
        fatal("int_prf_size %d too small for rob_size %d",
              int_prf_size, rob_size);
    // The OoO wakeup lists pack (queue, slot) into a U16 as
    // queue << 8 | slot << 2: 6 bits of slot, 8 of queue (the integer
    // lanes plus the FP queue).
    if (int_iq_size < 1 || int_iq_size > 64)
        fatal("int_iq_size %d out of range [1, 64]", int_iq_size);
    if (fp_iq_size < 1 || fp_iq_size > 64)
        fatal("fp_iq_size %d out of range [1, 64]", fp_iq_size);
    if (int_iq_count < 1 || int_iq_count > 254)
        fatal("int_iq_count %d out of range [1, 254]", int_iq_count);
    // Force geometry checks.
    (void)l1i.sets();
    (void)l1d.sets();
    (void)l2.sets();
    (void)l3.sets();
    if (!isPow2((U64)dtlb_entries) || !isPow2((U64)itlb_entries))
        fatal("TLB entry counts must be powers of two");
    if (tlb2_entries && !isPow2((U64)tlb2_entries))
        fatal("tlb2_entries must be a power of two");
    if (!isPow2((U64)btb_entries) || !isPow2((U64)gshare_entries)
        || !isPow2((U64)bimodal_entries) || !isPow2((U64)meta_entries))
        fatal("predictor table sizes must be powers of two");
    if (membackend.dram_banks < 1 || !isPow2((U64)membackend.dram_banks))
        fatal("dram_banks %d must be a power of two",
              membackend.dram_banks);
    if (membackend.row_bytes < l1d.line_bytes
        || !isPow2((U64)membackend.row_bytes))
        fatal("dram row_bytes %d must be a power of two >= the line size",
              membackend.row_bytes);
    if (membackend.t_cas < 1 || membackend.t_rcd < 0 || membackend.t_rp < 0)
        fatal("DRAM timing parameters out of range");
    if (membackend.kind == MemBackendKind::Hybrid) {
        CacheParams edram;
        edram.size_bytes = membackend.edram_size_bytes;
        edram.ways = membackend.edram_ways;
        edram.line_bytes = membackend.edram_line_bytes;
        (void)edram.sets();  // force geometry checks
        if (membackend.pcm_read_latency < 1
            || membackend.pcm_write_latency < 1)
            fatal("PCM latencies must be positive");
        if (membackend.deferred_writes < 1)
            fatal("deferred_writes %d must be positive",
                  membackend.deferred_writes);
    }
}

}  // namespace ptl
