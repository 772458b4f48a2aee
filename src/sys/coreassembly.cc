#include "sys/coreassembly.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "verify/verify.h"

namespace ptl {

CoreSet
assembleCores(const SimConfig &cfg,
              const std::vector<std::unique_ptr<Context>> &vcpus,
              AddressSpace &aspace, BasicBlockCache &bbcache,
              SystemInterface &sys, InterlockController &interlocks,
              StatsTree &stats)
{
    CoreSet set;
    const size_t threads_per_core = (size_t)std::max(1, cfg.smt_threads);
    const size_t core_count =
        (vcpus.size() + threads_per_core - 1) / threads_per_core;
    if (core_count > 1 || cfg.coherence == CoherenceKind::Moesi) {
        set.coherence = std::make_unique<CoherenceController>(
            cfg.coherence, cfg.interconnect_latency, stats);
    }
    for (size_t c = 0; c < core_count; c++) {
        CoreBuildParams params;
        params.config = &cfg;
        for (size_t v = c * threads_per_core;
             v < std::min(vcpus.size(), (c + 1) * threads_per_core); v++)
            params.contexts.push_back(vcpus[v].get());
        params.aspace = &aspace;
        params.bbcache = &bbcache;
        params.sys = &sys;
        params.stats = &stats;
        params.prefix = "core" + std::to_string(c) + "/";
        params.coherence = set.coherence.get();
        params.interlocks = &interlocks;
        params.core_id = (int)c;
        set.hierarchies.push_back(std::make_unique<MemoryHierarchy>(
            cfg, aspace, stats, params.prefix, set.coherence.get()));
        params.hierarchy = set.hierarchies.back().get();
        set.cores.push_back(createCoreModel(cfg.core, params));
        // Verification is opt-in wiring done here, at machine assembly,
        // so the core layer itself never depends on src/verify.
        set.cores.back()->attachAuditor(
            makeVerifyAuditor(cfg, stats, params.prefix));
    }
    return set;
}

void
gateShadowWalk(const SimConfig &cfg, AddressSpace &aspace)
{
    aspace.transCache().setShadowEnabled(
        cfg.verify || std::getenv("PTLSIM_VERIFY") != nullptr);
}

}  // namespace ptl
