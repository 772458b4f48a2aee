/**
 * @file
 * Core assembly shared by every machine builder.
 *
 * Section 2.2: a core model is built once from the plug-in registry
 * and handed the domain it runs. Both the full-system Machine and the
 * bare-metal BareMachine plug their cores in through this one path,
 * so each assembly decision lives in one place:
 *
 *  - VCPUs split across cores, smt_threads hardware threads per core;
 *  - a coherence controller whenever there is more than one core or
 *    the protocol is MOESI;
 *  - one memory hierarchy per core, assembled here at machine level
 *    (cache geometry, replacement policies and the memory backend are
 *    pure config) and handed to the core as a narrow handle;
 *  - core ids 0..n-1, unique per InterlockController (interlock
 *    owner encoding);
 *  - verification wiring: the per-cycle auditor and the translation
 *    cache's shadow walk, both on for cfg.verify or PTLSIM_VERIFY.
 */

#ifndef PTLSIM_SYS_COREASSEMBLY_H_
#define PTLSIM_SYS_COREASSEMBLY_H_

#include <memory>
#include <vector>

#include "core/coreapi.h"
#include "mem/hierarchy.h"

namespace ptl {

/** A machine's cores plus the memory-side state they share. */
struct CoreSet
{
    /** nullptr for a single core under instant visibility. */
    std::unique_ptr<CoherenceController> coherence;
    /** One per core; declared before `cores` so cores die first. */
    std::vector<std::unique_ptr<MemoryHierarchy>> hierarchies;
    std::vector<std::unique_ptr<CoreModel>> cores;
};

/**
 * Instantiate `cfg.core` for `vcpus` (in VCPU order) against one
 * machine's shared state, with per-core stats under "core<i>/". Call
 * once the guest image and initial VCPU state are in place.
 */
CoreSet assembleCores(const SimConfig &cfg,
                      const std::vector<std::unique_ptr<Context>> &vcpus,
                      AddressSpace &aspace, BasicBlockCache &bbcache,
                      SystemInterface &sys, InterlockController &interlocks,
                      StatsTree &stats);

/**
 * Shadow-walk every translation-cache hit only when verification is
 * requested (the same gate as the auditor); the re-walk costs four
 * physical reads per hit on the hottest guest-access path. Applied
 * to a fresh address space, before any guest memory is touched.
 */
void gateShadowWalk(const SimConfig &cfg, AddressSpace &aspace);

}  // namespace ptl

#endif  // PTLSIM_SYS_COREASSEMBLY_H_
