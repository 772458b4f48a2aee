#include "core/coreapi.h"

#include <map>

#include "lib/logging.h"
#include "lib/threadsafety.h"

namespace ptl {

// Defined in seqcore.cc / ooo/ooocore.cc; referencing them here forces
// the linker to pull the model objects out of the static library.
void registerSeqCoreModel();
void registerOooCoreModels();

namespace {

// The model registry is genuinely process-wide shared state: plug-ins
// register from static initializers in arbitrary translation units,
// and once the machine shards, Domain threads instantiate cores
// concurrently. registry_mu guards the map; the one-shot builtin
// hookup goes through std::call_once so it cannot race either.
Mutex registry_mu;  // simlint: shared-guarded(self)

std::map<std::string, CoreFactory> &
registryLocked() PTL_REQUIRES(registry_mu)
{
    static std::map<std::string, CoreFactory>
        r PTL_GUARDED_BY(registry_mu);  // simlint: shared-guarded(registry_mu)
    return r;
}

void
ensureBuiltins()
{
    static std::once_flag once;  // simlint: shared-guarded(std::call_once)
    // The callback registers via registerCoreModel, which takes
    // registry_mu itself — so it must run OUTSIDE any registry_mu
    // hold, which is why lookups call this before locking.
    std::call_once(once, [] {
        registerSeqCoreModel();
        registerOooCoreModels();
    });
}

}  // namespace

void
registerCoreModel(const std::string &name, CoreFactory factory)
{
    LockGuard g(registry_mu);
    registryLocked()[name] = std::move(factory);
}

std::unique_ptr<CoreModel>
createCoreModel(const std::string &name, const CoreBuildParams &params)
{
    ensureBuiltins();
    CoreFactory factory;
    {
        LockGuard g(registry_mu);
        auto it = registryLocked().find(name);
        if (it == registryLocked().end())
            fatal("unknown core model '%s'", name.c_str());
        factory = it->second;  // copy: run the factory unlocked
    }
    return factory(params);
}

}  // namespace ptl
