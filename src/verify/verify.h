/**
 * @file
 * The pipeline invariant checker (the correctness-tooling layer).
 *
 * PTLsim's credibility rests on cycle-accurate correctness: the paper
 * validates the out-of-order core against native K8 silicon and ships
 * a sequential reference core precisely so the detailed model can be
 * cross-checked (Section 5). This subsystem turns the scattered
 * ptl_assert()s into a systematic, per-cycle audit of the
 * microarchitectural bookkeeping that every future optimisation PR is
 * regression-tested against:
 *
 *  - ROB age ordering (sequence numbers strictly increase from head to
 *    tail) and entry-count conservation against the head/tail cursors;
 *  - LSQ load/store consistency against the ROB: back-references,
 *    occupancy counters, and age ordering between queue slots;
 *  - physical register file leak and double-free detection (free-list
 *    duplicates, freed-but-mapped registers, allocated-but-unreachable
 *    registers, architectural refcount conservation);
 *  - issue-queue/scoreboard consistency: every queued uop references a
 *    live, un-issued ROB entry whose destination register is not yet
 *    marked ready, occupancy counters match, and per-thread SMT
 *    occupancy caps are accounted correctly;
 *  - MESI/MOESI directory legality across coherence peers (at most one
 *    M/E holder, M/E exclude sharers, at most one owner);
 *  - memory-backend timing bookkeeping (deferred-write queue depth
 *    within its configured capacity, bank busy stamps never saturated
 *    to CYCLE_NEVER, and nextDue() only armed while deferred work is
 *    actually pending).
 *
 * Every violation is reported through a structured VerifyStats counter
 * group; the checker either panic()s on the first violation (embedded
 * production mode) or counts and warns once per violation site (test
 * mode, used by tests/test_verify.cc to prove deliberate corruptions
 * are detected).
 *
 * The per-cycle hook in OooCore::cycle() is compile-time selectable
 * via the PTL_VERIFY CMake option and runtime-gated by the `verify`
 * config flag, so a release build (PTL_VERIFY=OFF) pays nothing.
 */

#ifndef PTLSIM_VERIFY_VERIFY_H_
#define PTLSIM_VERIFY_VERIFY_H_

#include <array>
#include <memory>
#include <string>

#include "core/coreapi.h"
#include "lib/bitops.h"
#include "mem/pagetable.h"
#include "stats/stats.h"

namespace ptl {

/** Structured counter group: one counter per invariant family. */
struct VerifyStats
{
    VerifyStats(StatsTree &stats, const std::string &prefix);

    Counter &checks;          ///< checker passes executed
    Counter &violations;      ///< total violations (all families)
    Counter &rob_order;       ///< ROB age-ordering breaks
    Counter &rob_count;       ///< ROB occupancy / cursor mismatches
    Counter &checkpoint;      ///< RAT-checkpoint bookkeeping breaks
    Counter &lsq_state;       ///< LSQ back-ref / occupancy / orphan interlock
    Counter &lsq_age;         ///< LSQ age-ordering breaks vs. the ROB
    Counter &prf_leak;        ///< allocated-but-unreachable registers
    Counter &prf_double_free; ///< free-list duplicates / freed-but-live
    Counter &iq_state;        ///< issue-queue / scoreboard breaks
    Counter &mesi;            ///< coherence directory legality breaks
    Counter &membackend;      ///< memory-backend bookkeeping breaks
};

/**
 * The invariant checker. One instance audits one OooCore (and,
 * optionally, the machine's coherence directory). Stateless between
 * calls apart from its counters.
 */
class InvariantChecker final : public CoreAuditor
{
  public:
    /** What to do when a violation is found. */
    enum class Action
    {
        Panic,  ///< cycle-stamped panic on the first violation
        Count,  ///< bump counters, warn once per violation site
    };

    InvariantChecker(StatsTree &stats, const std::string &prefix,
                     Action action = Action::Panic);

    /**
     * Audit one core's ROB/LSQ/PRF/issue-queue state. Returns the
     * number of violations found this pass (always 0 in Panic mode,
     * which does not return on a violation).
     */
    int checkCore(const OooCore &core, SimCycle now) override;

    /** Audit the MOESI directory across all registered peers. */
    int checkCoherence(const CoherenceController &coherence,
                       SimCycle now) override;

    VerifyStats &counters() { return vstats; }

  private:
    VerifyStats vstats;
    Action action;
};

/**
 * Standard wiring used by the machine and the test harnesses: build a
 * Panic-mode InvariantChecker when the config (or the PTLSIM_VERIFY
 * environment variable) opts in, nullptr otherwise. The result is
 * handed to CoreModel::attachAuditor(), which accepts nullptr.
 */
std::unique_ptr<CoreAuditor> makeVerifyAuditor(const SimConfig &cfg,
                                               StatsTree &stats,
                                               const std::string &prefix);

// The translation-cache shadow-walk checker verifyCachedTranslation()
// is declared in mem/transcache.h (the layer that owns the cache) and
// implemented in verify/invariant.cc, so the functional memory path
// never includes src/verify headers.

/**
 * Test-only access: deliberately corrupt core state so the test suite
 * can prove each invariant family actually detects its failure mode.
 * Every method returns false if the pipeline currently holds no state
 * suitable for that corruption (caller should cycle and retry).
 */
struct VerifyTestHook
{
    static bool corruptRobCount(OooCore &core, int thread);
    static bool corruptRobOrder(OooCore &core, int thread);
    static bool corruptLsqAge(OooCore &core, int thread);
    static bool corruptPrfLeak(OooCore &core);
    static bool corruptPrfDoubleFree(OooCore &core);
    static bool corruptIqReady(OooCore &core);
    /** Take an interlock for thread 0 that no LSQ entry holds. */
    static bool plantOrphanInterlock(OooCore &core);
    /** Flip one bit in the lockstep checker's shadow architectural
     *  register, so the next commit diverges from the reference. */
    static bool skewShadowReg(OooCore &core, int thread, int reg);
    /** The machine-assigned core id (interlock owner encoding). */
    static int coreId(const OooCore &core);
    /** The SMT arbitration rotors, in order fetch, rename, commit. */
    static std::array<int, 3> rotors(const OooCore &core);
};

}  // namespace ptl

#endif  // PTLSIM_VERIFY_VERIFY_H_
