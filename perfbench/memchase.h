/**
 * @file
 * The memchase domain: a memory-bound full-system guest.
 *
 * One guest task (the init task of the paravirtual kernel) follows a
 * random single-cycle pointer chain laid out one node per 64-byte line,
 * does a dependent store into every node it visits, and exits with a
 * checksum of the path. The host builds the chain from a seed and
 * computes the checksum the guest must report.
 */

#ifndef PERFBENCH_MEMCHASE_H_
#define PERFBENCH_MEMCHASE_H_

#include <memory>

#include "kernel/guestkernel.h"
#include "sys/machine.h"

namespace perfbench {

struct MemChaseParams
{
    ptl::U64 working_set_bytes = 8 << 20;  ///< 64-byte nodes
    ptl::U64 steps = 200'000;
    ptl::U64 chain_seed = 1;
};

class MemChase
{
  public:
    /** Build the chain, the kernel and guest image, and the cores. */
    MemChase(const ptl::SimConfig &config, const MemChaseParams &params);
    ~MemChase();

    ptl::Machine &machine() { return *machine_; }

    /** The exit code a correct run reports. */
    ptl::U64 expectedChecksum() const { return expected_; }

  private:
    std::unique_ptr<ptl::Machine> machine_;
    std::unique_ptr<ptl::KernelBuilder> builder_;
    ptl::U64 expected_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEMCHASE_H_
