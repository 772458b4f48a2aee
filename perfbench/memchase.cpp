#include "memchase.h"

#include <bit>
#include <vector>

#include "lib/logging.h"
#include "lib/rng.h"

namespace perfbench {

using namespace ptl;

namespace {

constexpr U64 NODE_BYTES = 64;
constexpr U8 CHECKSUM_ROTATE = 7;

}  // namespace

MemChase::MemChase(const SimConfig &config, const MemChaseParams &params)
{
    const U64 nodes = params.working_set_bytes / NODE_BYTES;
    if (nodes < 2 || params.steps == 0 || params.steps > 0x7fffffff)
        fatal("memchase: need >= 2 nodes and 1..2^31-1 steps");

    // Sattolo's shuffle: a uniformly random permutation with exactly one
    // cycle, so the walk visits every node before repeating.
    std::vector<U64> next(nodes);
    for (U64 i = 0; i < nodes; i++)
        next[i] = i;
    Rng rng(params.chain_seed);
    for (U64 i = nodes - 1; i > 0; i--)
        std::swap(next[i], next[rng.below(i)]);

    // Node i lives at USER_DATA_VA + i * 64; word 0 holds the VA of the
    // next node, word 1 receives the guest's dependent store.
    std::vector<U64> image(nodes * NODE_BYTES / 8, 0);
    for (U64 i = 0; i < nodes; i++)
        image[i * NODE_BYTES / 8] = USER_DATA_VA + next[i] * NODE_BYTES;

    // The checksum the guest must compute: rotate-xor of every pointer
    // it loads, in order.
    U64 node = 0;
    for (U64 s = 0; s < params.steps; s++) {
        node = next[node];
        expected_ = std::rotl(expected_, CHECKSUM_ROTATE)
                    ^ (USER_DATA_VA + node * NODE_BYTES);
    }

    SimConfig cfg = config;
    cfg.guest_mem_bytes = std::max<U64>(
        cfg.guest_mem_bytes, params.working_set_bytes + (32 << 20));
    machine_ = std::make_unique<Machine>(cfg);
    builder_ = std::make_unique<KernelBuilder>(
        machine_->addressSpace(), machine_->vcpu(0),
        machine_->timerPeriodCycles());
    builder_->setUserDataBytes(params.working_set_bytes);

    Assembler &a = builder_->userAsm();
    Label entry = a.label();
    a.movImm64(R::rbx, USER_DATA_VA);
    a.mov(R::rcx, params.steps);
    a.xor_(R::rax, R::rax);
    Label loop = a.label();
    a.mov(R::rsi, Mem::at(R::rbx));         // next node: the chained load
    a.rol(R::rax, CHECKSUM_ROTATE);
    a.xor_(R::rax, R::rsi);
    a.mov(R::rbx, R::rsi);
    a.mov(Mem::at(R::rbx, 8), R::rax);      // dependent store, dirties the line
    a.dec(R::rcx);
    a.jcc(COND_ne, loop);
    a.mov(R::rdi, R::rax);
    a.mov(R::rax, (U64)GSYS_exit);
    a.syscall();
    Label hang = a.label();
    a.jmp(hang);
    builder_->setInitTask(a.labelVa(entry), 0);
    builder_->build();
    machine_->finalizeCores();

    Context kctx;
    kctx.cr3 = builder_->taskCr3(0);
    kctx.kernel_mode = true;
    GuestCopy copied = guestCopyOut(machine_->addressSpace(), kctx,
                                    GuestVirt(USER_DATA_VA), image.data(),
                                    image.size() * sizeof(U64));
    if (!copied.ok())
        fatal("memchase: could not write the chain into guest memory");
}

MemChase::~MemChase() = default;

}  // namespace perfbench
