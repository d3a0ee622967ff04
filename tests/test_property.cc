// Property-based tests: randomized multi-core memory-operation soups
// driven against every policy and seed, with the coherence checker
// (reuse invariant and staleness contract) watching every TLB and
// allocator transition. These are the tests that would catch an ordering bug in
// any policy's lazy paths.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/rng.hh"
#include "test_helpers.hh"
#include "tlbcoh/latr_policy.hh"

namespace latr
{
namespace
{

struct Soup
{
    PolicyKind policy;
    std::uint64_t seed;
    bool pcid;
    /** The 8-socket/120-core machine instead of the tiny 2x4 one. */
    bool large = false;
};

/**
 * LATR's sweep-elision invariant: pendingSweepers() covers the
 * cpuMask of every Active state. A core whose bit is clear then has
 * no state to match, so skipping its scan is exactly a matchless
 * scan (LatrSweepElision.ElidedSweepsChargeLikeMatchlessScans checks
 * what an elided sweep charges).
 */
bool
pendingSweepersCoverActiveStates(Machine &machine, const LatrPolicy &latr)
{
    for (CoreId c = 0; c < machine.topo().totalCores(); ++c) {
        for (const LatrState &state : latr.ringOf(c)) {
            if (state.phase != LatrStatePhase::Active)
                continue;
            CpuMask covered = state.cpuMask;
            covered.andWith(latr.pendingSweepers());
            if (!(covered == state.cpuMask))
                return false;
        }
    }
    return true;
}

class RandomOpSoup : public ::testing::TestWithParam<Soup>
{
};

TEST_P(RandomOpSoup, InvariantHoldsAndMemoryBalances)
{
    const Soup param = GetParam();
    MachineConfig cfg = test::tinyConfig();
    if (param.large) {
        // Scaled down as the conformance executor scales it; the
        // cores 64..119 live in the second CpuMask word.
        cfg = MachineConfig::largeNuma8S120C();
        cfg.framesPerNode = 32 * 1024;
        cfg.llcBytesPerSocket = 1 * 1024 * 1024;
    }
    cfg.pcidEnabled = param.pcid;
    Machine machine(cfg, param.policy);
    Kernel &kernel = machine.kernel();
    const auto *latr = dynamic_cast<const LatrPolicy *>(&machine.policy());
    Rng rng(param.seed);

    // Two processes spread over all cores.
    std::vector<Task *> tasks;
    Process *pa = kernel.createProcess("a");
    Process *pb = kernel.createProcess("b");
    for (CoreId c = 0; c < machine.topo().totalCores(); ++c)
        tasks.push_back(kernel.spawnTask(c % 2 ? pa : pb, c));
    machine.run(kUsec);

    struct Region
    {
        Task *owner;
        std::uint32_t ownerIdx;
        Addr addr;
        std::uint64_t pages;
        std::uint32_t slot;
    };
    std::vector<Region> regions;

    // Record every executed op as a conformance-harness script so a
    // failure dumps a replayable (and minimizable) reproducer.
    Script repro;
    repro.seed = param.seed;
    repro.pcid = param.pcid;
    repro.large = param.large;
    repro.procs = 2;
    std::uint32_t nextSlot = 0;

    const int kOps = 1200;
    for (int op = 0; op < kOps; ++op) {
        const std::uint32_t taskIdx =
            static_cast<std::uint32_t>(rng.nextBounded(tasks.size()));
        Task *task = tasks[taskIdx];
        const unsigned kind = static_cast<unsigned>(rng.nextBounded(10));
        switch (kind) {
          case 0:
          case 1: { // mmap
            std::uint64_t pages = 1 + rng.nextBounded(8);
            SyscallResult m = kernel.mmap(task, pages * kPageSize,
                                          kProtRead | kProtWrite);
            if (m.ok) {
                regions.push_back(
                    {task, taskIdx, m.addr, pages, nextSlot});
                repro.ops.push_back(Op{OpKind::Mmap, taskIdx,
                                       nextSlot++, pages, 0, true});
            }
            break;
          }
          case 2:
          case 3:
          case 4: { // touch from any task of the same process
            if (regions.empty())
                break;
            Region &r = regions[rng.nextBounded(regions.size())];
            const std::uint32_t toucherIdx =
                static_cast<std::uint32_t>(
                    rng.nextBounded(tasks.size()));
            Task *toucher = tasks[toucherIdx];
            if (toucher->process() != r.owner->process())
                break;
            const std::uint64_t page = rng.nextBounded(r.pages);
            const bool write = rng.nextBool(0.5);
            kernel.touch(toucher, r.addr + page * kPageSize, write);
            repro.ops.push_back(Op{OpKind::Touch, toucherIdx, r.slot,
                                   0, page, write});
            break;
          }
          case 5:
          case 6: { // munmap a whole region
            if (regions.empty())
                break;
            std::size_t idx = rng.nextBounded(regions.size());
            Region r = regions[idx];
            regions.erase(regions.begin() + idx);
            kernel.munmap(r.owner, r.addr, r.pages * kPageSize);
            repro.ops.push_back(Op{OpKind::Munmap, r.ownerIdx,
                                   r.slot, 0, 0, false});
            break;
          }
          case 7: { // madvise part of a region
            if (regions.empty())
                break;
            Region &r = regions[rng.nextBounded(regions.size())];
            std::uint64_t n = 1 + rng.nextBounded(r.pages);
            kernel.madvise(r.owner, r.addr, n * kPageSize);
            repro.ops.push_back(Op{OpKind::Madvise, r.ownerIdx,
                                   r.slot, 0, 0, false});
            break;
          }
          case 8: { // mprotect flip
            if (regions.empty())
                break;
            Region &r = regions[rng.nextBounded(regions.size())];
            const bool rw = !rng.nextBool(0.5);
            kernel.mprotect(r.owner, r.addr, r.pages * kPageSize,
                            rw ? kProtRead | kProtWrite : kProtRead);
            repro.ops.push_back(Op{OpKind::Mprotect, r.ownerIdx,
                                   r.slot, 0, 0, rw});
            break;
          }
          default: { // advance time
            const std::uint64_t usec = rng.nextBounded(400) + 1;
            machine.run(usec * kUsec);
            repro.ops.push_back(
                Op{OpKind::Advance, 0, 0, usec, 0, false});
            break;
          }
        }
        if (latr && !pendingSweepersCoverActiveStates(machine, *latr)) {
            ADD_FAILURE() << "after op " << op << ": an active LATR "
                          << "state addresses a core outside "
                          << "pendingSweepers()";
            break;
        }
    }

    // Unmap everything left and settle all lazy work.
    for (const Region &r : regions) {
        kernel.munmap(r.owner, r.addr, r.pages * kPageSize);
        repro.ops.push_back(
            Op{OpKind::Munmap, r.ownerIdx, r.slot, 0, 0, false});
    }
    machine.run(10 * kMsec);
    repro.ops.push_back(Op{OpKind::Quiesce, 0, 0, 0, 0, false});

    test::expectNoViolations(machine);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    // Lazy reclamation must have drained completely.
    EXPECT_EQ(pa->mm().heldBackBytes(), 0u);
    EXPECT_EQ(pb->mm().heldBackBytes(), 0u);
    // With every frame free, no TLB anywhere may still translate
    // one (the checker would have counted such entries), and a mark
    // lives no longer than the TLB entry it is on.
    for (CoreId c = 0; c < machine.topo().totalCores(); ++c) {
        machine.scheduler().tlbOf(c).flushAll();
    }
    EXPECT_EQ(machine.checker()->pendingMarks(), 0u);

    if (::testing::Test::HasFailure()) {
        const std::string stem =
            std::string("property_") + policyKindName(param.policy) +
            "_seed" + std::to_string(param.seed) +
            (param.pcid ? "_pcid" : "_nopcid") +
            (param.large ? "_large" : "");
        ADD_FAILURE() << "failing tuple: {policy="
                      << policyKindName(param.policy)
                      << ", seed=" << param.seed
                      << ", pcid=" << (param.pcid ? "on" : "off")
                      << ", machine=" << (param.large ? "large" : "tiny")
                      << "}; " << test::dumpFailureRepro(repro, stem);
    }
}

std::vector<Soup>
soups()
{
    std::vector<Soup> all;
    for (PolicyKind kind : test::allPolicies())
        for (std::uint64_t seed : {11ull, 222ull, 3333ull})
            for (bool pcid : {false, true})
                all.push_back({kind, seed, pcid});
    all.push_back({PolicyKind::Latr, 11, true, true});
    return all;
}

INSTANTIATE_TEST_SUITE_P(
    Soups, RandomOpSoup, ::testing::ValuesIn(soups()),
    [](const ::testing::TestParamInfo<Soup> &info) {
        return std::string(policyKindName(info.param.policy)) +
               "_seed" + std::to_string(info.param.seed) +
               (info.param.pcid ? "_pcid" : "_nopcid") +
               (info.param.large ? "_large" : "");
    });

} // namespace
} // namespace latr
