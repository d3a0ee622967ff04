// Chaos test: every background daemon (AutoNUMA, swap, KSM,
// compaction, khugepaged) running at once over randomized
// multi-core workloads with base and huge pages, under every
// coherence policy — the widest net for ordering bugs in the lazy
// paths. A setup phase gives each daemon work it must act on: pages
// above the middle of node 0 (compaction), one content tag across
// both processes (KSM, and a write after the merge that copies the
// merged page), a fully touched 2 MiB-aligned base-page region
// (khugepaged). The coherence checker's two halves, the reuse
// invariant and the staleness contract, arbitrate; the test also
// asserts that every daemon acted.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "numa/autonuma.hh"
#include "numa/compaction.hh"
#include "numa/khugepaged.hh"
#include "numa/ksm.hh"
#include "numa/swap.hh"
#include "sim/rng.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

struct ChaosParam
{
    PolicyKind policy;
    std::uint64_t seed;
};

class Chaos : public ::testing::TestWithParam<ChaosParam>
{
};

TEST_P(Chaos, EverythingAtOnceHoldsTheInvariant)
{
    const ChaosParam param = GetParam();
    MachineConfig cfg = test::tinyConfig();
    cfg.framesPerNode = 16 * 1024;
    Machine machine(cfg, param.policy);
    Kernel &kernel = machine.kernel();
    Rng rng(param.seed);

    // Task i runs on core i: odd cores for a, even ones for b.
    Process *pa = kernel.createProcess("a");
    Process *pb = kernel.createProcess("b");
    std::vector<Task *> tasks;
    for (CoreId c = 0; c < machine.topo().totalCores(); ++c)
        tasks.push_back(kernel.spawnTask(c % 2 ? pa : pb, c));
    machine.run(kUsec);

    struct Region
    {
        Task *owner;
        std::uint32_t ownerIdx;
        Addr addr;
        std::uint64_t pages;
        bool huge;
        std::uint32_t slot;
    };

    // Best-effort replayable record of the run (the daemons
    // themselves cannot be captured in a script).
    Script repro;
    repro.seed = param.seed;
    repro.procs = 2;
    std::uint32_t nextSlot = 0;

    auto map = [&](std::uint32_t taskIdx, std::uint64_t pages,
                   bool huge) -> std::optional<Region> {
        Task *task = tasks[taskIdx];
        const SyscallResult m =
            huge ? kernel.mmapHuge(task, pages * kPageSize,
                                   kProtRead | kProtWrite)
                 : kernel.mmap(task, pages * kPageSize,
                               kProtRead | kProtWrite);
        if (!m.ok)
            return std::nullopt;
        repro.ops.push_back(Op{huge ? OpKind::MmapHuge : OpKind::Mmap,
                               taskIdx, nextSlot,
                               huge ? pages / kHugePageSpan : pages, 0,
                               true});
        return Region{task, taskIdx, m.addr, pages, huge, nextSlot++};
    };
    auto touch = [&](std::uint32_t taskIdx, const Region &r,
                     std::uint64_t page, bool write) {
        kernel.touch(tasks[taskIdx], r.addr + page * kPageSize, write);
        repro.ops.push_back(
            Op{OpKind::Touch, taskIdx, r.slot, 0, page, write});
    };
    auto unmap = [&](const Region &r) {
        kernel.munmap(r.owner, r.addr, r.pages * kPageSize);
        repro.ops.push_back(
            Op{OpKind::Munmap, r.ownerIdx, r.slot, 0, 0, false});
    };

    // Setup, from tasks on node 0 (a: core 1, b: core 0).
    const std::uint32_t a0 = 1, b0 = 0;
    ASSERT_EQ(machine.topo().nodeOf(a0), 0u);
    ASSERT_EQ(machine.topo().nodeOf(b0), 0u);
    std::vector<Region> fixed;

    // Compaction: huge pages fill the lower half of node 0, so the
    // next base pages land above its middle; then the huge pages go.
    std::vector<Region> burn;
    const std::uint64_t halfNode = cfg.framesPerNode / 2;
    for (std::uint64_t done = 0; done < halfNode;
         done += 8 * kHugePageSpan) {
        burn.push_back(*map(a0, 8 * kHugePageSpan, true));
        for (std::uint64_t p = 0; p < 8 * kHugePageSpan;
             p += kHugePageSpan)
            touch(a0, burn.back(), p, true);
    }
    // More of them than AutoNUMA samples (64) before compaction's
    // first round, which skips sampled pages.
    const Region high = *map(a0, 256, false);
    for (std::uint64_t p = 0; p < high.pages; ++p)
        touch(a0, high, p, true);
    for (const Region &r : burn)
        unmap(r);
    EXPECT_GE(pa->mm().pageTable().find(pageOf(high.addr))->pfn,
              halfNode);
    fixed.push_back(high);

    // KSM: eight pages in each process with one content tag.
    constexpr std::uint64_t kDupTag = 0xD00D;
    const Region dupA = *map(a0, 8, false);
    const Region dupB = *map(b0, 8, false);
    for (const Region &r : {dupA, dupB}) {
        for (std::uint64_t p = 0; p < r.pages; ++p) {
            touch(r.ownerIdx, r, p, true);
            r.owner->mm().setContentTag(pageOf(r.addr) + p, kDupTag);
        }
        fixed.push_back(r);
    }

    // khugepaged: a fully touched, aligned 2 MiB span of base pages.
    const Region span = *map(b0, 3 * kHugePageSpan, false);
    const Vpn spanVpn = pageOf(span.addr);
    const std::uint64_t first =
        hugeBaseOf(spanVpn + kHugePageSpan - 1) - spanVpn;
    for (std::uint64_t p = first; p < first + kHugePageSpan; ++p)
        touch(b0, span, p, true);
    fixed.push_back(span);

    AutoNuma autonuma(kernel, 4 * kMsec, 64);
    autonuma.track(pa);
    autonuma.track(pb);
    autonuma.setTwoTouch(false);
    autonuma.start();

    SwapDaemon swap(kernel, 6 * kMsec, 16);
    swap.track(pa);
    swap.start();

    KsmDaemon ksm(kernel, 5 * kMsec, 16);
    ksm.track(pa);
    ksm.track(pb);
    ksm.start();

    CompactionDaemon compactor(kernel, 0, 7 * kMsec, 16);
    compactor.track(pa);
    compactor.start();

    Khugepaged thp(kernel, 9 * kMsec, 2);
    thp.track(pb);
    thp.start();

    std::vector<Region> regions;
    const int kOps = 700;
    for (int op = 0; op < kOps; ++op) {
        const std::uint32_t taskIdx =
            static_cast<std::uint32_t>(rng.nextBounded(tasks.size()));
        switch (rng.nextBounded(10)) {
          case 0:
          case 1: { // mmap (occasionally huge)
            const bool huge = rng.nextBool(0.15);
            const std::uint64_t pages =
                huge ? kHugePageSpan : 1 + rng.nextBounded(12);
            if (std::optional<Region> r = map(taskIdx, pages, huge))
                regions.push_back(*r);
            break;
          }
          case 2:
          case 3:
          case 4:
          case 5: { // touch any region (tag some soup pages for KSM)
            const std::size_t idx =
                rng.nextBounded(fixed.size() + regions.size());
            const bool setup = idx < fixed.size();
            const Region &r =
                setup ? fixed[idx] : regions[idx - fixed.size()];
            const std::uint32_t toucherIdx =
                static_cast<std::uint32_t>(
                    rng.nextBounded(tasks.size()));
            Task *toucher = tasks[toucherIdx];
            if (toucher->process() != r.owner->process())
                break;
            const std::uint64_t page = rng.nextBounded(r.pages);
            touch(toucherIdx, r, page, rng.nextBool(0.4));
            // Setup pages keep their tags: a merged page in the 2 MiB
            // span would stop khugepaged.
            if (!setup && !r.huge && rng.nextBool(0.2))
                toucher->mm().setContentTag(
                    pageOf(r.addr) + page, 1 + rng.nextBounded(6));
            break;
          }
          case 6:
          case 7: { // munmap
            if (regions.empty())
                break;
            std::size_t idx = rng.nextBounded(regions.size());
            unmap(regions[idx]);
            regions.erase(regions.begin() + idx);
            break;
          }
          case 8: { // madvise part
            if (regions.empty())
                break;
            Region &r = regions[rng.nextBounded(regions.size())];
            kernel.madvise(r.owner, r.addr,
                           (1 + rng.nextBounded(r.pages)) * kPageSize);
            repro.ops.push_back(Op{OpKind::Madvise, r.ownerIdx,
                                   r.slot, 0, 0, false});
            break;
          }
          default: {
            const std::uint64_t usec = rng.nextBounded(2000) + 10;
            machine.run(usec * kUsec);
            repro.ops.push_back(
                Op{OpKind::Advance, 0, 0, usec, 0, false});
            break;
          }
        }
    }

    // A write after the merge: pages that still share a frame copy
    // it. The first write may only resolve an AutoNUMA hint.
    std::uint64_t shared = 0;
    for (const Region &r : {dupA, dupB})
        for (std::uint64_t p = 0; p < r.pages; ++p) {
            const Pte *pte =
                r.owner->mm().pageTable().find(pageOf(r.addr) + p);
            if (pte && machine.frames().refcount(pte->pfn) > 1)
                ++shared;
        }
    EXPECT_GT(shared, 0u);
    for (const Region &r : {dupA, dupB})
        for (std::uint64_t p = 0; p < r.pages; ++p) {
            touch(r.ownerIdx, r, p, true);
            touch(r.ownerIdx, r, p, true);
        }

    autonuma.stop();
    swap.stop();
    ksm.stop();
    compactor.stop();
    thp.stop();

    for (const std::vector<Region> *list : {&fixed, &regions})
        for (const Region &r : *list)
            unmap(r);
    machine.run(12 * kMsec);
    repro.ops.push_back(Op{OpKind::Quiesce, 0, 0, 0, 0, false});

    test::expectNoViolations(machine);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(pa->mm().heldBackBytes(), 0u);
    EXPECT_EQ(pb->mm().heldBackBytes(), 0u);

    // Every daemon acted, and every synchronous change ran.
    EXPECT_GT(autonuma.migrations(), 0u);
    EXPECT_GT(swap.evictions(), 0u);
    EXPECT_GT(ksm.stats().merges, 0u);
    EXPECT_GT(compactor.stats().samples, 0u);
    EXPECT_GT(compactor.stats().pagesMoved, 0u);
    EXPECT_GT(thp.stats().regionsScanned, 0u);
    EXPECT_GT(thp.stats().promotions, 0u);
    EXPECT_GT(machine.stats().counterValue("vm.cow_breaks"), 0u);

    if (::testing::Test::HasFailure()) {
        const std::string stem =
            std::string("chaos_") + policyKindName(param.policy) +
            "_seed" + std::to_string(param.seed);
        ADD_FAILURE()
            << "failing tuple: {policy="
            << policyKindName(param.policy)
            << ", seed=" << param.seed << ", pcid=off}; "
            << test::dumpFailureRepro(
                   repro, stem,
                   "background daemons (autonuma/swap/ksm/compaction/"
                   "khugepaged) and content tags are not captured by "
                   "this script");
    }
}

std::vector<ChaosParam>
chaosParams()
{
    std::vector<ChaosParam> all;
    for (PolicyKind kind : test::allPolicies())
        for (std::uint64_t seed : {7ull, 77ull})
            all.push_back({kind, seed});
    return all;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, Chaos, ::testing::ValuesIn(chaosParams()),
    [](const ::testing::TestParamInfo<ChaosParam> &info) {
        return std::string(policyKindName(info.param.policy)) +
               "_seed" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace latr
