#include "numa/swap.hh"

namespace latr
{

SwapDaemon::SwapDaemon(Kernel &kernel, Duration scan_interval,
                       unsigned max_evictions_per_scan)
    : ScanDaemon(kernel, scan_interval, "swap-scan"),
      maxEvictions_(max_evictions_per_scan)
{
}

void
SwapDaemon::scan()
{
    unsigned evicted = 0;
    for (Process *process : tracked_) {
        if (evicted >= maxEvictions_)
            break;
        AddressSpace &mm = process->mm();
        Task *context = contextOf(process);
        if (!context)
            continue;

        // One-hand clock: pages with the accessed bit get a second
        // chance (bit cleared); cold pages are evicted.
        std::vector<Vpn> cold;
        for (const auto &kv : mm.vmas()) {
            const Vma &vma = kv.second;
            mm.pageTable().forEachPresent(
                pageOf(vma.start), pageOf(vma.end) - 1,
                [&](Vpn vpn, Pte &pte) {
                    if (pte.protNone())
                        return; // mid-sample; leave alone
                    if (pte.accessed()) {
                        pte.flags &= static_cast<std::uint8_t>(
                            ~kPteAccessed);
                    } else if (cold.size() <
                               maxEvictions_ - evicted) {
                        cold.push_back(vpn);
                    }
                });
            if (cold.size() >= maxEvictions_ - evicted)
                break;
        }

        // Evict via madvise-like lazy free: the policy owns the
        // shootdown and frame release (lazy under LATR).
        for (Vpn vpn : cold) {
            SyscallResult r =
                kernel_.madvise(context, addrOf(vpn), kPageSize);
            if (r.ok) {
                ++evicted;
                ++evictions_;
                kernel_.stats().counter("swap.evictions").inc();
            }
        }
    }
}

} // namespace latr
