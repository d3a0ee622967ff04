#include "check/staleness.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace latr
{

StalenessOracle::StalenessOracle(bool strict) : strict_(strict)
{
}

Tick
StalenessOracle::now() const
{
    if (useManualNow_)
        return manualNow_;
    return clock_ ? clock_->now() : 0;
}

void
StalenessOracle::growTo(CoreId core)
{
    if (core >= mirrors_.size()) {
        mirrors_.resize(core + 1);
        marks_.resize(core + 1);
    }
}

void
StalenessOracle::violation(std::string what)
{
    ++violations_;
    if (first_.empty())
        first_ = what;
    if (strict_)
        panic("staleness contract violated: %s", what.c_str());
}

void
StalenessOracle::onTlbInsert(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid)
{
    growTo(core);
    const Key k{vpn, pcid};
    auto ins = mirrors_[core].emplace(k, pfn);
    if (ins.second)
        ++entries_;
    else
        ins.first->second = pfn;
    // A fresh translation supersedes any pending mark for the key
    // (the TLB reported the old entry's removal first, so normally
    // none exists; this is defensive).
    auto it = marks_[core].find(k);
    if (it != marks_[core].end())
        clearMark(core, it);
}

void
StalenessOracle::onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid)
{
    growTo(core);
    const Key k{vpn, pcid};
    if (mirrors_[core].erase(k))
        --entries_;
    auto it = marks_[core].find(k);
    if (it == marks_[core].end())
        return;
    const Mark &m = it->second;
    const Tick t = now();
    if (t > m.deadline) {
        violation("stale translation outlived its bound: core " +
                  std::to_string(core) + " vpn " + std::to_string(vpn) +
                  " pcid " + std::to_string(pcid) + " pfn " +
                  std::to_string(pfn) + " (mm " + std::to_string(m.mm) +
                  ", " + m.op + ") invalidated at " +
                  std::to_string(t) + " ns, deadline " +
                  std::to_string(m.deadline) + " ns");
    }
    clearMark(core, it);
}

void
StalenessOracle::onFrameAlloc(Pfn pfn)
{
    // The reuse invariant proper is InvariantChecker's job; this
    // adds op attribution when the colliding translation is one a
    // policy already promised to kill.
    auto it = markedPfns_.find(pfn);
    if (it == markedPfns_.end())
        return;
    violation("frame " + std::to_string(pfn) +
              " reallocated while " + std::to_string(it->second) +
              " stale translation(s) to it await invalidation");
}

void
StalenessOracle::onFrameFree(Pfn)
{
}

void
StalenessOracle::place(CoreId core, const Key &k, const Mark &m)
{
    auto ins = marks_[core].emplace(k, m);
    if (ins.second) {
        ++pendingMarks_;
        ++markedPfns_[m.pfn];
    } else if (m.deadline < ins.first->second.deadline) {
        // Keep the earliest deadline: the older promise still binds.
        ins.first->second.deadline = m.deadline;
        ins.first->second.op = m.op;
    }
}

void
StalenessOracle::clearMark(CoreId core, Marks::iterator it)
{
    auto ref = markedPfns_.find(it->second.pfn);
    if (ref != markedPfns_.end() && --ref->second == 0)
        markedPfns_.erase(ref);
    marks_[core].erase(it);
    --pendingMarks_;
}

void
StalenessOracle::notePageTableInvalidation(
    Pcid pcid, MmId mm, std::vector<std::pair<Vpn, Pfn>> changed,
    const CpuMask &cores, Tick deadline, const char *op)
{
    bool sorted = false;
    cores.forEach([&](CoreId core) {
        if (core >= mirrors_.size())
            return;
        const Mirror &mirror = mirrors_[core];
        if (mirror.empty())
            return;
        const auto mark = [&](const Key &k, Pfn pfn) {
            place(core, k, Mark{deadline, pfn, mm, op});
        };
        // Probe each changed page, or scan the core's whole mirror
        // when that is smaller and look its entries up among them.
        if (changed.size() <= mirror.size()) {
            for (const auto &[vpn, pfn] : changed) {
                auto it = mirror.find(Key{vpn, pcid});
                if (it != mirror.end() && it->second == pfn)
                    mark(it->first, pfn);
            }
            return;
        }
        if (!sorted) {
            std::sort(changed.begin(), changed.end());
            sorted = true;
        }
        for (const auto &[k, pfn] : mirror)
            if (k.pcid == pcid &&
                std::binary_search(changed.begin(), changed.end(),
                                   std::make_pair(k.vpn, pfn)))
                mark(k, pfn);
    });
}

void
StalenessOracle::auditAt(Tick now)
{
    for (CoreId core = 0; core < marks_.size(); ++core) {
        for (const auto &kv : marks_[core]) {
            const Mark &m = kv.second;
            if (now <= m.deadline)
                continue;
            violation("stale translation never invalidated: core " +
                      std::to_string(core) + " vpn " +
                      std::to_string(kv.first.vpn) + " pcid " +
                      std::to_string(kv.first.pcid) + " pfn " +
                      std::to_string(m.pfn) + " (mm " +
                      std::to_string(m.mm) + ", " + m.op +
                      ") deadline " + std::to_string(m.deadline) +
                      " ns, audited at " + std::to_string(now) + " ns");
        }
    }
}

void
StalenessOracle::reset()
{
    mirrors_.clear();
    marks_.clear();
    markedPfns_.clear();
    entries_ = 0;
    pendingMarks_ = 0;
    violations_ = 0;
    first_.clear();
}

} // namespace latr
