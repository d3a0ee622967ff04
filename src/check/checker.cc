#include "check/checker.hh"

#include "sim/logging.hh"

namespace latr
{

namespace
{

/**
 * A mark's key packs (core, pcid, vpn) low to high: core ids fit in
 * 7 bits (CpuMask::kMaxCores) and user vpns in 36, so the key stays
 * far below FlatPageMap's empty key, and the fields that tell marks
 * of one page apart sit in the bits its hash mixes best.
 */
constexpr unsigned kPcidShift = 7;
constexpr unsigned kVpnShift = kPcidShift + 16;
static_assert(CpuMask::kMaxCores <= (1u << kPcidShift));

Vpn
markKey(CoreId core, Vpn vpn, Pcid pcid)
{
    return vpn << kVpnShift | Vpn{pcid} << kPcidShift | core;
}

/** "core C vpn V pcid P" of a mark's key. */
std::string
describeKey(Vpn key)
{
    return "core " + std::to_string(key & ((1u << kPcidShift) - 1)) +
           " vpn " + std::to_string(key >> kVpnShift) + " pcid " +
           std::to_string((key >> kPcidShift) & 0xffff);
}

/** A reuse violation: frame @p pfn @p verb while @p refs map it. */
std::string
reuseBreach(const char *verb, Pfn pfn, unsigned refs)
{
    return std::string("frame ") + verb +
           " while still mapped in a TLB (pfn " + std::to_string(pfn) +
           ", " + std::to_string(refs) + " live TLB refs)";
}

/**
 * True if @p tlb caches @p vpn -> @p pfn under @p pcid: in a 4 KiB
 * entry, or in a 2 MiB one, which is marked by its base vpn and pfn.
 */
bool
caches(const Tlb &tlb, Vpn vpn, Pcid pcid, Pfn pfn)
{
    Pfn cached;
    return (tlb.probePfn(vpn, pcid, &cached) && cached == pfn) ||
           (hugeBaseOf(vpn) == vpn &&
            tlb.probeHugePfn(vpn, pcid, &cached) && cached == pfn);
}

} // namespace

CoherenceChecker::CoherenceChecker(const EventQueue &clock)
    : clock_(clock)
{
}

void
CoherenceChecker::attach(CoreId core, Tlb &tlb)
{
    if (core >= tlbs_.size())
        tlbs_.resize(core + 1, nullptr);
    tlbs_[core] = &tlb;
    tlb.addListener(this);
}

void
CoherenceChecker::violation(Half &half, const std::string &what)
{
    ++half.count;
    if (half.first.empty())
        half.first = what;
    if (first_.empty())
        first_ = what;
}

void
CoherenceChecker::onTlbInsert(CoreId, Vpn, Pfn pfn, Pcid)
{
    ++frames_[pfn].tlb;
}

void
CoherenceChecker::onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid)
{
    FrameRefs *refs = frames_.find(pfn);
    if (!refs || refs->tlb == 0)
        panic("TLB remove of untracked pfn %llu",
              static_cast<unsigned long long>(pfn));
    // A mark is on one (vpn, pcid) -> pfn translation: only a frame
    // with marks on it can lose one here.
    if (refs->marked != 0) {
        const Vpn key = markKey(core, vpn, pcid);
        const Mark *m = marks_.find(key);
        if (m && m->pfn == pfn) {
            const Tick now = clock_.now();
            if (now > m->deadline)
                violation(staleness_,
                          "stale translation outlived its bound: " +
                              describeKey(key) + " pfn " +
                              std::to_string(pfn) + " (mm " +
                              std::to_string(m->mm) + ", " + m->op +
                              ") invalidated at " + std::to_string(now) +
                              " ns, deadline " +
                              std::to_string(m->deadline) + " ns");
            marks_.erase(key);
            --refs->marked;
        }
    }
    if (--refs->tlb == 0 && refs->marked == 0)
        frames_.erase(pfn);
}

void
CoherenceChecker::onFrameAlloc(Pfn pfn)
{
    const FrameRefs *refs = frames_.find(pfn);
    if (!refs)
        return;
    if (refs->tlb != 0)
        violation(reuse_, reuseBreach("allocated", pfn, refs->tlb));
    // The staleness half names the promise the reuse broke.
    if (refs->marked != 0)
        violation(staleness_,
                  "frame " + std::to_string(pfn) + " reallocated while " +
                      std::to_string(refs->marked) +
                      " stale translation(s) to it await invalidation");
}

void
CoherenceChecker::onFrameFree(Pfn pfn)
{
    const FrameRefs *refs = frames_.find(pfn);
    if (refs && refs->tlb != 0)
        violation(reuse_, reuseBreach("freed", pfn, refs->tlb));
}

void
CoherenceChecker::noteInvalidation(
    Pcid pcid, MmId mm, std::span<const std::pair<Vpn, Pfn>> changed,
    const CpuMask &cores, Tick deadline, const char *op)
{
    if (changed.empty())
        return;
    cores.forEach([&](CoreId core) {
        const Tlb *tlb = core < tlbs_.size() ? tlbs_[core] : nullptr;
        if (!tlb || tlb->size() == 0)
            return;
        for (const auto &[vpn, pfn] : changed) {
            if (!caches(*tlb, vpn, pcid, pfn))
                continue;
            Mark &m = marks_[markKey(core, vpn, pcid)];
            if (m.op) {
                // Keep the earliest deadline: the older promise binds.
                if (deadline < m.deadline) {
                    m.deadline = deadline;
                    m.op = op;
                }
                continue;
            }
            m = Mark{deadline, pfn, mm, op};
            ++frames_[pfn].marked;
        }
    });
}

void
CoherenceChecker::auditAt(Tick now)
{
    marks_.forEach([&](Vpn key, const Mark &m) {
        if (now <= m.deadline)
            return;
        violation(staleness_,
                  "stale translation never invalidated: " +
                      describeKey(key) + " pfn " + std::to_string(m.pfn) +
                      " (mm " + std::to_string(m.mm) + ", " + m.op +
                      ") deadline " + std::to_string(m.deadline) +
                      " ns, audited at " + std::to_string(now) + " ns");
    });
}

unsigned
CoherenceChecker::tlbRefs(Pfn pfn) const
{
    const FrameRefs *refs = frames_.find(pfn);
    return refs ? refs->tlb : 0;
}

void
CoherenceChecker::reset()
{
    frames_ = {};
    marks_ = {};
    reuse_ = {};
    staleness_ = {};
    first_.clear();
}

} // namespace latr
