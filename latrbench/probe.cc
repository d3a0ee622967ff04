#include "probe.hh"

#include "hw/tlb.hh"
#include "machine/machine.hh"
#include "mem/frame_allocator.hh"
#include "trace/trace.hh"

namespace latrbench
{

namespace
{

Probe g_probe;

/**
 * Room for every record of one traced round's longest machine, so the
 * trace-derived counts are exact (trace.dropped reports otherwise).
 */
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

/** StatRegistry counters harvested from traced machines. */
const char *const kStatCounters[] = {
    "sys.mmap",           "sys.munmap",
    "sys.madvise_free",   "vm.minor_faults",
    "numa.samples",       "numa.migrations",
    "coh.shootdowns",     "coh.remote_interrupts",
    "latr.sweeps",        "latr.sweep_matches",
    "latr.states_saved",  "latr.fallback_ipis",
    "latr.reclaimed_pages", "pred.ipis_saved",
    "pred.mispredicts",   "pred.verifies",
    "abis.shootdowns_avoided",
};

class CountingTlbListener : public latr::TlbListener
{
  public:
    void
    onTlbInsert(latr::CoreId, latr::Vpn, latr::Pfn, latr::Pcid) override
    {
        ++inserts;
    }

    void
    onTlbRemove(latr::CoreId, latr::Vpn, latr::Pfn, latr::Pcid) override
    {
        ++removes;
    }

    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
};

class CountingFrameListener : public latr::FrameListener
{
  public:
    void onFrameAlloc(latr::Pfn) override { ++allocs; }
    void onFrameFree(latr::Pfn) override { ++frees; }

    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
};

CountingTlbListener g_tlbCounts;
CountingFrameListener g_frameCounts;

void
attachInstruments(latr::Machine &m)
{
    m.trace().setCapacity(kTraceCapacity);
    m.trace().setEnabled(true);
    for (latr::CoreId c = 0; c < m.topo().totalCores(); ++c)
        m.scheduler().tlbOf(c).addListener(&g_tlbCounts);
    m.frames().addListener(&g_frameCounts);
}

void
harvest(latr::Machine &m)
{
    Tally &t = g_probe.tally;
    const latr::PolicyKind kind = m.policy().kind();
    t.simNs += m.now();
    t.events += m.queue().executed();
    if (m.checker())
        t.violations += m.checker()->violations();
    if (m.staleness())
        t.violations += m.staleness()->violations();
    t.digest = fnvMix(t.digest, static_cast<std::uint64_t>(kind));
    t.digest = fnvMix(t.digest, m.now());
    t.digest = fnvMix(t.digest, m.queue().executed());

    if (!m.trace().enabled())
        return;
    auto &mine = t.byPolicy[kind];
    auto add = [&](const std::string &name, std::uint64_t n) {
        t.counts[name] += n;
        mine[name] += n;
    };
    for (const char *name : kStatCounters)
        add(name, m.stats().counterValue(name));
    add("trace.records", m.trace().totalRecorded());
    add("trace.dropped", m.trace().dropped());
    for (const latr::TraceRecord &r : m.trace().snapshot())
        if (r.kind == latr::TraceKind::Instant ||
            r.kind == latr::TraceKind::SpanBegin)
            add(r.name, 1);
}

} // namespace

std::uint64_t
Tally::policyCount(latr::PolicyKind kind, const std::string &name) const
{
    auto it = byPolicy.find(kind);
    if (it == byPolicy.end())
        return 0;
    auto jt = it->second.find(name);
    return jt == it->second.end() ? 0 : jt->second;
}

Probe &
probe()
{
    return g_probe;
}

void
Probe::resetTally()
{
    tally = Tally{};
    g_tlbCounts = CountingTlbListener{};
    g_frameCounts = CountingFrameListener{};
}

latr::Distribution *
Probe::span(const std::string &name)
{
    if (!tracing)
        return nullptr;
    return &spans.try_emplace(name, kSpanReservoir).first->second;
}

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

void
Probe::foldListenerCounts()
{
    Tally &t = tally;
    t.counts["tlb.inserts"] = g_tlbCounts.inserts;
    t.counts["tlb.removes"] = g_tlbCounts.removes;
    t.counts["mem.frame_allocs"] = g_frameCounts.allocs;
    t.counts["mem.frame_frees"] = g_frameCounts.frees;
}

} // namespace latrbench

// The link-time wrappers (see CMakeLists.txt). MachineConfig is not
// trivially copyable, so the by-value parameter travels as a pointer
// to the caller's temporary under the Itanium C++ ABI.
extern "C" {

void __real__ZN4latr7MachineC1ENS_13MachineConfigENS_10PolicyKindEb(
    latr::Machine *self, latr::MachineConfig *config,
    latr::PolicyKind kind, bool check_invariants);
void __real__ZN4latr7MachineD1Ev(latr::Machine *self);

void
__wrap__ZN4latr7MachineC1ENS_13MachineConfigENS_10PolicyKindEb(
    latr::Machine *self, latr::MachineConfig *config,
    latr::PolicyKind kind, bool check_invariants)
{
    using namespace latrbench;
    ++g_probe.builds;
    {
        Span timer(g_probe.span("machine.build_ms"), 1e3);
        __real__ZN4latr7MachineC1ENS_13MachineConfigENS_10PolicyKindEb(
            self, config, kind, check_invariants);
    }
    if (g_probe.tracing)
        attachInstruments(*self);
}

void
__wrap__ZN4latr7MachineD1Ev(latr::Machine *self)
{
    latrbench::harvest(*self);
    __real__ZN4latr7MachineD1Ev(self);
}

} // extern "C"
