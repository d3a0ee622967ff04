/**
 * @file
 * Machine configuration presets mirroring table 3 of the paper: the
 * commodity 2-socket/16-core E5-2630 v3 box and the large NUMA
 * 8-socket/120-core E7-8870 v2 box, plus the knobs the paper's design
 * discussion exposes (PCID use, tickless idle, LATR ring size).
 */

#ifndef LATR_TOPO_MACHINE_CONFIG_HH_
#define LATR_TOPO_MACHINE_CONFIG_HH_

#include <string>

#include "sim/types.hh"
#include "topo/cost_model.hh"

namespace latr
{

/** Full static description of a simulated machine. */
struct MachineConfig
{
    /** Human-readable name used in bench output. */
    std::string name = "machine";

    /// @name Topology (table 3)
    /// @{
    unsigned sockets = 2;
    unsigned coresPerSocket = 8;
    /** Physical memory per NUMA node, in 4 KiB frames. */
    std::uint64_t framesPerNode = 256 * 1024; // 1 GiB/node default
    /// @}

    /// @name TLB (table 3)
    /// @{
    unsigned l1TlbEntries = 64;
    unsigned l2TlbEntries = 1024;
    /// @}

    /// @name LLC model (table 3)
    /// @{
    /** LLC size per socket in bytes. */
    std::uint64_t llcBytesPerSocket = 20ULL * 1024 * 1024;
    unsigned llcWays = 16;
    unsigned llcLineBytes = 64;
    /// @}

    /// @name OS knobs
    /// @{
    /** x86 PCIDs: Linux 4.10 elects not to use them (paper 4.5). */
    bool pcidEnabled = false;
    /** Tickless idle (CONFIG_NO_HZ, paper section 7). */
    bool ticklessIdle = true;
    /// @}

    /// @name LATR knobs (paper 4.1, section 8)
    /// @{
    /** Per-core LATR states; 64 in the paper. */
    unsigned latrStatesPerCore = 64;
    /**
     * Sweep at context switches in addition to scheduler ticks (the
     * paper's design). Disabling isolates the ticks' contribution —
     * an ablation; correctness is unaffected because reclamation
     * still waits for the CPU mask to clear.
     */
    bool latrSweepAtContextSwitch = true;
    /**
     * Reclaim on the paper's time bound alone (free a state once it
     * is latrReclaimDelay old, whether or not every CPU-mask bit
     * cleared), instead of this implementation's stricter
     * "deactivated AND aged" rule. Exists to validate the paper's
     * two-tick-period argument: with time-only reclamation a delay
     * under two periods demonstrably breaks the reuse invariant
     * (see bench_ablation_reclaim), while 2 ms is safe.
     */
    bool latrTimeOnlyReclaim = false;
    /**
     * Model the section 7 "globally coherent scratchpad" proposal:
     * LATR states live in a dedicated scratchpad rather than the
     * LLC, so sweeps touch no cache lines (set the reduced
     * save/sweep costs in `cost` to complete the model).
     */
    bool latrScratchpad = false;
    /// @}

    /// @name Fault injection (testing the checker, never production)
    /// @{
    /**
     * Deliberately break LATR: skip the per-core sweep at scheduler
     * ticks and context switches, so remote TLB entries outlive the
     * one-epoch staleness bound. Exists solely so tests can prove
     * the coherence checker (src/check/) catches a broken policy.
     */
    bool injectSkipLatrSweep = false;
    /**
     * Deliberately wreck PredictivePolicy's sharer prediction: every
     * free operation predicts the *empty* sharer set, so every true
     * sharer is missed. Unlike injectSkipLatrSweep this must NOT
     * trip the coherence checker — the verification pass's TLB probes
     * catch each miss and the full-mask fallback restores
     * coherence within the contract. Tests use it to prove that
     * correctness never depends on prediction accuracy.
     */
    bool injectMispredictSharers = false;
    /// @}

    /** All latency constants. */
    CostModel cost;

    unsigned totalCores() const { return sockets * coresPerSocket; }

    /**
     * The 2-socket, 16-core commodity data-center machine
     * (E5-2630 v3, 128 GB, 20 MB LLC/socket).
     */
    static MachineConfig commodity2S16C();

    /**
     * The 8-socket, 120-core large NUMA machine (E7-8870 v2, 768 GB,
     * 30 MB LLC/socket).
     */
    static MachineConfig largeNuma8S120C();
};

} // namespace latr

#endif // LATR_TOPO_MACHINE_CONFIG_HH_
