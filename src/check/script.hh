/**
 * @file
 * Deterministic op-scripts for the conformance harness: a serialized
 * sequence of VM operations (mmap/munmap/mprotect/touch/...) that the
 * differential executor replays identically under every coherence
 * policy. Scripts have a stable one-op-per-line text form so failing
 * runs can be dumped to disk, minimized, hand-edited, and replayed
 * with `latrsim_check --replay`.
 */

#ifndef LATR_CHECK_SCRIPT_HH_
#define LATR_CHECK_SCRIPT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/** One scripted VM operation. */
enum class OpKind : std::uint8_t
{
    Mmap,        ///< map `pages` 4 KiB pages into `slot`
    MmapHuge,    ///< map `pages` 2 MiB regions into `slot`
    Munmap,      ///< unmap `slot` (policy's lazy path)
    MunmapSync,  ///< unmap `slot` with the sync-override flag
    Madvise,     ///< MADV_DONTNEED the whole `slot`
    MadviseFree, ///< MADV_FREE the whole `slot` (lazy discard)
    Mprotect,    ///< change `slot` to read-only or read-write (`rw`)
    Mremap,      ///< grow/shrink `slot` to `pages` pages (moves it)
    MarkCow,     ///< make `slot` copy-on-write
    Touch,       ///< access page `off` of `slot` (write if `rw`)
    NumaSample,  ///< AutoNUMA-sample page `off` of `slot`
    CtxSwitch,   ///< context switch on core `value`
    Advance,     ///< run the machine for `value` microseconds
    Quiesce,     ///< run until every policy reaches coherence
};

/** One line of a script. Field meaning varies by kind (see OpKind). */
struct Op
{
    OpKind kind = OpKind::Quiesce;
    std::uint32_t task = 0;   ///< issuing task index
    std::uint32_t slot = 0;   ///< region slot the op targets
    std::uint64_t value = 0;  ///< pages / usec / core, per kind
    std::uint64_t off = 0;    ///< page offset within the slot
    bool rw = false;          ///< write access / writable protection
};

/** A replayable workload: header + op list. */
struct Script
{
    std::uint64_t seed = 0;  ///< generator seed (provenance only)
    bool pcid = false;       ///< run with PCIDs enabled
    unsigned procs = 2;      ///< processes (tasks = one per core)
    /**
     * Run on the 8-socket/120-core large-NUMA machine instead of
     * the default 2x4 small config (`machine large` header line).
     * Boundary behaviour — CpuMask word crossings at core 64, wide
     * IPI fan-outs, tick-wheel slot density — only exists there.
     */
    bool large = false;
    std::vector<Op> ops;
};

/** Knobs for generateScript(). */
struct GenOptions
{
    unsigned numOps = 400;
    bool pcid = false;
    unsigned procs = 2;
    /** Generate for the 120-core large-NUMA machine. */
    bool large = false;
    /** Region slots per run (shared namespace across processes). */
    unsigned maxSlots = 12;
    /** Largest small-page region, in pages. */
    unsigned maxPages = 48;
};

/**
 * Generate a pseudo-random but policy-agnostic script: ops whose
 * final architectural state is identical under every policy. Two
 * rules keep it that way: a slot touched by madvise or a NUMA sample
 * is not touched again until the next quiesce (a stale-hit there is
 * the paper's *legitimate* §4.4 window, where lazy and synchronous
 * policies transiently differ), and live footprint stays far below
 * physical memory so demand paging never dies of OOM.
 */
Script generateScript(std::uint64_t seed, const GenOptions &opt = {});

/** Render @p script in the stable text form. */
std::string serializeScript(const Script &script);

/**
 * Parse the text form. @return false (with *err set) on malformed
 * input: an unknown directive, a missing or extra operand, or a
 * number that is not plain decimal digits or exceeds its operand's
 * bound. Blank lines and `#` comment lines are skipped.
 */
bool parseScript(const std::string &text, Script *out,
                 std::string *err);

/** Read and parse @p path. @return false with *err set on failure. */
bool loadScriptFile(const std::string &path, Script *out,
                    std::string *err);

/** Serialize @p script to @p path. @return false on I/O failure. */
bool saveScriptFile(const std::string &path, const Script &script);

} // namespace latr

#endif // LATR_CHECK_SCRIPT_HH_
