/**
 * @file
 * The `.latrace` timestamped-op trace format: a versioned binary
 * container for open-loop serving workloads, so scenarios are
 * shareable and byte-diffable across PRs and policies. A recording
 * is a header (magic, version, the scenario parameters replay needs)
 * followed by fixed-size little-endian records, each one op:
 *
 *   (tick, user, tenant, op, pages)
 *
 * Versioning rules (DESIGN.md §9): the header carries its own byte
 * length, so a reader skips header fields younger than itself;
 * records only ever *gain* trailing fields inside their fixed
 * recordBytes, so a reader ignores record bytes it does not know.
 * Any change that would break either rule bumps kLatraceVersion and
 * readers reject files whose version they do not speak.
 *
 * Serialization is fully integer-based — no floats touch the wire —
 * so equal in-memory traces serialize to equal bytes on every
 * platform, and the determinism tests can compare recordings with
 * memcmp.
 */

#ifndef LATR_SERVE_LATRACE_HH_
#define LATR_SERVE_LATRACE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/** Operation kinds a .latrace record can carry. */
enum class LatraceOp : std::uint8_t
{
    /** Serve one request for `tenant`: mmap/touch/munmap `pages`. */
    Request = 0,
    /** Tear the tenant slot's process down (frees every mapping). */
    TenantExit = 1,
    /** Spawn a fresh process into the tenant slot. */
    TenantSpawn = 2,
};

/** One timestamped op (fixed 24 bytes on the wire). */
struct LatraceRecord
{
    /** Arrival tick (simulated ns). */
    Tick tick = 0;
    /** Requesting user id (Request only; hashes into jitter). */
    std::uint32_t user = 0;
    /** Tenant slot the op addresses. */
    std::uint32_t tenant = 0;
    /** Pages the request maps and serves (Request only). */
    std::uint16_t pages = 0;
    LatraceOp op = LatraceOp::Request;
    /** Reserved, written as zero. */
    std::uint8_t flags = 0;

    bool
    operator==(const LatraceRecord &o) const
    {
        return tick == o.tick && user == o.user &&
               tenant == o.tenant && pages == o.pages && op == o.op &&
               flags == o.flags;
    }
};

/** Current .latrace format version. */
constexpr std::uint32_t kLatraceVersion = 1;

/** A parsed (or generated) .latrace recording. */
struct Latrace
{
    /// @name Header: the scenario parameters replay needs
    /// @{
    /** Seed the stream was generated from (provenance only). */
    std::uint64_t seed = 0;
    /** Open-loop horizon: last tick the generator covered. */
    Tick durationTicks = 0;
    /** Serving cores, one worker per core from core 0. */
    std::uint32_t workers = 0;
    /** Concurrent tenant slots (one process/mm each). */
    std::uint32_t tenants = 0;
    /** Request CPU time outside memory management, ns. */
    Duration serviceCpuNs = 0;
    /// @}

    std::vector<LatraceRecord> records;

    bool
    operator==(const Latrace &o) const
    {
        return seed == o.seed && durationTicks == o.durationTicks &&
               workers == o.workers && tenants == o.tenants &&
               serviceCpuNs == o.serviceCpuNs && records == o.records;
    }
};

/// @name Scenario bounds a .latrace header must keep
/// The first three are latrsim_cli's --duration-ticks, --workers and
/// --tenants ranges. A request body that computes for more than a
/// second (the generator's default is 30 us) is no serving scenario.
/// @{
constexpr Tick kLatraceMaxDuration = 3600 * kSec;
constexpr std::uint32_t kLatraceMaxWorkers = 1024;
constexpr std::uint32_t kLatraceMaxTenants = 4096;
constexpr Duration kLatraceMaxServiceCpu = kSec;
/// @}

/** Serialize @p trace to its canonical byte representation. */
std::string latraceSerialize(const Latrace &trace);

/**
 * Parse @p bytes into @p out. @return false (with a reason in
 * @p error if non-null) on bad magic, unknown version, a header
 * without a worker or a tenant or with a field beyond its bound, or
 * a truncated/oversized body.
 */
bool latraceParse(const std::string &bytes, Latrace *out,
                  std::string *error = nullptr);

/** Write @p trace to @p path. @return false on I/O failure. */
bool latraceSave(const Latrace &trace, const std::string &path);

/** Load @p path into @p out; see latraceParse for failure modes. */
bool latraceLoad(const std::string &path, Latrace *out,
                 std::string *error = nullptr);

} // namespace latr

#endif // LATR_SERVE_LATRACE_HH_
