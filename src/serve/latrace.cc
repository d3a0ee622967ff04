#include "serve/latrace.hh"

#include <cstdio>
#include <cstring>

namespace latr
{

namespace
{

// Wire layout, version 1. All integers little-endian.
//
//   offset  size  field
//   0       8     magic "LATRACE\0"
//   8       4     version
//   12      4     headerBytes (offset of the record array)
//   16      4     recordBytes (stride of one record)
//   20      4     reserved (0)
//   24      8     seed
//   32      8     durationTicks
//   40      4     workers
//   44      4     tenants
//   48      8     serviceCpuNs
//   56      8     recordCount
//   64      ...   records
//
// Record, 24 bytes: tick u64, user u32, tenant u32, pages u16,
// op u8, flags u8, reserved u32.

constexpr char kMagic[8] = {'L', 'A', 'T', 'R', 'A', 'C', 'E', '\0'};
constexpr std::uint32_t kHeaderBytes = 64;
constexpr std::uint32_t kRecordBytes = 24;

void
put16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
put32(std::string &out, std::uint32_t v)
{
    put16(out, static_cast<std::uint16_t>(v & 0xffff));
    put16(out, static_cast<std::uint16_t>(v >> 16));
}

void
put64(std::string &out, std::uint64_t v)
{
    put32(out, static_cast<std::uint32_t>(v & 0xffffffffULL));
    put32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t
get16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
get32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(get16(p)) |
           (static_cast<std::uint32_t>(get16(p + 2)) << 16);
}

std::uint64_t
get64(const unsigned char *p)
{
    return static_cast<std::uint64_t>(get32(p)) |
           (static_cast<std::uint64_t>(get32(p + 4)) << 32);
}

bool
fail(std::string *error, const char *why)
{
    if (error)
        *error = why;
    return false;
}

} // namespace

std::string
latraceSerialize(const Latrace &trace)
{
    std::string out;
    out.reserve(kHeaderBytes + trace.records.size() * kRecordBytes);
    out.append(kMagic, sizeof kMagic);
    put32(out, kLatraceVersion);
    put32(out, kHeaderBytes);
    put32(out, kRecordBytes);
    put32(out, 0); // reserved
    put64(out, trace.seed);
    put64(out, trace.durationTicks);
    put32(out, trace.workers);
    put32(out, trace.tenants);
    put64(out, trace.serviceCpuNs);
    put64(out, trace.records.size());
    for (const LatraceRecord &r : trace.records) {
        put64(out, r.tick);
        put32(out, r.user);
        put32(out, r.tenant);
        put16(out, r.pages);
        out.push_back(static_cast<char>(r.op));
        out.push_back(static_cast<char>(r.flags));
        put32(out, 0); // reserved
    }
    return out;
}

bool
latraceParse(const std::string &bytes, Latrace *out,
             std::string *error)
{
    const auto *p =
        reinterpret_cast<const unsigned char *>(bytes.data());
    if (bytes.size() < kHeaderBytes)
        return fail(error, "latrace: file shorter than the header");
    if (std::memcmp(p, kMagic, sizeof kMagic) != 0)
        return fail(error, "latrace: bad magic");
    const std::uint32_t version = get32(p + 8);
    if (version != kLatraceVersion)
        return fail(error, "latrace: unknown version");
    const std::uint32_t headerBytes = get32(p + 12);
    const std::uint32_t recordBytes = get32(p + 16);
    // Forward compatibility within a version: a longer header or
    // record stride only appends fields, which this reader skips.
    if (headerBytes < kHeaderBytes || recordBytes < kRecordBytes)
        return fail(error, "latrace: header or record too short");
    if (bytes.size() < headerBytes)
        return fail(error, "latrace: truncated header");

    Latrace trace;
    trace.seed = get64(p + 24);
    trace.durationTicks = get64(p + 32);
    trace.workers = get32(p + 40);
    trace.tenants = get32(p + 44);
    trace.serviceCpuNs = get64(p + 48);
    const std::uint64_t count = get64(p + 56);
    if (trace.workers == 0 || trace.tenants == 0)
        return fail(error, "latrace: needs a worker and a tenant");
    if (trace.durationTicks > kLatraceMaxDuration ||
        trace.workers > kLatraceMaxWorkers ||
        trace.tenants > kLatraceMaxTenants ||
        trace.serviceCpuNs > kLatraceMaxServiceCpu)
        return fail(error, "latrace: scenario field out of range");

    // Divide rather than multiply: count * recordBytes can wrap.
    const std::uint64_t body = bytes.size() - headerBytes;
    if (body % recordBytes != 0 || body / recordBytes != count)
        return fail(error, "latrace: body size mismatch");
    trace.records.reserve(count);
    const unsigned char *r = p + headerBytes;
    for (std::uint64_t i = 0; i < count; ++i, r += recordBytes) {
        LatraceRecord rec;
        rec.tick = get64(r);
        rec.user = get32(r + 8);
        rec.tenant = get32(r + 12);
        rec.pages = get16(r + 16);
        rec.op = static_cast<LatraceOp>(r[18]);
        rec.flags = r[19];
        if (rec.op != LatraceOp::Request &&
            rec.op != LatraceOp::TenantExit &&
            rec.op != LatraceOp::TenantSpawn)
            return fail(error, "latrace: unknown op");
        if (i > 0 && rec.tick < trace.records.back().tick)
            return fail(error, "latrace: ticks not nondecreasing");
        trace.records.push_back(rec);
    }
    *out = std::move(trace);
    return true;
}

bool
latraceSave(const Latrace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const std::string bytes = latraceSerialize(trace);
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    std::fclose(f);
    return ok;
}

bool
latraceLoad(const std::string &path, Latrace *out, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return fail(error, "latrace: cannot open file");
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return latraceParse(bytes, out, error);
}

} // namespace latr
