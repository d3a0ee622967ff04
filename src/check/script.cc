#include "check/script.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/args.hh"
#include "sim/rng.hh"

namespace latr
{

namespace
{

/** Per-slot generator bookkeeping. */
struct SlotState
{
    bool live = false;
    bool huge = false;
    std::uint64_t pages = 0;
    /** Owning process (its tasks issue ops against the slot). */
    unsigned proc = 0;
    /**
     * madvise/NUMA-sample happened since the last quiesce: further
     * access would sit in the paper's legitimate transient-staleness
     * window, where lazy and synchronous policies may diverge.
     */
    bool tainted = false;
    bool readOnly = false;
};

/**
 * Largest operand a script may carry, well above what the generator
 * (12 slots, 48 pages, 400 us advances) and the corpus (slots up to
 * 69, 24 pages, 300 us) use. The bounds keep a hand-edited or
 * corrupted script from asking the executor for a huge slot table or
 * a multi-terabyte mapping.
 */
constexpr std::uint64_t kMaxTask = 4095;
constexpr std::uint64_t kMaxSlot = 4095;
constexpr std::uint64_t kMaxPages = 4096;
constexpr std::uint64_t kMaxHugePages = 8;
constexpr std::uint64_t kMaxOffset = kMaxPages - 1;
constexpr std::uint64_t kMaxCore = 1023;
constexpr std::uint64_t kMaxAdvanceUsec = 1'000'000;
constexpr std::uint64_t kMaxProcs = 128;

/**
 * One op directive: its name and operands, one letter each — t task, s slot, p pages, h huge pages, o page offset,
 * c core, u usec, a access written r|rw, w access written r|w (either
 * access letter parses r, rw and w).
 */
struct Directive
{
    const char *name;
    OpKind kind;
    const char *operands;
    const char *usage;
};

constexpr Directive kDirectives[] = {
    {"mmap", OpKind::Mmap, "tspa", "<task> <slot> <pages> <r|rw>"},
    {"mmap_huge", OpKind::MmapHuge, "tsh", "<task> <slot> <hugepages>"},
    {"munmap", OpKind::Munmap, "ts", "<task> <slot>"},
    {"munmap_sync", OpKind::MunmapSync, "ts", "<task> <slot>"},
    {"madvise", OpKind::Madvise, "ts", "<task> <slot>"},
    {"madvise_free", OpKind::MadviseFree, "ts", "<task> <slot>"},
    {"mprotect", OpKind::Mprotect, "tsa", "<task> <slot> <r|rw>"},
    {"mremap", OpKind::Mremap, "tsp", "<task> <slot> <newpages>"},
    {"markcow", OpKind::MarkCow, "ts", "<task> <slot>"},
    {"touch", OpKind::Touch, "tsow", "<task> <slot> <off> <r|w>"},
    {"numa", OpKind::NumaSample, "tso", "<task> <slot> <off>"},
    {"ctxsw", OpKind::CtxSwitch, "c", "<core>"},
    {"advance", OpKind::Advance, "u", "<usec>"},
    {"quiesce", OpKind::Quiesce, "", "(no operands)"},
};

/** Fill @p op's operand @p code from @p tok; false if malformed. */
bool
parseOperand(char code, const std::string &tok, Op *op)
{
    if (code == 'a' || code == 'w') {
        op->rw = tok == "rw" || tok == "w";
        return op->rw || tok == "r";
    }
    std::uint64_t v = 0;
    const std::uint64_t max = code == 't'   ? kMaxTask
                              : code == 's' ? kMaxSlot
                              : code == 'p' ? kMaxPages
                              : code == 'h' ? kMaxHugePages
                              : code == 'o' ? kMaxOffset
                              : code == 'c' ? kMaxCore
                                            : kMaxAdvanceUsec;
    if (!parseDigits<std::uint64_t>(tok, 0, max, &v))
        return false;
    if (code == 't')
        op->task = static_cast<std::uint32_t>(v);
    else if (code == 's')
        op->slot = static_cast<std::uint32_t>(v);
    else if (code == 'o')
        op->off = v;
    else
        op->value = v;
    return true;
}

} // namespace

Script
generateScript(std::uint64_t seed, const GenOptions &opt)
{
    Rng rng(seed);
    Script s;
    s.seed = seed;
    s.pcid = opt.pcid;
    s.procs = opt.procs > 0 ? opt.procs : 1;
    s.large = opt.large;

    std::vector<SlotState> slots(opt.maxSlots);
    // One task per core in the executor's machine; task i runs
    // process i % procs, so a slot owned by proc p may be driven by
    // any task with index ≡ p (mod procs).
    const unsigned kCores = opt.large ? 120 : 8;
    auto task_of = [&](unsigned proc) -> std::uint32_t {
        const unsigned candidates = kCores / s.procs +
                                    (proc < kCores % s.procs ? 1 : 0);
        const unsigned pick = static_cast<unsigned>(
            rng.nextBounded(candidates ? candidates : 1));
        return proc + pick * s.procs;
    };

    for (unsigned i = 0; i < opt.numOps; ++i) {
        const unsigned slot =
            static_cast<unsigned>(rng.nextBounded(slots.size()));
        SlotState &st = slots[slot];
        Op op;
        op.slot = slot;

        const std::uint64_t roll = rng.nextBounded(100);
        if (!st.live) {
            // Empty slot: map something into it (huge 1 in 6).
            if (rng.nextBool(1.0 / 6.0)) {
                op.kind = OpKind::MmapHuge;
                op.value = rng.nextRange(1, 2); // 2-4 MiB
                st.huge = true;
                st.pages = op.value * kHugePageSpan;
            } else {
                op.kind = OpKind::Mmap;
                op.value = rng.nextRange(1, opt.maxPages);
                op.rw = true;
                st.huge = false;
                st.pages = op.value;
            }
            st.proc = static_cast<unsigned>(rng.nextBounded(s.procs));
            st.live = true;
            st.tainted = false;
            st.readOnly = false;
            op.task = task_of(st.proc);
        } else if (roll < 10) {
            op.kind = rng.nextBool(0.2) ? OpKind::MunmapSync
                                        : OpKind::Munmap;
            op.task = task_of(st.proc);
            st.live = false;
        } else if (roll < 16 && !st.huge) {
            // Half the discards take the MADV_FREE flavor: same
            // deferred-free model, separately counted/traced, and
            // the lazycache workload's staple operation.
            op.kind = rng.nextBool(0.5) ? OpKind::MadviseFree
                                        : OpKind::Madvise;
            op.task = task_of(st.proc);
            st.tainted = true;
        } else if (roll < 22 && !st.huge) {
            op.kind = OpKind::Mprotect;
            op.rw = rng.nextBool(0.5);
            op.task = task_of(st.proc);
            st.readOnly = !op.rw;
        } else if (roll < 26 && !st.huge) {
            op.kind = OpKind::Mremap;
            op.value = rng.nextRange(1, opt.maxPages);
            op.task = task_of(st.proc);
            st.pages = op.value;
        } else if (roll < 30 && !st.huge && !st.readOnly) {
            op.kind = OpKind::MarkCow;
            op.task = task_of(st.proc);
        } else if (roll < 34) {
            op.kind = OpKind::NumaSample;
            op.off = rng.nextBounded(st.pages);
            op.task = task_of(st.proc);
            st.tainted = true;
        } else if (roll < 80 && !st.tainted) {
            op.kind = OpKind::Touch;
            op.off = rng.nextBounded(st.pages);
            // Writes through a read-only or CoW mapping are fine
            // (segfault / CoW break are deterministic); writes are
            // just likelier to catch stale-writable bugs.
            op.rw = rng.nextBool(0.6) && !st.readOnly;
            op.task = task_of(st.proc);
        } else if (roll < 86) {
            op.kind = OpKind::CtxSwitch;
            op.value = rng.nextBounded(kCores);
        } else if (roll < 96) {
            op.kind = OpKind::Advance;
            op.value = rng.nextRange(10, 400); // microseconds
        } else {
            op.kind = OpKind::Quiesce;
            for (SlotState &other : slots)
                other.tainted = false;
        }
        s.ops.push_back(op);
    }
    s.ops.push_back(Op{OpKind::Quiesce, 0, 0, 0, 0, false});
    return s;
}

std::string
serializeScript(const Script &script)
{
    std::ostringstream out;
    out << "# latrsim check script\n";
    out << "seed " << script.seed << "\n";
    out << "pcid " << (script.pcid ? 1 : 0) << "\n";
    out << "procs " << script.procs << "\n";
    if (script.large)
        out << "machine large\n";
    for (const Op &op : script.ops) {
        const Directive *d = kDirectives;
        while (d->kind != op.kind)
            ++d;
        out << d->name;
        for (const char *code = d->operands; *code; ++code) {
            out << " ";
            if (*code == 't')
                out << op.task;
            else if (*code == 's')
                out << op.slot;
            else if (*code == 'o')
                out << op.off;
            else if (*code == 'a')
                out << (op.rw ? "rw" : "r");
            else if (*code == 'w')
                out << (op.rw ? "w" : "r");
            else
                out << op.value;
        }
        out << "\n";
    }
    return out.str();
}

bool
parseScript(const std::string &text, Script *out, std::string *err)
{
    *out = Script{};
    out->procs = 1;
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    auto fail = [&](const std::string &what) {
        if (err)
            *err = "line " + std::to_string(lineno) + ": " + what;
        return false;
    };
    while (std::getline(in, line)) {
        ++lineno;
        std::istringstream split(line);
        std::vector<std::string> tok;
        for (std::string t; split >> t;)
            tok.push_back(t);
        if (tok.empty() || tok[0][0] == '#')
            continue;
        const std::string &word = tok[0];
        if (word == "seed" || word == "pcid" || word == "procs") {
            const std::uint64_t lo = word == "procs";
            const std::uint64_t hi = word == "seed"   ? ~0ULL
                                     : word == "pcid" ? 1
                                                      : kMaxProcs;
            std::uint64_t v = 0;
            if (tok.size() != 2 ||
                !parseDigits<std::uint64_t>(tok[1], lo, hi, &v))
                return fail(word + " needs a number in " +
                            std::to_string(lo) + ".." +
                            std::to_string(hi));
            if (word == "seed")
                out->seed = v;
            else if (word == "pcid")
                out->pcid = v == 1;
            else
                out->procs = static_cast<unsigned>(v);
            continue;
        }
        if (word == "machine") {
            if (tok.size() != 2 || (tok[1] != "large" && tok[1] != "small"))
                return fail("machine needs 'small' or 'large'");
            out->large = tok[1] == "large";
            continue;
        }

        const Directive *d = nullptr;
        for (const Directive &candidate : kDirectives)
            if (word == candidate.name)
                d = &candidate;
        if (!d)
            return fail("unknown directive '" + word + "'");
        Op op;
        op.kind = d->kind;
        bool ok = tok.size() == 1 + std::strlen(d->operands);
        for (std::size_t i = 0; ok && d->operands[i]; ++i)
            ok = parseOperand(d->operands[i], tok[i + 1], &op);
        if (!ok)
            return fail(std::string(d->name) + " " + d->usage);
        out->ops.push_back(op);
    }
    return true;
}

bool
loadScriptFile(const std::string &path, Script *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseScript(text.str(), out, err);
}

bool
saveScriptFile(const std::string &path, const Script &script)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << serializeScript(script);
    return bool(out);
}

} // namespace latr
