/**
 * @file
 * The one command-line parser of every bench and tool. A binary binds
 * each flag to the variable it sets, then calls parse() once, before
 * it does any work. The rules are the same everywhere: `--name=value`
 * and `--name value` are both accepted, and a switch takes no value;
 * a number is decimal digits only, within the flag's range; a real
 * number must parse completely, be finite and in range; a choice takes
 * one value from a fixed list. An unknown, repeated or valueless flag,
 * a positional argument or a bad value prints one line naming the
 * binary and the flag, and exits 2.
 */

#ifndef LATR_SIM_ARGS_HH_
#define LATR_SIM_ARGS_HH_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace latr
{

/**
 * Parse @p text as a decimal number in [@p lo, @p hi]: digits only,
 * so a sign, a blank, a suffix or an empty string is refused.
 * @return false (leaving *out alone) on any refusal.
 */
template <typename T>
bool
parseDigits(std::string_view text, T lo, T hi, T *out)
{
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi)
        return false;
    *out = value;
    return true;
}

/** The flags one binary accepts, each bound to the variable it sets. */
class Args
{
  public:
    /** A switch: sets *out when given. */
    Args &
    flag(const char *name, bool *out)
    {
        return add(name, false, [out](const char *) {
            *out = true;
            return true;
        });
    }

    /** A non-empty string, such as a path. */
    Args &
    text(const char *name, std::string *out)
    {
        return add(name, true, [out](const char *v) {
            *out = v;
            return true;
        });
    }

    /** A decimal number in [@p lo, @p hi] (see parseDigits()). */
    template <typename T>
    Args &
    number(const char *name, T *out, std::type_identity_t<T> lo,
           std::type_identity_t<T> hi)
    {
        return add(name, true,
                   [=](const char *v) {
                       return parseDigits(std::string_view(v), lo, hi,
                                          out);
                   },
                   "a number in " + std::to_string(lo) + ".." +
                       std::to_string(hi));
    }

    /** A finite real number in [@p lo, @p hi], parsed completely. */
    Args &
    real(const char *name, double *out, double lo, double hi)
    {
        char range[64];
        std::snprintf(range, sizeof range, "a number in %g..%g", lo, hi);
        return add(name, true,
                   [=](const char *v) {
                       double value = 0;
                       const char *end = v + std::strlen(v);
                       const auto [ptr, ec] =
                           std::from_chars(v, end, value);
                       if (ec != std::errc() || ptr != end ||
                           !std::isfinite(value) || value < lo ||
                           value > hi)
                           return false;
                       *out = value;
                       return true;
                   },
                   range);
    }

    /** One name of @p names; stores the value paired with it. */
    template <typename T>
    Args &
    choice(const char *name, T *out,
           std::vector<std::pair<std::string, T>> names)
    {
        std::string want = "one of ";
        for (const auto &n : names)
            want += n.first + (&n == &names.back() ? "" : "|");
        return add(name, true,
                   [=](const char *v) {
                       for (const auto &[n, value] : names)
                           if (n == v) {
                               *out = value;
                               return true;
                           }
                       return false;
                   },
                   want);
    }

    /** One of @p names, stored as the name itself. */
    Args &
    choice(const char *name, std::string *out,
           std::initializer_list<const char *> names)
    {
        std::vector<std::pair<std::string, std::string>> table;
        for (const char *n : names)
            table.emplace_back(n, n);
        return choice(name, out, std::move(table));
    }

    /**
     * Print one line naming the binary and @p what, and exit 2: for
     * bad input a binary finds after parse(), before any work.
     */
    [[noreturn]] void
    fail(const std::string &what) const
    {
        std::fprintf(stderr, "%s: %s\n", program_.c_str(), what.c_str());
        std::exit(2);
    }

    /** Apply @p argv to the declared flags; exits 2 on any refusal. */
    void
    parse(int argc, char **argv)
    {
        const char *slash = std::strrchr(argv[0], '/');
        program_ = slash ? slash + 1 : argv[0];
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg(argv[i]);
            const std::size_t eq = arg.find('=');
            Flag *f = find(arg.substr(0, eq));
            if (!f) {
                std::string list;
                for (const Flag &known : flags_)
                    list += " " + known.name;
                fail("unknown argument '" + std::string(arg) +
                     "' (accepted:" + (list.empty() ? " none" : list) +
                     ")");
            }
            if (f->given)
                fail(f->name + " given twice");
            f->given = true;
            const char *value = nullptr;
            if (eq != std::string_view::npos)
                value = argv[i] + eq + 1;
            else if (f->takesValue && i + 1 < argc &&
                     std::strncmp(argv[i + 1], "--", 2) != 0)
                value = argv[++i];
            if (!f->takesValue && value)
                fail(f->name + " takes no value");
            if (f->takesValue && (!value || !*value))
                fail(f->name + " needs a value");
            if (!f->set(value))
                fail(f->name + " wants " + f->want + ", not '" + value +
                     "'");
        }
    }

    /** Whether @p name appeared on the command line. */
    bool
    given(std::string_view name)
    {
        const Flag *f = find(name);
        return f && f->given;
    }

  private:
    struct Flag
    {
        std::string name;
        bool takesValue;
        /** Store a value; false if it is malformed. */
        std::function<bool(const char *)> set;
        /** What a valid value is, for the refusal message. */
        std::string want;
        bool given = false;
    };

    Args &
    add(const char *name, bool takes_value,
        std::function<bool(const char *)> set, std::string want = "")
    {
        flags_.push_back(
            Flag{name, takes_value, std::move(set), std::move(want)});
        return *this;
    }

    Flag *
    find(std::string_view name)
    {
        for (Flag &f : flags_)
            if (f.name == name)
                return &f;
        return nullptr;
    }

    std::vector<Flag> flags_;
    std::string program_;
};

} // namespace latr

#endif // LATR_SIM_ARGS_HH_
