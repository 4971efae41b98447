/**
 * @file
 * Two-way cursor over a flat vector of doubles holding model state.
 *
 * A component with checkpointed state (a scheme's PAT and predictor
 * history, a device's state record) lists its fields once, in one
 * function taking a StateCursor &. Over a saving cursor each call
 * appends its field; over a loading cursor the same call reads the
 * field back into the same variable, in the same order. Integral
 * fields ride as doubles, exact while they stay below 2^53.
 */

#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

namespace heb {

/** Saves fields into, or loads them from, a flat double vector. */
class StateCursor
{
  public:
    /** Saving cursor: every field is appended to @p out. */
    explicit StateCursor(std::vector<double> &out) : out_(&out) {}

    /**
     * Loading cursor over @p in. @p owner names the state in the
     * fatal() raised on a truncated vector, a malformed count or
     * unread trailing values.
     */
    StateCursor(const std::vector<double> &in, std::string owner)
        : in_(&in), owner_(std::move(owner))
    {
    }

    /** True when reading state back. */
    bool loading() const { return in_ != nullptr; }

    /** A double. */
    void value(double &v, const char *what = "value");

    /** A bool, as 1 or 0. */
    void flag(bool &v, const char *what = "flag");

    /** An unsigned count; on load it must be a non-negative integer. */
    template <std::unsigned_integral T>
    void
    count(T &n, const char *what = "count")
    {
        double v = static_cast<double>(n);
        value(v, what);
        if (loading())
            n = static_cast<T>(checkedCount(v, what));
    }

    /** A small signed integer or an enumerator, by its value. */
    template <class T>
        requires std::is_enum_v<T> || std::signed_integral<T>
    void
    code(T &v, const char *what = "code")
    {
        double d = static_cast<double>(static_cast<long long>(v));
        value(d, what);
        v = static_cast<T>(static_cast<long long>(d));
    }

    /** A length-prefixed list, @p item describing one element. */
    template <class T, class Fn>
    void
    list(std::vector<T> &items, const char *what, Fn &&item)
    {
        std::size_t n = items.size();
        count(n, what);
        if (loading())
            items.clear();
        for (std::size_t i = 0; i < n; ++i) {
            // Grown one element at a time, so a corrupt count runs
            // into the truncation check instead of a huge allocation.
            if (loading())
                items.emplace_back();
            item(items[i]);
        }
    }

    /** A length-prefixed vector of doubles. */
    void values(std::vector<double> &v, const char *what = "values");

    /** On a loading cursor, fatal() unless every value was read. */
    void finish() const;

  private:
    std::size_t checkedCount(double v, const char *what) const;

    std::vector<double> *out_ = nullptr;
    const std::vector<double> *in_ = nullptr;
    std::size_t pos_ = 0;
    std::string owner_;
};

} // namespace heb
