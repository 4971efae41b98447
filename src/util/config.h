/**
 * @file
 * Minimal key=value configuration store.
 *
 * Examples and tools accept a plain-text config file
 * (`key = value` lines, `#` comments) so experiment setups are
 * reproducible without recompiling.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace heb {

/**
 * Parse all of @p text as a T (double, long or long long); fatal()
 * naming @p what when any character is left over ("2x", "1h"), there
 * is no number ("abc") or the value does not fit in T. Config values
 * and every numeric CLI flag go through here.
 */
template <typename T>
T parseNumber(const std::string &text, const std::string &what);

/** A parsed key=value configuration. */
class Config
{
  public:
    /** Empty configuration. */
    Config() = default;

    /** Parse a config file; fatal() when the file cannot be read. */
    static Config fromFile(const std::string &path);

    /** Parse from an in-memory string (tests, embedding). */
    static Config fromString(const std::string &text);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /** String value; fatal() when missing. */
    const std::string &getString(const std::string &key) const;

    /** String with default. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Double value; fatal() when missing or not numeric. */
    double getDouble(const std::string &key) const;

    /** Double with default. */
    double getDouble(const std::string &key, double fallback) const;

    /** Integer value; fatal() when missing or not integral. */
    long getInt(const std::string &key) const;

    /** Integer with default. */
    long getInt(const std::string &key, long fallback) const;

    /** Boolean: true/false/1/0/yes/no (case sensitive). */
    bool getBool(const std::string &key) const;

    /** Boolean with default. */
    bool getBool(const std::string &key, bool fallback) const;

    /** Set/overwrite a value programmatically. */
    void set(const std::string &key, const std::string &value);

    /** Number of keys. */
    std::size_t size() const { return values_.size(); }

    /** Every key, in sorted order. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace heb
