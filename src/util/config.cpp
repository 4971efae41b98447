#include "util/config.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "util/logging.h"

namespace heb {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

template <typename T>
T
parseNumber(const std::string &text, const std::string &what)
{
    try {
        std::size_t used = 0;
        T value;
        if constexpr (std::is_same_v<T, double>)
            value = std::stod(text, &used);
        else if constexpr (std::is_same_v<T, long>)
            value = std::stol(text, &used);
        else
            value = std::stoll(text, &used);
        if (used == text.size())
            return value;
    } catch (const std::exception &) {
    }
    fatal(what, std::is_integral_v<T> ? " not integral: "
                                      : " not numeric: ",
          text);
}

template double parseNumber<double>(const std::string &,
                                    const std::string &);
template long parseNumber<long>(const std::string &,
                                const std::string &);
template long long parseNumber<long long>(const std::string &,
                                          const std::string &);

Config
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("Config: cannot open ", path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return fromString(buffer.str());
}

Config
Config::fromString(const std::string &text)
{
    Config cfg;
    std::stringstream ss(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(ss, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("Config: line ", lineno, " has no '=': ", line);
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("Config: empty key on line ", lineno);
        cfg.values_[key] = value;
    }
    return cfg;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[key, value] : values_)
        out.push_back(key);
    return out;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

const std::string &
Config::getString(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        fatal("Config: missing key '", key, "'");
    return it->second;
}

std::string
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

double
Config::getDouble(const std::string &key) const
{
    return parseNumber<double>(getString(key),
                               "Config: key '" + key + "'");
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    return has(key) ? getDouble(key) : fallback;
}

long
Config::getInt(const std::string &key) const
{
    return parseNumber<long>(getString(key),
                             "Config: key '" + key + "'");
}

long
Config::getInt(const std::string &key, long fallback) const
{
    return has(key) ? getInt(key) : fallback;
}

bool
Config::getBool(const std::string &key) const
{
    const std::string &v = getString(key);
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("Config: key '", key, "' is not a boolean: ", v);
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    return has(key) ? getBool(key) : fallback;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

} // namespace heb
