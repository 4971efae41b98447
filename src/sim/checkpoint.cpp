#include "sim/checkpoint.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "esd/battery.h"
#include "esd/supercapacitor.h"
#include "sim/rack_domain.h"
#include "util/atomic_file.h"
#include "util/format.h"
#include "util/logging.h"

namespace heb {

const char *const kCheckpointSuffix = ".ckpt";
const char *const kAbortedCheckpointSuffix = ".ckpt.aborted";

namespace {

constexpr char kMagic[] = "HEBCKPT";

/** FNV-1a 64-bit over the payload bytes. */
std::uint64_t
fnv1a64(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/** Parse one round-trip-formatted double; fatal() names the key. */
double
parseDouble(const std::string &text, const std::string &key)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin || (end && *end != '\0'))
        fatal("checkpoint: value of '", key,
              "' is not a number: '", text, "'");
    return v;
}

} // namespace

void
CheckpointOptions::validate() const
{
    if (std::isnan(everySimSeconds) || everySimSeconds < 0.0)
        fatal("checkpoint-every must be a non-negative number of "
              "sim-seconds, got ",
              everySimSeconds);
    if (enabled() && dir.empty())
        fatal("checkpointing requested (",
              resume ? "--resume" : "--checkpoint-every",
              ") but no --checkpoint-dir given");
}

void
CheckpointWriter::putDouble(const std::string &key, double value)
{
    payload_ += key;
    payload_ += '=';
    appendRoundTrip(payload_, value);
    payload_ += '\n';
}

void
CheckpointWriter::putU64(const std::string &key, std::uint64_t value)
{
    payload_ += key;
    payload_ += '=';
    payload_ += std::to_string(value);
    payload_ += '\n';
}

void
CheckpointWriter::putBool(const std::string &key, bool value)
{
    putU64(key, value ? 1 : 0);
}

void
CheckpointWriter::putString(const std::string &key,
                            const std::string &value)
{
    if (value.find('\n') != std::string::npos)
        panic("checkpoint: string value of '", key,
              "' contains a newline");
    payload_ += key;
    payload_ += '=';
    payload_ += value;
    payload_ += '\n';
}

void
CheckpointWriter::putDoubles(const std::string &key,
                             const std::vector<double> &values)
{
    payload_ += key;
    payload_ += '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            payload_ += ' ';
        appendRoundTrip(payload_, values[i]);
    }
    payload_ += '\n';
}

bool
CheckpointReader::parse(const std::string &payload,
                        std::string &error)
{
    values_.clear();
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < payload.size()) {
        ++line_no;
        std::size_t nl = payload.find('\n', pos);
        if (nl == std::string::npos) {
            error = "payload line " + std::to_string(line_no) +
                    " is not newline-terminated";
            return false;
        }
        std::size_t eq = payload.find('=', pos);
        if (eq == std::string::npos || eq > nl) {
            error = "payload line " + std::to_string(line_no) +
                    " has no key=value separator";
            return false;
        }
        values_[payload.substr(pos, eq - pos)] =
            payload.substr(eq + 1, nl - eq - 1);
        pos = nl + 1;
    }
    return true;
}

bool
CheckpointReader::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

const std::string &
CheckpointReader::rawValue(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        fatal("checkpoint: missing key '", key,
              "' — file written by an incompatible layout?");
    return it->second;
}

double
CheckpointReader::getDouble(const std::string &key) const
{
    return parseDouble(rawValue(key), key);
}

std::uint64_t
CheckpointReader::getU64(const std::string &key) const
{
    const std::string &text = rawValue(key);
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(begin, &end, 10);
    // strtoull skips leading whitespace, negates a '-' and saturates
    // out-of-range text; the writer emits none of those.
    if (!std::isdigit(static_cast<unsigned char>(*begin)) ||
        *end != '\0' || errno == ERANGE)
        fatal("checkpoint: value of '", key,
              "' is not an unsigned integer: '", text, "'");
    return v;
}

bool
CheckpointReader::getBool(const std::string &key) const
{
    return getU64(key) != 0;
}

const std::string &
CheckpointReader::getString(const std::string &key) const
{
    return rawValue(key);
}

std::vector<double>
CheckpointReader::getDoubles(const std::string &key) const
{
    const std::string &text = rawValue(key);
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t space = text.find(' ', pos);
        std::size_t end =
            space == std::string::npos ? text.size() : space;
        out.push_back(
            parseDouble(text.substr(pos, end - pos), key));
        pos = end + 1;
    }
    return out;
}

void
CheckpointFields::field(const std::string &key, double &value)
{
    if (loading())
        value = reader_->getDouble(key);
    else
        writer_->putDouble(key, value);
}

void
CheckpointFields::field(const std::string &key, bool &value)
{
    if (loading())
        value = reader_->getBool(key);
    else
        writer_->putBool(key, value);
}

void
CheckpointFields::field(const std::string &key, std::string &value)
{
    if (loading())
        value = reader_->getString(key);
    else
        writer_->putString(key, value);
}

void
CheckpointFields::field(const std::string &key,
                        std::vector<double> &values)
{
    if (loading())
        values = reader_->getDoubles(key);
    else
        writer_->putDoubles(key, values);
}

void
CheckpointFields::checkWidth(const std::string &key,
                             std::size_t want) const
{
    std::size_t have = reader_->getDoubles(key).size();
    if (have != want)
        fatal("checkpoint: '", key, "' has ", have, " values, want ",
              want);
}

void
CheckpointFields::refuse(const char *what) const
{
    fatal("checkpoint ", source_, " was written under a different ",
          what, "; refusing to resume");
}

bool
writeCheckpointFile(const std::string &path,
                    const std::string &payload)
{
    std::string framed;
    framed.reserve(payload.size() + 64);
    framed += kMagic;
    framed += ' ';
    framed += std::to_string(kCheckpointFormatVersion);
    framed += ' ';
    framed += hex64(fnv1a64(payload));
    framed += ' ';
    framed += std::to_string(payload.size());
    framed += '\n';
    framed += payload;
    return writeFileAtomic(path, framed);
}

bool
readCheckpointFile(const std::string &path, std::string &payload_out,
                   std::string &error_out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error_out = "cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string data = buf.str();

    std::size_t nl = data.find('\n');
    if (nl == std::string::npos) {
        error_out = "truncated: no header line";
        return false;
    }
    std::istringstream header(data.substr(0, nl));
    std::string magic, checksum_hex;
    std::uint64_t version = 0;
    std::uint64_t payload_bytes = 0;
    if (!(header >> magic >> version >> checksum_hex >>
          payload_bytes) ||
        magic != kMagic) {
        error_out = "not a HEB checkpoint (bad header)";
        return false;
    }
    if (version != kCheckpointFormatVersion) {
        error_out = "format version skew: file is v" +
                    std::to_string(version) + ", this build reads v" +
                    std::to_string(kCheckpointFormatVersion);
        return false;
    }
    std::string payload = data.substr(nl + 1);
    if (payload.size() != payload_bytes) {
        error_out = "truncated: header promises " +
                    std::to_string(payload_bytes) + " payload bytes, " +
                    std::to_string(payload.size()) + " present";
        return false;
    }
    if (hex64(fnv1a64(payload)) != checksum_hex) {
        error_out = "checksum mismatch: file is corrupt";
        return false;
    }
    payload_out = std::move(payload);
    return true;
}

std::string
checkpointFilePath(const std::string &dir, const std::string &stem,
                   std::uint64_t tick)
{
    return dir + "/" + stem + "-" + std::to_string(tick) +
           kCheckpointSuffix;
}

std::vector<std::uint64_t>
listCheckpointTicks(const std::string &dir, const std::string &stem)
{
    namespace fs = std::filesystem;
    std::vector<std::uint64_t> ticks;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return ticks;
    const std::string prefix = stem + "-";
    const std::string suffix = kCheckpointSuffix;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        std::string name = entry.path().filename().string();
        if (name.size() <= prefix.size() + suffix.size())
            continue;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::string digits = name.substr(
            prefix.size(),
            name.size() - prefix.size() - suffix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            continue;
        ticks.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
    std::sort(ticks.rbegin(), ticks.rend());
    return ticks;
}

// ---------------------------------------------------------------
// Checkpoint-on-fatal hook (mirrors obs::installTraceFlushOnAbort):
// fatal() exits through exit(1), so an atexit hook sees the failure;
// unhandled exceptions are caught by chaining std::set_terminate.
// ---------------------------------------------------------------

namespace {

std::mutex g_fatal_mutex;
std::function<void()> g_fatal_writer;
bool g_hooks_installed = false;
std::terminate_handler g_prev_terminate = nullptr;

void
runFatalWriter()
{
    std::function<void()> writer;
    {
        std::lock_guard<std::mutex> lock(g_fatal_mutex);
        writer = std::move(g_fatal_writer);
        g_fatal_writer = nullptr;
    }
    if (writer)
        writer();
}

void
atexitHook()
{
    runFatalWriter();
}

[[noreturn]] void
terminateHook()
{
    runFatalWriter();
    if (g_prev_terminate)
        g_prev_terminate();
    std::abort();
}

} // namespace

void
installCheckpointOnFatal(std::function<void()> writer)
{
    std::lock_guard<std::mutex> lock(g_fatal_mutex);
    g_fatal_writer = std::move(writer);
    if (!g_hooks_installed) {
        g_hooks_installed = true;
        std::atexit(atexitHook);
        g_prev_terminate = std::set_terminate(terminateHook);
    }
}

void
clearCheckpointOnFatal()
{
    std::lock_guard<std::mutex> lock(g_fatal_mutex);
    g_fatal_writer = nullptr;
}

// ---------------------------------------------------------------
// RackDomain's field list. Lives here (not rack_domain.cpp) so the
// complete key layout of the format stays in one translation unit.
// ---------------------------------------------------------------

namespace {

/** EsdCounters (directionChanges < 2^53, exact as a double). */
void
checkpointCounters(StateCursor &c, EsdCounters &k)
{
    c.value(k.chargeEnergyWh);
    c.value(k.dischargeEnergyWh);
    c.value(k.lossEnergyWh);
    c.value(k.dischargeAh);
    c.value(k.chargeAh);
    c.count(k.directionChanges);
}

/** One pool: per device a fixed-width record "<key>.<i>". */
void
checkpointPool(CheckpointFields &io, const std::string &key,
               EsdPool &pool)
{
    for (std::size_t i = 0; i < pool.deviceCount(); ++i) {
        EnergyStorageDevice &dev = pool.device(i);
        const std::string member = key + "." + std::to_string(i);
        if (auto *ba = dynamic_cast<Battery *>(&dev)) {
            BatteryState s = ba->state();
            io.record(member, [&](StateCursor &c) {
                c.value(s.y1);
                c.value(s.y2);
                c.value(s.healthCap);
                c.value(s.healthRes);
                c.value(s.weightedAh);
                c.value(s.tempC);
                c.code(s.lastDirection);
                checkpointCounters(c, s.counters);
            });
            if (io.loading())
                ba->restoreState(s);
        } else if (auto *sc = dynamic_cast<Supercapacitor *>(&dev)) {
            ScState s = sc->state();
            io.record(member, [&](StateCursor &c) {
                c.value(s.voltage);
                c.value(s.healthCap);
                c.value(s.healthRes);
                c.code(s.lastDirection);
                checkpointCounters(c, s.counters);
            });
            if (io.loading())
                sc->restoreState(s);
        } else {
            panic("checkpoint: pool member ", dev.name(),
                  " is neither Battery nor Supercapacitor");
        }
    }
}

void
checkpointSeries(CheckpointFields &io, const std::string &key,
                 TimeSeries &series)
{
    double step = series.stepSeconds();
    double start = series.startTime();
    std::vector<double> samples;
    if (!io.loading())
        samples = series.samples();
    io.field(key + ".step", step);
    io.field(key + ".start", start);
    io.field(key + ".samples", samples);
    if (io.loading())
        series = TimeSeries(std::move(samples), step, start);
}

} // namespace

void
RackDomain::checkpoint(CheckpointFields &io, const std::string &prefix)
{
    auto key = [&](const char *name) { return prefix + name; };
    io.field(key("tick_index"), tickIndex_);
    io.field(key("cached_demand"), cachedDemand_);
    io.field(key("last_restart"), lastRestart_);
    io.field(key("next_soc_sample"), nextSocSample_);
    io.field(key("sc_start_wh"), scStartWh_);
    io.field(key("ba_start_wh"), baStartWh_);
    io.field(key("perf_degradation"), perfDegradation_);
    io.field(key("planned_offline"), plannedOffline_);
    io.field(key("faults_applied"), faultsApplied_);
    io.field(key("crash_events"), crashEvents_);
    io.field(key("graceful_shed_events"), gracefulShedEvents_);
    io.field(key("shortfall_ticks"), shortfallTicks_);
    io.field(key("peak_draw_w"), peakDrawW_);
    io.record(key("faults_by_kind"), [&](StateCursor &c) {
        for (unsigned long &n : faultsByKind_)
            c.count(n);
    });
    std::size_t log_count = faultLog_.size();
    io.field(key("fault_log_count"), log_count);
    faultLog_.resize(log_count);
    for (std::size_t i = 0; i < log_count; ++i)
        io.field(key("fault_log.") + std::to_string(i), faultLog_[i]);

    io.record(key("ledger"), [&](StateCursor &c) {
        c.value(ledger_.sourceToLoadWh);
        c.value(ledger_.sourceToScWh);
        c.value(ledger_.sourceToBatteryWh);
        c.value(ledger_.scToLoadWh);
        c.value(ledger_.batteryToLoadWh);
        c.value(ledger_.chargeConversionLossWh);
        c.value(ledger_.dischargeConversionLossWh);
        c.value(ledger_.unservedWh);
        c.value(ledger_.spilledSourceWh);
        c.value(ledger_.bootWasteWh);
    });
    checkpointSeries(io, key("series.demand"), demandSeries_);
    checkpointSeries(io, key("series.supply"), supplySeries_);
    checkpointSeries(io, key("series.unserved"), unservedSeries_);
    checkpointSeries(io, key("series.sc_soc"), scSocSeries_);
    checkpointSeries(io, key("series.ba_soc"), baSocSeries_);
    checkpointSeries(io, key("series.r_lambda"), rLambdaSeries_);

    io.same(key("sc_bank.devices"), scBank_->deviceCount(),
            "SC bank device count");
    io.same(key("ba_bank.devices"), baBank_->deviceCount(),
            "battery bank device count");
    checkpointPool(io, key("sc_bank"), *scBank_);
    checkpointPool(io, key("ba_bank"), *baBank_);

    io.same(key("servers"), cluster_.size(), "server count");
    for (std::size_t i = 0; i < cluster_.size(); ++i) {
        Cluster::ServerState s = cluster_.serverState(i);
        io.record(key("server.") + std::to_string(i),
                  [&](StateCursor &c) {
                      bool high = s.frequency == Cluster::Frequency::High;
                      c.flag(high);
                      s.frequency = high ? Cluster::Frequency::High
                                         : Cluster::Frequency::Low;
                      c.flag(s.on);
                      c.value(s.bootDoneTime);
                      c.value(s.lastActive);
                      c.value(s.downtime);
                      c.count(s.cycles);
                  });
        if (io.loading())
            cluster_.restoreServer(i, s);
    }

    // Topology: only the buffer stage trips.
    double restart = topology_.bufferStageRestoreTime();
    io.field(key("topology"), restart);
    if (io.loading())
        topology_.setBufferStageRestoreTime(restart);

    io.same(key("switches"), switches_.size(), "relay count");
    for (std::size_t i = 0; i < switches_.size(); ++i) {
        PowerSwitch::State s = switches_[i].state();
        io.record(key("switch.") + std::to_string(i),
                  [&](StateCursor &c) {
                      c.code(s.target);
                      c.count(s.actuations);
                  });
        if (io.loading())
            switches_[i].restoreState(s);
    }

    // Controller + scheme + degradation ladder.
    HebController::State ctl = controller_.state();
    io.field(key("ctl.started"), ctl.started);
    io.field(key("ctl.slot_start"), ctl.slotStart);
    io.field(key("ctl.slot_peak_w"), ctl.slotPeakW);
    io.field(key("ctl.slot_valley_w"), ctl.slotValleyW);
    io.field(key("ctl.last_peak_w"), ctl.lastPeakW);
    io.field(key("ctl.last_valley_w"), ctl.lastValleyW);
    io.field(key("ctl.sc_start_wh"), ctl.scStartWh);
    io.field(key("ctl.ba_start_wh"), ctl.baStartWh);
    io.field(key("ctl.completed_slots"), ctl.completedSlots);
    io.record(key("ctl.plan"), [&](StateCursor &c) {
        checkpointSlotPlan(c, ctl.plan);
    });
    io.field(key("ctl.noise_rng"), ctl.noiseRngStream);
    if (io.loading())
        controller_.restoreState(ctl);
    io.packed(key("scheme"), [&](StateCursor &c) {
        controller_.scheme().checkpoint(c);
    });
    if (degradation_) {
        DegradationPolicy::Counters d = degradation_->counters();
        io.record(key("degradation"), [&](StateCursor &c) {
            c.code(d.lastAction);
            c.count(d.untouched);
            c.count(d.rebalanced);
            c.count(d.singleBranch);
            c.count(d.shed);
        });
        if (io.loading())
            degradation_->restoreCounters(d);
    }

    // Fault injector cursor + forked jitter stream.
    if (injector_) {
        fault::FaultInjector::State f = injector_->state();
        io.field(key("injector.next_index"), f.nextIndex);
        io.field(key("injector.jitter_rng"), f.jitterRngState);
        io.field(key("injector.last_good"), f.lastGoodReading);
        io.field(key("injector.have_last_good"), f.haveLastGood);
        if (io.loading())
            injector_->restoreState(f);
    }
}

std::string
fleetShardCheckpointPath(const std::string &dir,
                         std::uint64_t tick, std::size_t rack)
{
    return dir + "/fleet-" + std::to_string(tick) + "-rack" +
           std::to_string(rack) + kCheckpointSuffix;
}

} // namespace heb
