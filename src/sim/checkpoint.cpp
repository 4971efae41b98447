#include "sim/checkpoint.h"

#include <algorithm>
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
    unsigned long long v = std::strtoull(begin, &end, 10);
    if (end == begin || (end && *end != '\0'))
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
// RackDomain serialization. Lives here (not rack_domain.cpp) so the
// complete key layout of the format stays in one translation unit.
// ---------------------------------------------------------------

namespace {

/** Flatten EsdCounters (directionChanges < 2^53, exact as double). */
void
pushCounters(std::vector<double> &out, const EsdCounters &c)
{
    out.push_back(c.chargeEnergyWh);
    out.push_back(c.dischargeEnergyWh);
    out.push_back(c.lossEnergyWh);
    out.push_back(c.dischargeAh);
    out.push_back(c.chargeAh);
    out.push_back(static_cast<double>(c.directionChanges));
}

EsdCounters
popCounters(const std::vector<double> &data, std::size_t &pos)
{
    EsdCounters c;
    c.chargeEnergyWh = data[pos++];
    c.dischargeEnergyWh = data[pos++];
    c.lossEnergyWh = data[pos++];
    c.dischargeAh = data[pos++];
    c.chargeAh = data[pos++];
    c.directionChanges =
        static_cast<unsigned long>(data[pos++]);
    return c;
}

constexpr std::size_t kBatteryValueCount = 7 + 6;
constexpr std::size_t kScValueCount = 4 + 6;

/** Serialize one pool: per device a fixed-width value block. */
void
savePool(CheckpointWriter &writer, const std::string &key,
         const EsdPool &pool)
{
    for (std::size_t i = 0; i < pool.deviceCount(); ++i) {
        const EnergyStorageDevice &dev = pool.device(i);
        std::vector<double> v;
        if (const auto *ba = dynamic_cast<const Battery *>(&dev)) {
            BatteryState s = ba->state();
            v = {s.y1,        s.y2,    s.healthCap,
                 s.healthRes, s.weightedAh, s.tempC,
                 static_cast<double>(s.lastDirection)};
            pushCounters(v, s.counters);
        } else if (const auto *sc =
                       dynamic_cast<const Supercapacitor *>(&dev)) {
            ScState s = sc->state();
            v = {s.voltage, s.healthCap, s.healthRes,
                 static_cast<double>(s.lastDirection)};
            pushCounters(v, s.counters);
        } else {
            panic("checkpoint: pool member ", dev.name(),
                  " is neither Battery nor Supercapacitor");
        }
        writer.putDoubles(key + "." + std::to_string(i), v);
    }
}

/** Restore every member of one pool in place. */
void
loadPool(const CheckpointReader &reader, const std::string &key,
         EsdPool &pool)
{
    for (std::size_t i = 0; i < pool.deviceCount(); ++i) {
        std::vector<double> v =
            reader.getDoubles(key + "." + std::to_string(i));
        EnergyStorageDevice &dev = pool.device(i);
        std::size_t pos = 0;
        if (auto *ba = dynamic_cast<Battery *>(&dev)) {
            if (v.size() != kBatteryValueCount)
                fatal("checkpoint: battery state '", key, ".", i,
                      "' has ", v.size(), " values, want ",
                      kBatteryValueCount);
            BatteryState s;
            s.y1 = v[pos++];
            s.y2 = v[pos++];
            s.healthCap = v[pos++];
            s.healthRes = v[pos++];
            s.weightedAh = v[pos++];
            s.tempC = v[pos++];
            s.lastDirection = static_cast<int>(v[pos++]);
            s.counters = popCounters(v, pos);
            ba->restoreState(s);
        } else if (auto *sc = dynamic_cast<Supercapacitor *>(&dev)) {
            if (v.size() != kScValueCount)
                fatal("checkpoint: supercap state '", key, ".", i,
                      "' has ", v.size(), " values, want ",
                      kScValueCount);
            ScState s;
            s.voltage = v[pos++];
            s.healthCap = v[pos++];
            s.healthRes = v[pos++];
            s.lastDirection = static_cast<int>(v[pos++]);
            s.counters = popCounters(v, pos);
            sc->restoreState(s);
        } else {
            panic("checkpoint: pool member ", dev.name(),
                  " is neither Battery nor Supercapacitor");
        }
    }
}

void
saveSeries(CheckpointWriter &writer, const std::string &key,
           const TimeSeries &series)
{
    writer.putDouble(key + ".step", series.stepSeconds());
    writer.putDouble(key + ".start", series.startTime());
    writer.putDoubles(key + ".samples", series.samples());
}

TimeSeries
loadSeries(const CheckpointReader &reader, const std::string &key)
{
    return TimeSeries(reader.getDoubles(key + ".samples"),
                      reader.getDouble(key + ".step"),
                      reader.getDouble(key + ".start"));
}

void
saveLedger(CheckpointWriter &writer, const std::string &key,
           const EnergyLedger &ledger)
{
    writer.putDoubles(
        key, {ledger.sourceToLoadWh, ledger.sourceToScWh,
              ledger.sourceToBatteryWh, ledger.scToLoadWh,
              ledger.batteryToLoadWh, ledger.chargeConversionLossWh,
              ledger.dischargeConversionLossWh, ledger.unservedWh,
              ledger.spilledSourceWh, ledger.bootWasteWh});
}

EnergyLedger
loadLedger(const CheckpointReader &reader, const std::string &key)
{
    std::vector<double> v = reader.getDoubles(key);
    if (v.size() != 10)
        fatal("checkpoint: ledger '", key, "' has ", v.size(),
              " values, want 10");
    EnergyLedger ledger;
    ledger.sourceToLoadWh = v[0];
    ledger.sourceToScWh = v[1];
    ledger.sourceToBatteryWh = v[2];
    ledger.scToLoadWh = v[3];
    ledger.batteryToLoadWh = v[4];
    ledger.chargeConversionLossWh = v[5];
    ledger.dischargeConversionLossWh = v[6];
    ledger.unservedWh = v[7];
    ledger.spilledSourceWh = v[8];
    ledger.bootWasteWh = v[9];
    return ledger;
}

} // namespace

void
RackDomain::checkpointSave(CheckpointWriter &writer,
                           const std::string &prefix) const
{
    writer.putU64(prefix + "tick_index", tickIndex_);
    writer.putDouble(prefix + "cached_demand", cachedDemand_);
    writer.putDouble(prefix + "last_restart", lastRestart_);
    writer.putDouble(prefix + "next_soc_sample", nextSocSample_);
    writer.putDouble(prefix + "sc_start_wh", scStartWh_);
    writer.putDouble(prefix + "ba_start_wh", baStartWh_);
    writer.putDouble(prefix + "perf_degradation", perfDegradation_);
    writer.putU64(prefix + "planned_offline", plannedOffline_);
    writer.putU64(prefix + "faults_applied", faultsApplied_);
    writer.putU64(prefix + "crash_events", crashEvents_);
    writer.putU64(prefix + "graceful_shed_events",
                  gracefulShedEvents_);
    writer.putU64(prefix + "shortfall_ticks", shortfallTicks_);
    writer.putDouble(prefix + "peak_draw_w", peakDrawW_);
    {
        std::vector<double> by_kind(faultsByKind_.size());
        for (std::size_t i = 0; i < faultsByKind_.size(); ++i)
            by_kind[i] = static_cast<double>(faultsByKind_[i]);
        writer.putDoubles(prefix + "faults_by_kind", by_kind);
    }
    writer.putU64(prefix + "fault_log_count", faultLog_.size());
    for (std::size_t i = 0; i < faultLog_.size(); ++i)
        writer.putString(prefix + "fault_log." + std::to_string(i),
                         faultLog_[i]);

    saveLedger(writer, prefix + "ledger", ledger_);
    saveSeries(writer, prefix + "series.demand", demandSeries_);
    saveSeries(writer, prefix + "series.supply", supplySeries_);
    saveSeries(writer, prefix + "series.unserved", unservedSeries_);
    saveSeries(writer, prefix + "series.sc_soc", scSocSeries_);
    saveSeries(writer, prefix + "series.ba_soc", baSocSeries_);
    saveSeries(writer, prefix + "series.r_lambda", rLambdaSeries_);

    writer.putU64(prefix + "sc_bank.devices",
                  scBank_->deviceCount());
    writer.putU64(prefix + "ba_bank.devices",
                  baBank_->deviceCount());
    savePool(writer, prefix + "sc_bank", *scBank_);
    savePool(writer, prefix + "ba_bank", *baBank_);

    // Cluster.
    writer.putU64(prefix + "servers", cluster_.size());
    for (std::size_t i = 0; i < cluster_.size(); ++i) {
        Server::State s = cluster_.server(i).state();
        writer.putDoubles(
            prefix + "server." + std::to_string(i),
            {s.frequency == Server::Frequency::High ? 1.0 : 0.0,
             s.on ? 1.0 : 0.0, s.bootDoneTime, s.lastActive,
             s.downtime, static_cast<double>(s.cycles)});
    }

    // Topology: only the buffer stage trips.
    writer.putDouble(prefix + "topology",
                     topology_.bufferStageRestoreTime());

    // Relays.
    writer.putU64(prefix + "switches", switches_.size());
    for (std::size_t i = 0; i < switches_.size(); ++i) {
        PowerSwitch::State s = switches_[i].state();
        writer.putDoubles(
            prefix + "switch." + std::to_string(i),
            {static_cast<double>(s.target), s.settleTime,
             static_cast<double>(s.actuations)});
    }

    // Controller + scheme + degradation ladder.
    {
        HebController::State s = controller_.state();
        writer.putBool(prefix + "ctl.started", s.started);
        writer.putDouble(prefix + "ctl.slot_start", s.slotStart);
        writer.putDouble(prefix + "ctl.slot_peak_w", s.slotPeakW);
        writer.putDouble(prefix + "ctl.slot_valley_w",
                         s.slotValleyW);
        writer.putDouble(prefix + "ctl.last_peak_w", s.lastPeakW);
        writer.putDouble(prefix + "ctl.last_valley_w",
                         s.lastValleyW);
        writer.putDouble(prefix + "ctl.sc_start_wh", s.scStartWh);
        writer.putDouble(prefix + "ctl.ba_start_wh", s.baStartWh);
        writer.putU64(prefix + "ctl.completed_slots",
                      s.completedSlots);
        writer.putDoubles(
            prefix + "ctl.plan",
            {s.plan.rLambda, s.plan.chargeScFirst ? 1.0 : 0.0,
             s.plan.predictedMismatchW, s.plan.batteryBasePlanW,
             s.plan.predictedClass == PeakClass::Large ? 1.0 : 0.0,
             s.plan.shedFraction});
        writer.putString(prefix + "ctl.noise_rng",
                         s.noiseRngStream);
    }
    {
        std::vector<double> scheme_state;
        controller_.scheme().checkpointSave(scheme_state);
        writer.putDoubles(prefix + "scheme", scheme_state);
    }
    if (degradation_) {
        DegradationPolicy::Counters c = degradation_->counters();
        writer.putDoubles(
            prefix + "degradation",
            {static_cast<double>(c.lastAction),
             static_cast<double>(c.untouched),
             static_cast<double>(c.rebalanced),
             static_cast<double>(c.singleBranch),
             static_cast<double>(c.shed)});
    }

    // Fault injector cursor + forked jitter stream.
    if (injector_) {
        fault::FaultInjector::State s = injector_->state();
        writer.putU64(prefix + "injector.next_index", s.nextIndex);
        writer.putU64(prefix + "injector.jitter_rng",
                      s.jitterRngState);
        writer.putDouble(prefix + "injector.last_good",
                         s.lastGoodReading);
        writer.putBool(prefix + "injector.have_last_good",
                       s.haveLastGood);
    }
}

void
RackDomain::checkpointLoad(const CheckpointReader &reader,
                           const std::string &prefix)
{
    tickIndex_ = reader.getU64(prefix + "tick_index");
    cachedDemand_ = reader.getDouble(prefix + "cached_demand");
    lastRestart_ = reader.getDouble(prefix + "last_restart");
    nextSocSample_ = reader.getDouble(prefix + "next_soc_sample");
    scStartWh_ = reader.getDouble(prefix + "sc_start_wh");
    baStartWh_ = reader.getDouble(prefix + "ba_start_wh");
    perfDegradation_ =
        reader.getDouble(prefix + "perf_degradation");
    plannedOffline_ = static_cast<std::size_t>(
        reader.getU64(prefix + "planned_offline"));
    faultsApplied_ = static_cast<unsigned long>(
        reader.getU64(prefix + "faults_applied"));
    crashEvents_ = static_cast<unsigned long>(
        reader.getU64(prefix + "crash_events"));
    gracefulShedEvents_ = static_cast<unsigned long>(
        reader.getU64(prefix + "graceful_shed_events"));
    shortfallTicks_ = static_cast<unsigned long>(
        reader.getU64(prefix + "shortfall_ticks"));
    peakDrawW_ = reader.getDouble(prefix + "peak_draw_w");
    {
        std::vector<double> by_kind =
            reader.getDoubles(prefix + "faults_by_kind");
        if (by_kind.size() != faultsByKind_.size())
            fatal("checkpoint: faults_by_kind has ",
                  by_kind.size(), " kinds, this build has ",
                  faultsByKind_.size());
        for (std::size_t i = 0; i < faultsByKind_.size(); ++i)
            faultsByKind_[i] =
                static_cast<unsigned long>(by_kind[i]);
    }
    faultLog_.clear();
    {
        std::uint64_t n =
            reader.getU64(prefix + "fault_log_count");
        for (std::uint64_t i = 0; i < n; ++i)
            faultLog_.push_back(reader.getString(
                prefix + "fault_log." + std::to_string(i)));
    }

    ledger_ = loadLedger(reader, prefix + "ledger");
    demandSeries_ = loadSeries(reader, prefix + "series.demand");
    supplySeries_ = loadSeries(reader, prefix + "series.supply");
    unservedSeries_ =
        loadSeries(reader, prefix + "series.unserved");
    scSocSeries_ = loadSeries(reader, prefix + "series.sc_soc");
    baSocSeries_ = loadSeries(reader, prefix + "series.ba_soc");
    rLambdaSeries_ =
        loadSeries(reader, prefix + "series.r_lambda");

    if (reader.getU64(prefix + "sc_bank.devices") !=
            scBank_->deviceCount() ||
        reader.getU64(prefix + "ba_bank.devices") !=
            baBank_->deviceCount())
        fatal("checkpoint: bank device counts do not match this "
              "configuration");
    loadPool(reader, prefix + "sc_bank", *scBank_);
    loadPool(reader, prefix + "ba_bank", *baBank_);

    if (reader.getU64(prefix + "servers") != cluster_.size())
        fatal("checkpoint: server count does not match this "
              "configuration");
    for (std::size_t i = 0; i < cluster_.size(); ++i) {
        std::vector<double> v = reader.getDoubles(
            prefix + "server." + std::to_string(i));
        if (v.size() != 6)
            fatal("checkpoint: server state ", i, " has ",
                  v.size(), " values, want 6");
        Server::State s;
        s.frequency = v[0] != 0.0 ? Server::Frequency::High
                                  : Server::Frequency::Low;
        s.on = v[1] != 0.0;
        s.bootDoneTime = v[2];
        s.lastActive = v[3];
        s.downtime = v[4];
        s.cycles = static_cast<unsigned long>(v[5]);
        cluster_.server(i).restoreState(s);
    }

    topology_.setBufferStageRestoreTime(
        reader.getDouble(prefix + "topology"));

    if (reader.getU64(prefix + "switches") != switches_.size())
        fatal("checkpoint: relay count does not match this "
              "configuration");
    for (std::size_t i = 0; i < switches_.size(); ++i) {
        std::vector<double> v = reader.getDoubles(
            prefix + "switch." + std::to_string(i));
        if (v.size() != 3)
            fatal("checkpoint: relay state ", i, " has ",
                  v.size(), " values, want 3");
        PowerSwitch::State s;
        s.target = static_cast<SwitchFeed>(
            static_cast<int>(v[0]));
        s.settleTime = v[1];
        s.actuations = static_cast<std::uint64_t>(v[2]);
        switches_[i].restoreState(s);
    }

    {
        HebController::State s;
        s.started = reader.getBool(prefix + "ctl.started");
        s.slotStart = reader.getDouble(prefix + "ctl.slot_start");
        s.slotPeakW =
            reader.getDouble(prefix + "ctl.slot_peak_w");
        s.slotValleyW =
            reader.getDouble(prefix + "ctl.slot_valley_w");
        s.lastPeakW =
            reader.getDouble(prefix + "ctl.last_peak_w");
        s.lastValleyW =
            reader.getDouble(prefix + "ctl.last_valley_w");
        s.scStartWh =
            reader.getDouble(prefix + "ctl.sc_start_wh");
        s.baStartWh =
            reader.getDouble(prefix + "ctl.ba_start_wh");
        s.completedSlots =
            reader.getU64(prefix + "ctl.completed_slots");
        std::vector<double> plan =
            reader.getDoubles(prefix + "ctl.plan");
        if (plan.size() != 6)
            fatal("checkpoint: controller plan has ", plan.size(),
                  " values, want 6");
        s.plan.rLambda = plan[0];
        s.plan.chargeScFirst = plan[1] != 0.0;
        s.plan.predictedMismatchW = plan[2];
        s.plan.batteryBasePlanW = plan[3];
        s.plan.predictedClass = plan[4] != 0.0 ? PeakClass::Large
                                               : PeakClass::Small;
        s.plan.shedFraction = plan[5];
        s.noiseRngStream =
            reader.getString(prefix + "ctl.noise_rng");
        controller_.restoreState(s);
    }
    controller_.scheme().checkpointRestore(
        reader.getDoubles(prefix + "scheme"));
    if (degradation_) {
        std::vector<double> v =
            reader.getDoubles(prefix + "degradation");
        if (v.size() != 5)
            fatal("checkpoint: degradation state has ", v.size(),
                  " values, want 5");
        DegradationPolicy::Counters c;
        c.lastAction =
            static_cast<DegradationAction>(static_cast<int>(v[0]));
        c.untouched = static_cast<std::size_t>(v[1]);
        c.rebalanced = static_cast<std::size_t>(v[2]);
        c.singleBranch = static_cast<std::size_t>(v[3]);
        c.shed = static_cast<std::size_t>(v[4]);
        degradation_->restoreCounters(c);
    }

    if (injector_) {
        fault::FaultInjector::State s;
        s.nextIndex = static_cast<std::size_t>(
            reader.getU64(prefix + "injector.next_index"));
        s.jitterRngState =
            reader.getU64(prefix + "injector.jitter_rng");
        s.lastGoodReading =
            reader.getDouble(prefix + "injector.last_good");
        s.haveLastGood =
            reader.getBool(prefix + "injector.have_last_good");
        injector_->restoreState(s);
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
